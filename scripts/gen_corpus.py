#!/usr/bin/env python3
"""Write all non-isomorphic graphs on n vertices as graph6 lines.

The output of any standard small-graph generator works as scan input; this
script exists so the experiments are reproducible without external tooling.
"""

import argparse
import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent.parent / "src"))

from rck.canonical import CANONICAL_MAX_VERTICES
from rck.enumerate_graphs import graphs_up_to
from rck.graph6 import to_graph6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("n", type=int, help=f"vertex count (1..{CANONICAL_MAX_VERTICES})")
    parser.add_argument("--out", help="output file (default: stdout)")
    args = parser.parse_args()

    # Both faults are reported before the enumeration starts.
    if not 1 <= args.n <= CANONICAL_MAX_VERTICES:
        print(f"error: vertex count {args.n} outside 1..{CANONICAL_MAX_VERTICES}", file=sys.stderr)
        return 2
    try:
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        for g in graphs_up_to(args.n)[args.n]:
            out.write(to_graph6(g) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
