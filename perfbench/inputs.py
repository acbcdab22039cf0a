"""Seeded workload inputs, built without rck.

Seed 0 keeps the published labelling and order.  Any other seed relabels
every corpus graph by its own random permutation and shuffles the corpus
order, and shuffles the order of the Hanson-Toft operations.  The
Hanson-Toft graphs themselves keep their published labelling on every seed:
one relabelled HT(3,4) on 10 vertices took between 1.50M and 2.85M search
nodes over six labellings, so relabelling them would turn the seed into
the dominant source of spread in wall time.
"""

from __future__ import annotations

import random
from pathlib import Path

from oracle import complete, decode_graph6, encode_graph6, hanson_toft_34, relabel

WORKLOADS = ("corpus-n8", "decide-ht34", "extremal-ht34", "enumerate-n8")
CORPUS = Path(__file__).resolve().parent / "data" / "graphs8.g6"
# sha256 of data/graphs8.g6, written by `python scripts/gen_corpus.py 8` at
# the commit that introduced the benchmark.
CORPUS_SHA256 = "ddfbae53eb4c04c78afe6585f03aa6530c639322a0db28a0d7524ea4b1af56a0"


def make_inputs(workload: str, seed: int) -> list:
    """The inputs of one workload: graph6 lines for the corpus, else items."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus-n8":
        lines = CORPUS.read_text().split()
        if seed:
            lines = [
                encode_graph6(n, relabel(adj, rng.sample(range(n), n)))
                for n, adj in map(decode_graph6, lines)
            ]
            rng.shuffle(lines)
        return lines
    if workload == "decide-ht34":
        items = [
            {"name": "K8", "op": "arrows", "adj": complete(8)},
            {"name": "K9", "op": "arrows", "adj": complete(9)},
            {"name": "HT(3,4) n=9", "op": "is_cocritical", "adj": hanson_toft_34(9)},
            {"name": "HT(3,4) n=10", "op": "is_cocritical", "adj": hanson_toft_34(10)},
        ]
    elif workload == "extremal-ht34":
        items = [
            {"name": f"HT(3,4) n={n}", "op": "extremal", "adj": hanson_toft_34(n)}
            for n in (9, 10)
        ]
    elif workload == "enumerate-n8":
        return []
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if seed:
        rng.shuffle(items)
    return items


def operations_per_rep(workload: str, inputs: list) -> int:
    """Checked verdicts in one repetition, the base of the failed share."""
    return {
        "corpus-n8": 1 + len(inputs),  # the scan summary, one saturation record per graph
        "decide-ht34": len(inputs),
        "extremal-ht34": 4 * len(inputs),  # colouring, Lemma 1.2, min degree, Lemma 1.5
        "enumerate-n8": 8,  # one count per vertex number 1..8
    }[workload]
