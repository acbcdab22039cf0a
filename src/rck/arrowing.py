"""Exact decision procedure for clique arrowing of edge colorings.

Decides whether every k-edge coloring of a graph contains a monochromatic
K_{t_ell} in some color ell, by depth-first search over edge colorings with
an incremental monochromatic-clique prune.  Negative verdicts carry a
verified critical coloring as witness.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .graphs import Edge, Graph, complete_graph, mask_has_clique

MAX_COLORS = 4
ENUMERATION_EDGE_LIMIT = 40
SPLIT_EDGE_THRESHOLD = 20
DEFAULT_SPLIT_DEPTH = 2

# Ramsey numbers small enough to re-prove by search.  arrows() treats a value
# only as a hint: it certifies a supergraph of K_r after a search in the same
# process has proved that K_r itself arrows.
VERIFIED_RAMSEY = {(3, 3): 6, (3, 4): 9}


class NodeLimitExceeded(Exception):
    """Raised internally when a search exceeds its node budget."""


@dataclass(frozen=True)
class CliqueVector:
    """Target clique sizes (t_1, ..., t_k), one per color, in color order."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= len(self.sizes) <= MAX_COLORS:
            raise ValueError(f"between 1 and {MAX_COLORS} colors supported")
        if any(t < 2 for t in self.sizes):
            raise ValueError("every clique target must be at least 2")

    @property
    def k(self) -> int:
        return len(self.sizes)

    def is_ascending(self) -> bool:
        return all(a <= b for a, b in zip(self.sizes, self.sizes[1:]))

    def drop_first(self) -> "CliqueVector":
        if self.k < 2:
            raise ValueError("cannot drop the only color")
        return CliqueVector(self.sizes[1:])

    @classmethod
    def parse(cls, text: str) -> "CliqueVector":
        try:
            sizes = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad clique vector {text!r}") from exc
        return cls(sizes)

    def __str__(self) -> str:
        return ",".join(str(t) for t in self.sizes)


@dataclass(frozen=True)
class EdgeColoring:
    """Colors in 1..k for every edge of host, in lexicographic edge order."""

    host: Graph
    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if len(self.colors) != self.host.edge_count:
            raise ValueError("one color per edge required")
        if any(not 1 <= c <= self.k for c in self.colors):
            raise ValueError(f"colors must lie in 1..{self.k}")

    def edges(self) -> list[Edge]:
        return self.host.edges()

    def color_class(self, ell: int) -> Graph:
        """Spanning subgraph whose edges are exactly those of color ell."""
        return Graph(self.host.n, tuple(self.class_adj(ell)))

    def class_size(self, ell: int) -> int:
        return sum(1 for c in self.colors if c == ell)

    def class_adj(self, ell: int) -> list[int]:
        adj = [0] * self.host.n
        for (u, v), c in zip(self.host.edges(), self.colors):
            if c == ell:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        return adj

    def word(self) -> str:
        return "".join(str(c) for c in self.colors)


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    max_depth: int
    wall_time: float


@dataclass(frozen=True)
class ArrowVerdict:
    """arrows=None means the node budget ran out before a verdict."""

    arrows: bool | None
    witness: EdgeColoring | None
    stats: SearchStats

    @property
    def indeterminate(self) -> bool:
        return self.arrows is None


def is_critical(g: Graph, coloring: EdgeColoring, spec: CliqueVector) -> bool:
    """True iff no color class ell contains a K_{t_ell}."""
    if coloring.host != g:
        raise ValueError("coloring does not color the edges of this graph")
    if coloring.k != spec.k:
        raise ValueError(
            f"coloring uses {coloring.k} colors but the spec has {spec.k}"
        )
    full = g.full_mask
    for ell, t in enumerate(spec.sizes, start=1):
        adj = coloring.class_adj(ell)
        if mask_has_clique(adj, full, t):
            return False
    return True


def symmetry_breaking_seed(
    g: Graph, spec: CliqueVector
) -> list[tuple[Edge, tuple[int, ...]]]:
    """Forced color domains for the first branching edge.

    Colors with equal clique targets are interchangeable, so the first edge
    only needs the least color of each target group.  On complete graphs all
    first edges are equivalent, so (0, 1) is pinned even without a color
    restriction.  Restricted and unrestricted searches agree on the verdict.
    """
    edges = g.edges()
    if not edges:
        return []
    reps: list[int] = []
    seen: set[int] = set()
    for ell, t in enumerate(spec.sizes, start=1):
        if t not in seen:
            seen.add(t)
            reps.append(ell)
    if len(reps) < spec.k:
        return [(edges[0], tuple(reps))]
    if g.is_complete():
        return [(edges[0], tuple(range(1, spec.k + 1)))]
    return []


class _Search:
    """Mutable backtracking state shared by the decision and optimum searches."""

    __slots__ = (
        "n", "edges", "m", "k", "targets", "adjc", "colors", "uncolored",
        "nodes", "max_depth", "node_limit", "seed",
    )

    def __init__(self, g, spec, seed=None, node_limit=None):
        self.n = g.n
        self.edges = g.edges()
        self.m = len(self.edges)
        self.k = spec.k
        self.targets = spec.sizes
        self.adjc = [[0] * self.n for _ in range(self.k + 1)]
        self.colors = [0] * self.m
        self.uncolored = self.m
        self.nodes = 0
        self.max_depth = 0
        self.node_limit = node_limit
        self.seed = dict(seed) if seed else {}

    def select(self) -> int:
        """Uncolored edge with the largest monochromatic common neighborhood.

        Ties break to the lexicographically least edge.  Any monochromatic
        clique created later must pass through some newly colored edge, so
        the most constrained edge first keeps the tree shallow.
        """
        best_i = -1
        best_score = -1
        adjc = self.adjc
        colors = self.colors
        for i, (u, v) in enumerate(self.edges):
            if colors[i]:
                continue
            score = 0
            for ell in range(1, self.k + 1):
                a = adjc[ell]
                s = (a[u] & a[v]).bit_count()
                if s > score:
                    score = s
            if score > best_score:
                best_score = score
                best_i = i
        return best_i

    def completes_clique(self, ell: int, u: int, v: int) -> bool:
        """Would coloring uv with ell create a K_{t_ell} in class ell?

        Complete as a prune: a new monochromatic clique must contain the new
        edge, so only the common neighborhood of its endpoints matters.
        """
        a = self.adjc[ell]
        need = self.targets[ell - 1] - 2
        if need <= 0:
            return True
        common = a[u] & a[v]
        if need == 1:
            return common != 0
        if need == 2:
            m = common
            while m:
                low = m & -m
                w = low.bit_length() - 1
                m ^= low
                if a[w] & m:
                    return True
            return False
        return mask_has_clique(a, common, need)

    def assign(self, i: int, ell: int) -> None:
        u, v = self.edges[i]
        self.colors[i] = ell
        a = self.adjc[ell]
        a[u] |= 1 << v
        a[v] |= 1 << u
        self.uncolored -= 1

    def unassign(self, i: int) -> None:
        ell = self.colors[i]
        u, v = self.edges[i]
        self.colors[i] = 0
        a = self.adjc[ell]
        a[u] &= ~(1 << v)
        a[v] &= ~(1 << u)
        self.uncolored += 1

    def allowed_colors(self, i: int):
        allowed = self.seed.get(self.edges[i])
        return allowed if allowed is not None else range(1, self.k + 1)

    def tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise NodeLimitExceeded
        depth = self.m - self.uncolored
        if depth > self.max_depth:
            self.max_depth = depth

    def decide(self) -> tuple[int, ...] | None:
        """First critical coloring found, as a color word, or None."""
        self.tick()
        if self.uncolored == 0:
            return tuple(self.colors)
        i = self.select()
        u, v = self.edges[i]
        for ell in self.allowed_colors(i):
            if not self.completes_clique(ell, u, v):
                self.assign(i, ell)
                word = self.decide()
                self.unassign(i)
                if word is not None:
                    return word
        return None


def _expand_prefixes(g, spec, seed, depth):
    """Assignment prefixes covering the top of the search tree, in DFS order.

    Returns (prefixes, completed_words): a prefix that colored every edge is
    already a critical coloring and is reported separately.
    """
    prefixes: list[list[tuple[int, int]]] = [[]]
    completed: list[tuple[int, ...]] = []
    for _ in range(depth):
        nxt: list[list[tuple[int, int]]] = []
        for prefix in prefixes:
            s = _Search(g, spec, seed)
            for i, ell in prefix:
                s.assign(i, ell)
            if s.uncolored == 0:
                completed.append(tuple(s.colors))
                continue
            i = s.select()
            u, v = s.edges[i]
            for ell in s.allowed_colors(i):
                if not s.completes_clique(ell, u, v):
                    nxt.append(prefix + [(i, ell)])
        prefixes = nxt
    return prefixes, completed


def _solve_decision_subproblem(args):
    g, spec, seed_items, prefix, node_limit = args
    s = _Search(g, spec, dict(seed_items), node_limit)
    for i, ell in prefix:
        s.assign(i, ell)
    try:
        word = s.decide()
        return word, s.nodes, s.max_depth, False
    except NodeLimitExceeded:
        return None, s.nodes, s.max_depth, True


def _default_split_depth(g: Graph) -> int:
    return DEFAULT_SPLIT_DEPTH if g.edge_count > SPLIT_EDGE_THRESHOLD else 0


def _search_verdict(g, spec, workers, node_limit, split_depth, symmetry_breaking, t0):
    seed = dict(symmetry_breaking_seed(g, spec)) if symmetry_breaking else {}

    if split_depth <= 0:
        word, nodes, max_depth, limited = _solve_decision_subproblem(
            (g, spec, tuple(seed.items()), (), node_limit)
        )
        words = [word] if word is not None else []
    else:
        prefixes, completed = _expand_prefixes(g, spec, seed, split_depth)
        jobs = [
            (g, spec, tuple(seed.items()), tuple(p), node_limit) for p in prefixes
        ]
        if workers > 1 and len(jobs) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_solve_decision_subproblem, jobs))
        else:
            results = [_solve_decision_subproblem(job) for job in jobs]
        words = list(completed) + [w for w, _, _, _ in results if w is not None]
        nodes = sum(r[1] for r in results)
        max_depth = max((r[2] for r in results), default=0)
        limited = any(r[3] for r in results)

    stats = SearchStats(nodes, max_depth, time.perf_counter() - t0)
    if words:
        witness = EdgeColoring(g, min(words), spec.k)
        if not is_critical(g, witness, spec):
            raise AssertionError("search produced an invalid witness")
        return ArrowVerdict(False, witness, stats)
    if limited:
        return ArrowVerdict(None, None, stats)
    return ArrowVerdict(True, None, stats)


# Determinate verdicts of arrows(K_r, spec) for r = VERIFIED_RAMSEY[spec.sizes],
# keyed by (spec.sizes, effective split depth, symmetry_breaking) because the
# node count depends on both.  Filled lazily by arrows(), never at import.
_RAMSEY_CLIQUE_VERDICTS: dict[tuple, ArrowVerdict] = {}


def _within_budget(verdict: ArrowVerdict, node_limit: int | None) -> bool:
    # A search under node_limit returns this verdict whenever it fits, so a
    # memoised result used under this test is what a fresh search would give.
    return node_limit is None or verdict.stats.nodes <= node_limit


def _has_clique_of_order(g: Graph, r: int) -> bool:
    """True iff g contains K_r; only vertices of degree >= r-1 can lie in one."""
    cand = 0
    for v, nbrs in enumerate(g.adj):
        if nbrs.bit_count() >= r - 1:
            cand |= 1 << v
    return cand.bit_count() >= r and mask_has_clique(g.adj, cand, r)


def arrows(
    g: Graph,
    spec: CliqueVector,
    *,
    workers: int = 1,
    node_limit: int | None = None,
    split_depth: int | None = None,
    symmetry_breaking: bool = True,
) -> ArrowVerdict:
    """Decide whether every spec.k-edge coloring of g has a monochromatic target.

    The top split_depth levels of the tree become independent subproblems
    (default 2 when the graph has more than 20 edges, else 0); each runs to
    completion, so verdict, witness, and statistics do not depend on the
    worker count.  The witness is the lexicographically least color word
    among the subproblem witnesses and is re-verified before returning.

    Monotonicity certificate: arrowing is preserved under supergraphs.  When
    VERIFIED_RAMSEY holds a hint r for spec and g has more than r vertices
    and contains K_r, the verdict for K_r is looked up in a per-process memo
    (filled by an ordinary search under the same node_limit when empty).  If
    that search proved K_r arrows within node_limit, g arrows, and the
    verdict reports 0 nodes.  A direct call on K_r returns its memoised
    verdict.  Either way the result depends only on the arguments, not on
    what ran earlier in the process.
    """
    t0 = time.perf_counter()
    if split_depth is None:
        split_depth = _default_split_depth(g)
    r = VERIFIED_RAMSEY.get(spec.sizes)
    if r is not None and g.n > r and _has_clique_of_order(g, r):
        # Read the memo directly: a stored proof over the budget must not
        # send a bounded search over K_r again.
        kr = complete_graph(r)
        proof_key = (spec.sizes, _default_split_depth(kr), True)
        proof = _RAMSEY_CLIQUE_VERDICTS.get(proof_key)
        if proof is None:
            proof = arrows(kr, spec, workers=workers, node_limit=node_limit)
        if proof.arrows is True and _within_budget(proof, node_limit):
            elapsed = time.perf_counter() - t0
            return ArrowVerdict(True, None, SearchStats(0, 0, elapsed))

    memo_key = None
    if r is not None and g.n == r and g.is_complete():
        memo_key = (spec.sizes, split_depth, symmetry_breaking)
        memo = _RAMSEY_CLIQUE_VERDICTS.get(memo_key)
        if memo is not None and _within_budget(memo, node_limit):
            elapsed = time.perf_counter() - t0
            return replace(memo, stats=replace(memo.stats, wall_time=elapsed))

    verdict = _search_verdict(
        g, spec, workers, node_limit, split_depth, symmetry_breaking, t0
    )
    if memo_key is not None and not verdict.indeterminate:
        _RAMSEY_CLIQUE_VERDICTS[memo_key] = verdict
    return verdict


def extremal_critical_coloring(
    g: Graph,
    spec: CliqueVector,
    color: int,
    mode: str = "max",
    *,
    node_limit: int | None = None,
) -> EdgeColoring | None:
    """Critical coloring attaining the exact optimum of |E_color|, or None.

    mode "max" maximizes and "min" minimizes the size of that color class
    over all critical colorings.  No symmetry breaking: color swaps do not
    preserve the objective.  Raises NodeLimitExceeded when a node budget is
    given and runs out; an optimum is never guessed.
    """
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")
    if not 1 <= color <= spec.k:
        raise ValueError(f"objective color {color} outside 1..{spec.k}")
    s = _Search(g, spec, None, node_limit)
    maximizing = mode == "max"
    if maximizing:
        color_order = [color] + [c for c in range(1, spec.k + 1) if c != color]
    else:
        color_order = [c for c in range(1, spec.k + 1) if c != color] + [color]

    best_value = -1 if maximizing else s.m + 1
    best_word: tuple[int, ...] | None = None
    edges = s.edges
    colors = s.colors

    def objective_bound(count: int) -> int:
        # Feasibility of the objective color is monotone along a branch, so
        # counting only currently feasible (or, minimizing, currently forced)
        # uncolored edges is admissible.
        total = count
        for i, (u, v) in enumerate(edges):
            if colors[i]:
                continue
            if maximizing:
                if not s.completes_clique(color, u, v):
                    total += 1
            else:
                forced = True
                for ell in range(1, s.k + 1):
                    if ell != color and not s.completes_clique(ell, u, v):
                        forced = False
                        break
                if forced:
                    total += 1
        return total

    def explore(count: int) -> None:
        nonlocal best_value, best_word
        s.tick()
        if best_word is not None:
            bound = objective_bound(count)
            if maximizing and bound <= best_value:
                return
            if not maximizing and bound >= best_value:
                return
        if s.uncolored == 0:
            if best_word is None or (count > best_value if maximizing else count < best_value):
                best_value = count
                best_word = tuple(colors)
            return
        i = s.select()
        u, v = edges[i]
        for ell in color_order:
            if not s.completes_clique(ell, u, v):
                s.assign(i, ell)
                explore(count + (ell == color))
                s.unassign(i)

    explore(0)
    if best_word is None:
        return None
    return EdgeColoring(g, best_word, spec.k)


def enumerate_critical_colorings(g: Graph, spec: CliqueVector, limit: int | None = None):
    """Yield distinct critical colorings in lexicographic color-word order.

    Without an explicit limit the host must have at most 40 edges.  The
    caller can detect possible truncation by receiving exactly limit items.
    """
    if limit is None and g.edge_count > ENUMERATION_EDGE_LIMIT:
        raise ValueError(
            f"more than {ENUMERATION_EDGE_LIMIT} edges requires an explicit limit"
        )
    s = _Search(g, spec)
    remaining = [limit]

    def gen(i: int):
        if remaining[0] is not None and remaining[0] <= 0:
            return
        if i == s.m:
            if remaining[0] is not None:
                remaining[0] -= 1
            yield EdgeColoring(g, tuple(s.colors), spec.k)
            return
        u, v = s.edges[i]
        for ell in range(1, s.k + 1):
            if not s.completes_clique(ell, u, v):
                s.assign(i, ell)
                yield from gen(i + 1)
                s.unassign(i)

    yield from gen(0)


def serialize_coloring(coloring: EdgeColoring) -> str:
    """Two lines: the graph6 of the host, then the color word."""
    from .graph6 import to_graph6

    return to_graph6(coloring.host) + "\n" + coloring.word() + "\n"


def parse_coloring(text: str, k: int | None = None) -> EdgeColoring:
    from .graph6 import parse_graph6

    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != 2:
        raise ValueError("expected a graph6 line followed by a color line")
    host = parse_graph6(lines[0])
    digits = lines[1].strip()
    if len(digits) != host.edge_count:
        raise ValueError("color word length does not match the edge count")
    colors = tuple(int(ch) for ch in digits)
    if k is None:
        k = max(colors, default=1)
    return EdgeColoring(host, colors, k)
