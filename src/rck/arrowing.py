"""Exact decision procedure for clique arrowing of edge colorings.

Decides whether every k-edge coloring of a graph contains a monochromatic
K_{t_ell} in some color ell, by depth-first search over edge colorings that
keeps a feasible-color mask per uncolored edge (forward checking) and
branches on the edge with the fewest feasible colors.  Negative verdicts
carry a verified critical coloring as witness.
"""

from __future__ import annotations

import time
from itertools import islice
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
    """Root restriction of the color mask of edge edges[0].

    Colors with equal clique targets are interchangeable, so if any
    critical coloring exists, one gives edges[0] the least color of its
    target group.  The restriction is applied to that edge's mask before the
    search starts, so it is sound under any branching order, whenever the
    edge is branched on.  Restricted and unrestricted searches agree on the
    verdict.
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
    return []


# dom[i] holds bit ell for each color ell that edge i can still take.  A
# colored edge holds _COLORED (bit 0 names no color), so it never counts as
# a feasible or forced edge and never wins select().  Every mask is below
# 2 << MAX_COLORS = 32, which the trail entries (j << 5 | mask) rely on.
_COLORED = 1
_DOMAIN_SIZE = [d.bit_count() for d in range(2 << MAX_COLORS)]
_DOMAIN_SIZE[_COLORED] = MAX_COLORS + 1
_DOMAIN_COLORS = [
    tuple(ell for ell in range(1, MAX_COLORS + 1) if d >> ell & 1)
    for d in range(2 << MAX_COLORS)
]


class _Search:
    """Backtracking state shared by the decision, optimum and enumeration searches.

    Every uncolored edge keeps the mask of colors that complete no
    monochromatic target clique and that the seed allows (forward checking,
    Haralick & Elliott 1980).  assign() removes the assigned color from the
    masks of the edges it newly blocks and reports a wipe-out, an uncolored
    edge left with an empty mask; unassign() restores the masks from a trail.
    """

    __slots__ = (
        "n", "edges", "m", "k", "targets", "adjc", "colors", "uncolored",
        "nodes", "max_depth", "node_limit", "dom", "eid", "hadj", "trail",
        "marks",
    )

    def __init__(self, g, spec, seed=(), node_limit=None):
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
        self.hadj = g.adj
        self.eid = [[-1] * self.n for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            self.eid[u][v] = self.eid[v][u] = i
        # An empty coloring completes no clique of size >= 3; only a K_2
        # target forbids its color outright.
        full = 0
        for ell, t in enumerate(spec.sizes, start=1):
            if t > 2:
                full |= 1 << ell
        self.dom = [full] * self.m
        for (u, v), allowed in seed:
            restricted = 0
            for ell in allowed:
                restricted |= 1 << ell
            self.dom[self.eid[u][v]] &= restricted
        self.trail: list[int] = []
        self.marks: list[int] = []

    def select(self) -> int:
        """Uncolored edge with the fewest feasible colors, lowest index on ties.

        Call only while some edge is uncolored.  An edge with a single
        feasible color is thereby colored next.  An empty mask, which only
        the root can hold (every target 2), is chosen first and has no child.
        """
        best_i = -1
        best_size = MAX_COLORS + 1
        for i, d in enumerate(self.dom):
            size = _DOMAIN_SIZE[d]
            if size < best_size:
                best_i = i
                best_size = size
                if size <= 1:
                    break
        return best_i

    def _block(self, ell: int, a, pairs: int, x: int, within: int, need: int) -> bool:
        """Drop ell from each uncolored edge xy, y in pairs, that would close
        a K_{t_ell} through the new edge uv.  within holds the vertices
        joined in color ell to u, v and x, so the other need vertices of
        such a clique lie in within & a[y].  True on a wipe-out."""
        bit = 1 << ell
        row = self.eid[x]
        dom = self.dom
        wiped = False
        while pairs:
            low = pairs & -pairs
            y = low.bit_length() - 1
            pairs ^= low
            j = row[y]
            d = dom[j]
            if d & bit and (need <= 0 or mask_has_clique(a, within & a[y], need)):
                self.trail.append(j << 5 | d)
                dom[j] = d ^ bit
                if d == bit:
                    wiped = True
        return wiped

    def assign(self, i: int, ell: int) -> bool:
        """Color edge i with ell and forward-check; True on a wipe-out.

        Only two kinds of uncolored edge xy can gain a K_{t_ell} through the
        new edge uv: those sharing an endpoint with it (x = u and vy already
        in color ell, or the reverse), and for t_ell >= 4 those inside the
        common ell-neighborhood of u and v.
        """
        u, v = self.edges[i]
        dom = self.dom
        self.marks.append(len(self.trail))
        self.trail.append(i << 5 | dom[i])
        dom[i] = _COLORED
        self.colors[i] = ell
        self.uncolored -= 1
        a = self.adjc[ell]
        a[u] |= 1 << v
        a[v] |= 1 << u
        need = self.targets[ell - 1] - 3
        common = a[u] & a[v]
        hadj = self.hadj
        wiped = self._block(ell, a, a[v] & hadj[u], u, common, need)
        wiped |= self._block(ell, a, a[u] & hadj[v], v, common, need)
        if need >= 1:
            rest = common
            while rest:
                low = rest & -rest
                x = low.bit_length() - 1
                rest ^= low
                pairs = rest & hadj[x]
                if pairs:
                    wiped |= self._block(ell, a, pairs, x, common & a[x], need - 1)
        return wiped

    def unassign(self, i: int) -> None:
        """Undo the latest assign(), which must have colored edge i."""
        ell = self.colors[i]
        u, v = self.edges[i]
        self.colors[i] = 0
        self.uncolored += 1
        a = self.adjc[ell]
        a[u] &= ~(1 << v)
        a[v] &= ~(1 << u)
        mark = self.marks.pop()
        trail = self.trail
        dom = self.dom
        for e in trail[mark:]:
            dom[e >> 5] = e & 31
        del trail[mark:]

    def tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise NodeLimitExceeded
        depth = self.m - self.uncolored
        if depth > self.max_depth:
            self.max_depth = depth

    def decide(self) -> tuple[int, ...] | None:
        """First critical coloring found, as a color word, or None.

        Branches on select()'s edge, colors in ascending order, and skips a
        child whose assignment wipes out a mask.
        """
        self.tick()
        if self.uncolored == 0:
            return tuple(self.colors)
        i = self.select()
        for ell in _DOMAIN_COLORS[self.dom[i]]:
            word = None if self.assign(i, ell) else self.decide()
            self.unassign(i)
            if word is not None:
                return word
        return None

    def split(self, depth: int):
        """The top depth levels of decide()'s tree, walked without ticking.

        Returns (prefixes, completed) in DFS order: the assignment sequence
        of every open node at that depth, and the words colored completely
        above it.  Replaying a prefix with assign() rebuilds the same masks,
        so each subproblem continues exactly as decide() would.
        """
        prefixes: list[tuple[tuple[int, int], ...]] = []
        completed: list[tuple[int, ...]] = []
        path: list[tuple[int, int]] = []

        def down(level: int) -> None:
            if self.uncolored == 0:
                completed.append(tuple(self.colors))
                return
            if level == depth:
                prefixes.append(tuple(path))
                return
            i = self.select()
            for ell in _DOMAIN_COLORS[self.dom[i]]:
                if not self.assign(i, ell):
                    path.append((i, ell))
                    down(level + 1)
                    path.pop()
                self.unassign(i)

        down(0)
        return prefixes, completed

    def optimum(self, color: int, maximizing: bool) -> tuple[int, ...] | None:
        """Critical color word with the extreme number of color edges, or None.

        Branch and bound over decide()'s branching.  The bound counts the
        uncolored edges whose mask still holds color (maximizing) or holds
        nothing else (minimizing); masks only shrink along a branch, so the
        bound is admissible.
        """
        others = [c for c in range(1, self.k + 1) if c != color]
        order = [color] + others if maximizing else others + [color]
        # The masks that still hold color; counting each is cheaper than
        # testing every mask for the bit.
        holding = [d for d in range(2, 2 << self.k, 2) if d >> color & 1]
        forced = 1 << color
        dom = self.dom
        best_value = -1 if maximizing else self.m + 1
        best_word: tuple[int, ...] | None = None

        def explore(count: int) -> None:
            nonlocal best_value, best_word
            self.tick()
            if best_word is not None:
                if maximizing:
                    if count + sum(map(dom.count, holding)) <= best_value:
                        return
                elif count + dom.count(forced) >= best_value:
                    return
            if self.uncolored == 0:
                best_value = count
                best_word = tuple(self.colors)
                return
            i = self.select()
            d = dom[i]
            for ell in order:
                if d >> ell & 1:
                    if not self.assign(i, ell):
                        explore(count + (ell == color))
                    self.unassign(i)

        explore(0)
        return best_word

    def critical_words(self):
        """Yield every critical color word in lexicographic order.

        Colors the edges in their static order and prunes only on wipe-out,
        so the output is the lexicographic list of all critical words.
        """
        dom = self.dom

        def gen(i: int):
            if i == self.m:
                yield tuple(self.colors)
                return
            for ell in _DOMAIN_COLORS[dom[i]]:
                if not self.assign(i, ell):
                    yield from gen(i + 1)
                self.unassign(i)

        yield from gen(0)


def ordered_map(fn, jobs: list, workers: int):
    """fn over jobs, with the results in input order.

    With fewer than two workers or two jobs this is the lazy built-in map,
    so a caller can stop at any result.  Otherwise a process pool runs the
    jobs in about eight chunks per worker, enough to balance uneven jobs
    while keeping the per-chunk hand-over rare, and every result is ready
    on return.  A job that raises stops the map and cancels the chunks not
    yet started.
    """
    if workers < 2 or len(jobs) < 2:
        return map(fn, jobs)
    chunksize = max(1, len(jobs) // (8 * workers))
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(fn, jobs, chunksize=chunksize))
    finally:
        pool.shutdown(cancel_futures=True)


def _solve_decision_subproblem(args):
    g, spec, seed, prefix, node_limit = args
    s = _Search(g, spec, seed, node_limit)
    for i, ell in prefix:
        s.assign(i, ell)
    try:
        word = s.decide()
    except NodeLimitExceeded:
        word = None
    return word, s.nodes, s.max_depth


def _default_split_depth(g: Graph) -> int:
    return DEFAULT_SPLIT_DEPTH if g.edge_count > SPLIT_EDGE_THRESHOLD else 0


def _search_verdict(g, spec, workers, node_limit, split_depth, symmetry_breaking, t0):
    """Run the subproblems and sum their nodes in input order.

    Each subproblem runs under the whole node_limit, so its count up to the
    limit does not depend on the worker count.  The verdict is indeterminate
    as soon as the running sum passes the limit, witness or not.
    """
    seed = symmetry_breaking_seed(g, spec) if symmetry_breaking else []
    if split_depth <= 0:
        prefixes, words = [()], []
    else:
        prefixes, words = _Search(g, spec, seed).split(split_depth)
    jobs = [(g, spec, seed, p, node_limit) for p in prefixes]
    results = ordered_map(_solve_decision_subproblem, jobs, workers)
    nodes = max_depth = 0
    limited = False
    for word, sub_nodes, sub_depth in results:
        nodes += sub_nodes
        max_depth = max(max_depth, sub_depth)
        if node_limit is not None and nodes > node_limit:
            limited = True
            break
        if word is not None:
            words.append(word)

    stats = SearchStats(nodes, max_depth, time.perf_counter() - t0)
    if limited:
        return ArrowVerdict(None, None, stats)
    if words:
        witness = EdgeColoring(g, min(words), spec.k)
        if not is_critical(g, witness, spec):
            raise AssertionError("search produced an invalid witness")
        return ArrowVerdict(False, witness, stats)
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
    node_limit bounds the nodes of all subproblems together: past it the
    verdict is indeterminate.

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
        proof = _RAMSEY_CLIQUE_VERDICTS.get((spec.sizes, _default_split_depth(kr), True))
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
    word = _Search(g, spec, (), node_limit).optimum(color, mode == "max")
    return None if word is None else EdgeColoring(g, word, spec.k)


def enumerate_critical_colorings(g: Graph, spec: CliqueVector, limit: int | None = None):
    """Yield distinct critical colorings in lexicographic color-word order.

    Without an explicit limit the host must have at most 40 edges.  The
    caller can detect possible truncation by receiving exactly limit items.
    """
    if limit is None and g.edge_count > ENUMERATION_EDGE_LIMIT:
        raise ValueError(
            f"more than {ENUMERATION_EDGE_LIMIT} edges requires an explicit limit"
        )
    for word in islice(_Search(g, spec).critical_words(), limit):
        yield EdgeColoring(g, word, spec.k)


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
