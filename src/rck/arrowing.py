"""Exact decision procedure for clique arrowing of edge colorings.

Decides whether every k-edge coloring of a graph contains a monochromatic
K_{t_ell} in some color ell, by depth-first search over edge colorings that
keeps the feasible colors of every uncolored edge (forward checking),
branches on the edge with the fewest feasible colors, and breaks the
symmetries of equal targets and twin vertices.  Negative verdicts carry a
verified critical coloring as witness.
"""

from __future__ import annotations

from collections import namedtuple
from contextvars import ContextVar
from functools import cached_property

from .graph6 import parse_graph6, to_graph6
from .graphs import Graph, bits, mask_has_clique, twin_pairs

MAX_COLORS = 4


class NodeLimitExceeded(Exception):
    """Raised when the searches of a node_budget block pass its limit."""


class node_budget:
    """A block that charges every search started inside it to one node count.

    A search raises NodeLimitExceeded once the count passes limit, and each
    later one at its first node; None means no limit.  The innermost block
    governs, as with decimal.localcontext.  The block is its own ledger:
    nodes counts every node charged, the one past the limit included.  Its
    latest search is charged when the next one starts, so tick() counts
    that search's nodes only.
    """

    def __init__(self, limit: int | None):
        self.limit, self.spent, self.last = limit, 0, None

    def __enter__(self) -> "node_budget":
        self.token = _budget.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _budget.reset(self.token)

    def start(self, search) -> int | None:
        self.spent = self.nodes
        self.last = search
        return None if self.limit is None else self.limit - self.spent

    @property
    def nodes(self) -> int:
        """Every node charged so far, the running search's included."""
        return self.spent + (0 if self.last is None else self.last.nodes)


_budget: ContextVar[node_budget | None] = ContextVar("node_budget", default=None)


class CliqueVector(namedtuple("CliqueVector", "sizes")):
    """Target clique sizes (t_1, ..., t_k), one per color, in color order."""

    __slots__ = ()

    def __new__(cls, sizes: tuple[int, ...]):
        if not 1 <= len(sizes) <= MAX_COLORS:
            raise ValueError(f"between 1 and {MAX_COLORS} colors supported")
        if any(t < 2 for t in sizes):
            raise ValueError("every clique target must be at least 2")
        return tuple.__new__(cls, (sizes,))

    @property
    def k(self) -> int:
        return len(self.sizes)

    def is_standard(self) -> bool:
        """True for the specs the paper's bounds cover: at least two colors
        and ascending targets, all at least 3."""
        sizes = self.sizes
        return self.k >= 2 and sizes[0] >= 3 and list(sizes) == sorted(sizes)

    def sorted(self) -> "CliqueVector":
        """The targets in ascending order; arrowing ignores their order."""
        return CliqueVector(tuple(sorted(self.sizes)))

    @classmethod
    def parse(cls, text: str) -> "CliqueVector":
        try:
            sizes = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad clique vector {text!r}") from exc
        return cls(sizes)

    def __str__(self) -> str:
        return ",".join(str(t) for t in self.sizes)


class EdgeColoring(namedtuple("EdgeColoring", "host colors k")):
    """Colors in 1..k for every edge of host, in lexicographic edge order.

    Keeps an instance dict, like Graph, for its cached color classes.
    """

    def __new__(cls, host: Graph, colors: tuple[int, ...], k: int):
        if len(colors) != host.edge_count:
            raise ValueError("one color per edge required")
        if any(not 1 <= c <= k for c in colors):
            raise ValueError(f"colors must lie in 1..{k}")
        return tuple.__new__(cls, (host, colors, k))

    def class_size(self, ell: int) -> int:
        return sum(1 for c in self.colors if c == ell)

    @cached_property
    def _class_adjs(self) -> tuple[tuple[int, ...], ...]:
        """The adjacency of every color class, indexed by color, in one pass."""
        adjs = [[0] * self.host.n for _ in range(self.k + 1)]
        for (u, v), c in zip(self.host.edges, self.colors):
            adj = adjs[c]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(map(tuple, adjs))

    def class_adj(self, ell: int) -> tuple[int, ...]:
        return self._class_adjs[ell]

    def word(self) -> str:
        return "".join(str(c) for c in self.colors)


class SearchStats(namedtuple("SearchStats", "nodes max_depth")):
    """Nodes a search visited and the deepest level it reached."""

    __slots__ = ()


class ArrowVerdict(namedtuple("ArrowVerdict", "arrows witness stats")):
    """arrows=None means the node budget ran out before a verdict; witness
    is the critical EdgeColoring of a False verdict, else None."""

    __slots__ = ()


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


# _RIVALS[k][ell] lists the colors 1..k other than ell; ell = 0 names no
# color, so _RIVALS[k][0] lists them all.
_RIVALS = [
    [tuple(c for c in range(1, k + 1) if c != ell) for ell in range(k + 1)]
    for k in range(MAX_COLORS + 1)
]


class _Search:
    """Backtracking state shared by the decision and optimum searches.

    Every uncolored edge keeps the colors that complete no monochromatic
    target clique (forward checking, Haralick & Elliott 1980), bit-parallel
    (San Segundo, Rodriguez-Losada & Jimenez 2011): bit i of can[ell] is set
    while edge i can take color ell, and bit i of can[0] while edge i is
    uncolored; a colored edge's stale bits are masked with can[0].  free[x]
    holds the vertices y for which xy is uncolored, so assign() scans only
    uncolored edges; it clears ell from the edges it newly blocks and
    reports a wipe-out, an uncolored edge left with no color.  unassign()
    reverts the edge's color, its color-class and free bits and the
    uncolored count; every node that branches copies can, k + 1 integers,
    first and restores it after each child.

    color_seed restricts edge 0 to the least color of each group of equal
    targets.  Colors with equal targets are interchangeable, so if any
    critical coloring exists, one gives edge 0 such a color.  The
    restriction is applied to can before the search starts, so it is
    sound under any branching order, whenever the edge is branched on, and
    restricted and unrestricted searches agree on the verdict.

    twins adds a lex-leader constraint for each pair (a, b) of
    graphs.twin_pairs(g) (Crawford, Ginsberg, Luks & Roy 1996; Codish,
    Miller, Prosser & Stuckey 2019): the color word must be at most its
    image under the swap of a and b, which exchanges the edges ax and bx for
    each other neighbor x of a.  Every orbit of critical colorings under the
    automorphisms keeps its least word, so verdicts and class-size optima
    are unchanged; assign() reports a broken constraint as a wipe-out.  It
    walks a constraint only once the edge that the swap exchanges with the
    new one is colored too; until then the walk cannot fail.
    """

    __slots__ = (
        "n", "edges", "m", "k", "targets", "adjc", "colors", "uncolored",
        "nodes", "max_depth", "limit", "can", "rivals", "ebit", "free", "lex",
    )

    def __init__(self, g, spec, *, color_seed=False, twins=False):
        self.n = g.n
        self.edges = g.edges
        self.m = len(self.edges)
        self.k = spec.k
        self.targets = spec.sizes
        self.rivals = _RIVALS[self.k]
        self.adjc = [[0] * self.n for _ in range(self.k + 1)]
        self.colors = [0] * self.m
        self.uncolored = self.m
        self.nodes = 0
        self.max_depth = 0
        budget = _budget.get()
        self.limit = None if budget is None else budget.start(self)
        # free[x]: the vertices y for which xy is an uncolored edge.
        self.free = list(g.adj)
        # ebit[u][v] is the bit of edge uv in the edge masks.
        self.ebit = [[0] * self.n for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            self.ebit[u][v] = self.ebit[v][u] = 1 << i
        # An empty coloring completes no clique of size >= 3; only a K_2
        # target forbids its color outright.
        self.can = [(1 << self.m) - 1] * (self.k + 1)
        for ell, t in enumerate(spec.sizes, start=1):
            if t == 2:
                self.can[ell] = 0
            elif color_seed and t in spec.sizes[: ell - 1]:
                self.can[ell] &= ~1
        # lex[i] lists, for each twin swap that moves edge i, the moved edge
        # pairs (ax, bx) by increasing x, and the edge the swap exchanges
        # with i.  Both edges of a pair sort by their other endpoint x, so
        # the pairs are in edge order.
        self.lex = None
        twin_list = twin_pairs(g) if twins else []
        if twin_list:
            self.lex = [[] for _ in range(self.m)]
            for a, b in twin_list:
                row_a, row_b = self.ebit[a], self.ebit[b]
                others = g.adj[a] & ~(1 << b)
                pairs = tuple(
                    (row_a[x].bit_length() - 1, row_b[x].bit_length() - 1)
                    for x in bits(others)
                )
                for i, j in pairs:
                    self.lex[i].append((pairs, j))
                    self.lex[j].append((pairs, i))

    def select(self) -> int:
        """Uncolored edge with the fewest feasible colors, lowest index on ties.

        Call only while some edge is uncolored.  An edge with a single
        feasible color is thereby colored next.  An edge with no color,
        which only the root can hold (every target 2), ties with those that
        have one; it has no child.
        """
        can = self.can
        x = can[0]
        if self.k == 2:
            x = x & ~(can[1] & can[2]) or x
        else:
            # at_least[j]: the uncolored edges with j or more colors left.
            at_least = [x] + [0] * self.k
            for c in can[1:]:
                for j in range(self.k, 0, -1):
                    at_least[j] |= at_least[j - 1] & c
            x = next((x ^ fuller for fuller in at_least[2:] if x ^ fuller), x)
        return (x & -x).bit_length() - 1

    def _block(self, live: int, a, pairs: int, x: int, within: int, need: int) -> int:
        """The edges of live, among the xy with y in pairs, that would close a
        K_{t_ell} through the new edge uv of color ell.  within holds the
        vertices joined in color ell to u, v and x, so the other need
        vertices of such a clique lie in within & a[y]; with need <= 0 every
        such edge closes one."""
        row = self.ebit[x]
        blocked = 0
        if need <= 0:
            while pairs:
                low = pairs & -pairs
                blocked |= row[low.bit_length() - 1]
                pairs ^= low
            return blocked & live
        while pairs:
            low = pairs & -pairs
            y = low.bit_length() - 1
            pairs ^= low
            b = row[y]
            if live & b and (
                within & a[y] if need == 1 else mask_has_clique(a, within & a[y], need)
            ):
                blocked |= b
        return blocked

    def assign(self, i: int, ell: int) -> bool:
        """Color edge i with ell and forward-check; True on a wipe-out.

        Only two kinds of uncolored edge xy can gain a K_{t_ell} through the
        new edge uv: those sharing an endpoint with it (x = u and vy already
        in color ell, or the reverse), and for t_ell >= 4 those inside the
        common ell-neighborhood of u and v.  Each scan visits only the
        uncolored edges, through free, and only edges that can still take
        ell are tested, so a colored edge never pays a clique test.  Then
        each lex-leader constraint on edge i is checked.
        """
        u, v = self.edges[i]
        can = self.can
        can[0] ^= 1 << i
        self.colors[i] = ell
        self.uncolored -= 1
        bu = 1 << u
        bv = 1 << v
        free = self.free
        free[u] ^= bv
        free[v] ^= bu
        a = self.adjc[ell]
        a[u] |= bv
        a[v] |= bu
        need = self.targets[ell - 1] - 3
        common = a[u] & a[v]
        live = can[ell] & can[0]
        blocked = 0
        pairs = a[v] & free[u]
        if pairs:
            blocked = self._block(live, a, pairs, u, common, need)
        pairs = a[u] & free[v]
        if pairs:
            blocked |= self._block(live, a, pairs, v, common, need)
        if need >= 1:
            rest = common
            while rest:
                low = rest & -rest
                x = low.bit_length() - 1
                rest ^= low
                pairs = rest & free[x]
                if pairs:
                    blocked |= self._block(live, a, pairs, x, common & a[x], need - 1)
        if blocked:
            can[ell] ^= blocked
            for c in self.rivals[ell]:
                blocked &= ~can[c]
            if blocked:
                return True
        return self.lex is not None and self._breaks_lex_order(i)

    def _breaks_lex_order(self, i: int) -> bool:
        """True iff the colors decided so far break a constraint moving edge i.

        The first moved pair whose colors differ decides the comparison, so
        each walk stops at the first pair that is undecided or unequal.  A
        constraint whose partner, the edge it exchanges with i, is still
        uncolored is skipped.  The pairs before i's pair did not change, and
        searches continue only from states where no walk failed, so those
        pairs break nothing; at i's pair one color is now decided and the
        other is not, so the walk would stop there without a violation.
        """
        colors = self.colors
        for pairs, partner in self.lex[i]:
            if not colors[partner]:
                continue
            for p, q in pairs:
                cp = colors[p]
                cq = colors[q]
                if cp != cq:
                    if cp > cq > 0:
                        return True
                    break
                if not cp:
                    break
        return False

    def unassign(self, i: int) -> None:
        """Uncolor edge i; the caller restores can."""
        ell = self.colors[i]
        u, v = self.edges[i]
        self.colors[i] = 0
        self.uncolored += 1
        bu = 1 << u
        bv = 1 << v
        free = self.free
        free[u] ^= bv
        free[v] ^= bu
        a = self.adjc[ell]
        a[u] ^= bv
        a[v] ^= bu

    def tick(self) -> None:
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise NodeLimitExceeded
        depth = self.m - self.uncolored
        if depth > self.max_depth:
            self.max_depth = depth

    def decide(self) -> tuple[int, ...] | None:
        """First critical coloring found, as a color word, or None.

        Branches on select()'s edge, colors in ascending order, and skips a
        child whose assignment wipes out an edge.
        """
        self.tick()
        if self.uncolored == 0:
            return tuple(self.colors)
        i = self.select()
        can = self.can
        saved = can[:]
        for ell in self.rivals[0]:
            if saved[ell] >> i & 1:
                word = None if self.assign(i, ell) else self.decide()
                self.unassign(i)
                can[:] = saved
                if word is not None:
                    return word
        return None

    def optimum(self, color: int, maximizing: bool) -> tuple[int, ...] | None:
        """Critical color word with the extreme number of color edges, or None.

        Branch and bound over decide()'s branching.  The bound counts the
        uncolored edges that can still take color (maximizing) or nothing
        else (minimizing); feasible colors only shrink along a branch, so
        the bound is admissible.
        """
        others = self.rivals[color]
        order = (color, *others) if maximizing else (*others, color)
        excluded = () if maximizing else others
        can = self.can
        best_value = -1 if maximizing else self.m + 1
        best_word: tuple[int, ...] | None = None

        def explore(count: int) -> None:
            nonlocal best_value, best_word
            self.tick()
            if best_word is not None:
                reach = can[color] & can[0]
                for c in excluded:
                    reach &= ~can[c]
                bound = count + reach.bit_count()
                if (bound <= best_value) if maximizing else (bound >= best_value):
                    return
            if self.uncolored == 0:
                best_value = count
                best_word = tuple(self.colors)
                return
            i = self.select()
            saved = can[:]
            for ell in order:
                if saved[ell] >> i & 1:
                    if not self.assign(i, ell):
                        explore(count + (ell == color))
                    self.unassign(i)
                    can[:] = saved

        explore(0)
        return best_word


def arrows(g: Graph, spec: CliqueVector, *, workers: int = 1) -> ArrowVerdict:
    """Decide whether every spec.k-edge coloring of g has a monochromatic target.

    One search decides; when it runs out of the enclosing node_budget the
    verdict is indeterminate (arrows None, no witness).  The witness is the
    first critical coloring found and is re-verified before returning.  The
    search keeps the color seed and the twin lex-leader constraints, which
    change the witness and the node count but never the verdict.  workers
    is accepted for compatibility and unused.
    """
    s = _Search(g, spec, color_seed=True, twins=True)
    try:
        word = s.decide()
    except NodeLimitExceeded:
        return ArrowVerdict(None, None, SearchStats(s.nodes, s.max_depth))
    stats = SearchStats(s.nodes, s.max_depth)
    if word is None:
        return ArrowVerdict(True, None, stats)
    witness = EdgeColoring(g, word, spec.k)
    if not is_critical(g, witness, spec):
        raise AssertionError("search produced an invalid witness")
    return ArrowVerdict(False, witness, stats)


def extremal_critical_coloring(
    g: Graph, spec: CliqueVector, color: int, mode: str = "max"
) -> EdgeColoring | None:
    """Critical coloring attaining the exact optimum of |E_color|, or None.

    mode "max" maximizes and "min" minimizes the size of that color class
    over all critical colorings.  The search keeps the twin lex-leader
    constraints, since vertex automorphisms preserve class sizes, but not
    the color seed: color swaps do not preserve the objective.  The coloring
    is re-verified before returning.  Raises NodeLimitExceeded when the
    search runs out of the enclosing node_budget; an optimum is never
    guessed.
    """
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")
    if not 1 <= color <= spec.k:
        raise ValueError(f"objective color {color} outside 1..{spec.k}")
    word = _Search(g, spec, twins=True).optimum(color, mode == "max")
    if word is None:
        return None
    coloring = EdgeColoring(g, word, spec.k)
    if not is_critical(g, coloring, spec):
        raise AssertionError("search produced an invalid extremal coloring")
    return coloring


def serialize_coloring(coloring: EdgeColoring) -> str:
    """Two lines: the graph6 of the host, then the color word."""
    return to_graph6(coloring.host) + "\n" + coloring.word() + "\n"


def parse_coloring(text: str, k: int) -> EdgeColoring:
    """The k-coloring serialize_coloring wrote; the text does not record k.
    An edgeless host has an empty color word, so its second line is empty."""
    lines = text.split("\n")
    if len(lines) != 3 or lines[2]:
        raise ValueError("expected a graph6 line followed by a color line")
    host = parse_graph6(lines[0])
    digits = lines[1]
    if digits.strip("0123456789") or len(digits) != host.edge_count:
        raise ValueError("the color word needs one ASCII digit per edge")
    colors = tuple(int(ch) for ch in digits)
    return EdgeColoring(host, colors, k)
