"""Co-criticality decisions and the structural property suite.

A non-complete graph is co-critical for a clique vector when it admits a
critical coloring but gains an unavoidable monochromatic clique upon the
addition of any single non-edge.  The checkers here test, on real critical
colorings, the structural facts that every co-critical graph must satisfy:
the chromatic lower bound, the per-vertex neighborhood clique structure,
and the minimum-degree bounds.  A failed finding on a genuinely co-critical
input is a build-breaking bug, not a discovery to report quietly.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .arrowing import (
    CliqueVector,
    EdgeColoring,
    NodeLimitExceeded,
    arrows,
    extremal_critical_coloring,
    is_critical,
)
from .constructions import (
    NONSTANDARD_SPEC,
    hanson_toft_edge_count,
    holds_ramsey_clique,
    known_ramsey,
    sharp_mindeg_bound,
)
from .graphs import (
    Edge,
    Graph,
    add_edge,
    bits,
    chromatic_number,
    degree_stats,
    delete_vertex,
    first_free_non_edge,
    is_complete_multipartite,
    mask_has_clique,
    CHROMATIC_MAX_VERTICES,
    _max_clique,
)


class CocriticalReport(
    namedtuple(
        "CocriticalReport",
        "is_cocritical failing_edge base_witness delta chi ht_bound meets_ht nodes",
    )
):
    """Per-graph verdict bundle; is_cocritical None means budget ran out.
    failing_edge and base_witness may be None.  delta, chi and ht_bound
    (graph_facts) and meets_ht (meets_hanson_toft) are set for a co-critical
    verdict only and are None otherwise; chi, ht_bound and meets_ht may be
    None even then.  nodes counts the verdict's searches only, not a later
    lemma suite."""

    __slots__ = ()


class LemmaFinding(
    namedtuple("LemmaFinding", "clause holds vacuous context", defaults=(False, None))
):
    """Outcome of one structural check; holds must be True on valid input.
    context is a dict of ints and bools, or None."""

    __slots__ = ()


def graph_facts(g: Graph, spec: CliqueVector) -> tuple[int, int | None, int | None]:
    """(delta, chi, Hanson-Toft edge bound) of g, as every record reports them.

    chi is None past CHROMATIC_MAX_VERTICES.  The bound is None when r(spec)
    is unknown or n < r, since no graph on fewer than r vertices is
    co-critical.
    """
    chi = chromatic_number(g) if g.n <= CHROMATIC_MAX_VERTICES else None
    r = known_ramsey(spec)
    ht_bound = None
    if r is not None and g.n >= r:
        ht_bound = hanson_toft_edge_count(r, g.n)
    return degree_stats(g)[0], chi, ht_bound


def meets_hanson_toft(g: Graph, ht_bound: int | None) -> bool | None:
    """Whether g has at least ht_bound edges; None when there is no bound."""
    return None if ht_bound is None else g.edge_count >= ht_bound


def is_cocritical(g: Graph, spec: CliqueVector, *, workers: int = 1) -> CocriticalReport:
    """Definitional co-criticality check.

    The base graph must be non-complete and admit a critical coloring, and
    every single-non-edge extension must not.  failing_edge is the least
    refuting non-edge; a complete graph is reported not co-critical with
    no failing edge and no search.

    The K_r rule (holds_ramsey_clique) settles, without search, a base graph
    that contains K_r for a verified r = r(spec) (it arrows, so it is not
    co-critical) and every extension that closes such a K_r (it arrows).

    Witness-first refutation: the least non-edge e* whose extension the
    base witness refutes with one more colored edge is found without
    search, so only the non-edges before e* are searched, in lexicographic
    order, stopping at the first that does not arrow; if all of them arrow,
    e* is the failing edge.  All these searches draw on the enclosing
    node_budget; the verdict is None when it runs out, even after a
    witness was found.  workers is accepted for compatibility and unused.

    Only a co-critical report carries graph_facts and meets_hanson_toft, so
    chromatic_number runs for no other graph.
    """

    def report(verdict, failing=None, witness=None, nodes=0):
        facts = (None, None, None, None)
        if verdict:
            delta, chi, ht_bound = graph_facts(g, spec)
            facts = (delta, chi, ht_bound, meets_hanson_toft(g, ht_bound))
        return CocriticalReport(verdict, failing, witness, *facts, nodes)

    if g.is_complete() or holds_ramsey_clique(g, spec):
        return report(False)

    base = arrows(g, spec)
    nodes = base.stats.nodes
    verdict_value = None if base.arrows is None else not base.arrows
    failing: Edge | None = None
    if base.arrows is False:
        # Giving uv a color c keeps a critical coloring critical unless it
        # closes a monochromatic K_{t_c}, whose other t_c - 2 vertices lie in
        # the common c-neighborhood of u and v; a K_2 target is never free.
        non_edges = g.non_edges()
        classes = [
            (base.witness.class_adj(ell), t - 2)
            for ell, t in enumerate(spec.sizes, start=1)
        ]
        cut = first_free_non_edge(classes, non_edges)
        for e in non_edges[:cut]:
            if holds_ramsey_clique(g, spec, e):
                continue
            verdict = arrows(add_edge(g, e), spec)
            nodes += verdict.stats.nodes
            if verdict.arrows is not True:
                verdict_value = verdict.arrows
                if verdict.arrows is False:
                    failing = e
                break
        else:
            if cut < len(non_edges):
                verdict_value = False
                failing = non_edges[cut]

    return report(verdict_value, failing, base.witness if verdict_value else None, nodes)


def is_minimal_cocritical(
    g: Graph, spec: CliqueVector, *, report: CocriticalReport | None = None
) -> bool:
    """True iff deleting any single vertex destroys co-criticality; raises
    ValueError if g is not co-critical, NodeLimitExceeded if the budget runs out."""
    if report is None:
        report = is_cocritical(g, spec)
    if report.is_cocritical is None:
        raise NodeLimitExceeded
    if not report.is_cocritical:
        raise ValueError("minimality is only defined for co-critical graphs")
    for v in range(g.n):
        verdict = is_cocritical(delete_vertex(g, v), spec).is_cocritical
        if verdict is None:
            raise NodeLimitExceeded
        if verdict:
            return False
    return True


def check_lemma_1_2(g: Graph, spec: CliqueVector, r: int) -> LemmaFinding:
    """Chromatic bound: chi >= r-1, with equality only for complete
    (r-1)-partite graphs."""
    chi = chromatic_number(g)
    context: dict = {"chi": chi, "r": r}
    if chi < r - 1:
        return LemmaFinding("1.2", False, context=context)
    if chi == r - 1:
        multi, parts = is_complete_multipartite(g)
        context["complete_multipartite"] = multi
        context["parts"] = parts
        return LemmaFinding("1.2", multi and parts == r - 1, context=context)
    return LemmaFinding("1.2", True, context=context)


def _clique_masks(adj, within: int, size: int) -> list[int]:
    verts = list(bits(within))
    out = []
    for combo in combinations(verts, size):
        if all(adj[u] >> v & 1 for u, v in combinations(combo, 2)):
            mask = 0
            for v in combo:
                mask |= 1 << v
            out.append(mask)
    return out


def max_disjoint_cliques(adj, within: int, size: int) -> int:
    """Exact maximum number of vertex-disjoint size-cliques inside the mask."""
    if size <= 0:
        raise ValueError("clique size must be positive")
    if size == 1:
        return within.bit_count()
    cliques = _clique_masks(adj, within, size)

    def pack(start: int, used: int, count: int, best: int) -> int:
        if count > best:
            best = count
        if count + len(cliques) - start <= best:
            return best
        for j in range(start, len(cliques)):
            if cliques[j] & used == 0:
                best = pack(j + 1, used | cliques[j], count + 1, best)
        return best

    return pack(0, 0, 0, 0)


def _is_color_complete(adj_ell, from_mask: int, to_mask: int) -> bool:
    for v in bits(from_mask):
        if adj_ell[v] & to_mask != to_mask:
            return False
    return True


def check_lemma_1_5(
    g: Graph,
    spec: CliqueVector,
    *,
    coloring: EdgeColoring | None = None,
) -> list[LemmaFinding]:
    """Structural checks on the extremal critical coloring of a co-critical graph.

    The lemma is stated for a critical coloring with the largest last color
    class, which is computed when coloring is None (its search may raise
    NodeLimitExceeded); a caller that passes a coloring must pass such an
    extremal one.  A coloring that is not critical for g raises ValueError.
    Clauses quantify over vertices x of degree at most n-2.  The clique
    vector must be standard (CliqueVector.is_standard).
    """
    if not spec.is_standard():
        raise ValueError(NONSTANDARD_SPEC)
    if coloring is None:
        coloring = extremal_critical_coloring(g, spec, spec.k, "max")
        if coloring is None:
            raise ValueError("graph admits no critical coloring; not co-critical")
    elif not is_critical(g, coloring, spec):
        raise ValueError("coloring is not critical for this graph")

    n = g.n
    k = spec.k
    class_adj = [None] + [coloring.class_adj(ell) for ell in range(1, k + 1)]
    findings: list[LemmaFinding] = []

    max_class_degree = [0] * (k + 1)
    for ell in range(1, k + 1):
        max_class_degree[ell] = max(m.bit_count() for m in class_adj[ell])

    for x in range(n):
        if g.degree(x) > n - 2:
            continue
        neighborhoods = [0] + [class_adj[ell][x] for ell in range(1, k + 1)]
        outside = g.full_mask & ~g.adj[x] & ~(1 << x)

        for ell in range(1, k + 1):
            t = spec.sizes[ell - 1]
            a_ell = neighborhoods[ell]
            ctx = {"x": x, "ell": ell}

            omega = _max_clique(class_adj[ell], a_ell, 0, 0)
            holds_a = max_class_degree[ell] <= n - 2 and omega <= t - 2
            findings.append(
                LemmaFinding(
                    "1.5a",
                    holds_a,
                    context=dict(ctx, omega=omega, max_degree=max_class_degree[ell]),
                )
            )

            holds_b = omega == t - 2
            for u in bits(outside):
                reach = class_adj[ell][u] & a_ell
                if not mask_has_clique(class_adj[ell], reach, t - 2):
                    holds_b = False
                    findings.append(
                        LemmaFinding("1.5b", False, context=dict(ctx, u=u))
                    )
                    break
            else:
                findings.append(
                    LemmaFinding("1.5b", holds_b, context=dict(ctx, omega=omega))
                )

        a_k = neighborhoods[k]
        t_k = spec.sizes[k - 1]
        for ell in range(1, k):
            t_ell = spec.sizes[ell - 1]
            ctx = {"x": x, "ell": ell}
            if _is_color_complete(class_adj[k], neighborhoods[ell], a_k):
                packs_ell = max_disjoint_cliques(class_adj[ell], a_k, t_ell - 1)
                packs_k = max_disjoint_cliques(class_adj[k], a_k, t_k - 2)
                holds = (
                    packs_ell >= t_k - 2
                    and packs_k >= t_ell - 1
                    and a_k.bit_count() >= (t_ell - 1) * (t_k - 2)
                )
                findings.append(
                    LemmaFinding(
                        "1.5c1",
                        holds,
                        context=dict(
                            ctx,
                            disjoint_in_ell=packs_ell,
                            disjoint_in_last=packs_k,
                            last_neighborhood=a_k.bit_count(),
                        ),
                    )
                )

        if k == 2:
            t1, t2 = spec.sizes
            a1 = neighborhoods[1]
            ctx = {"x": x, "ell": 1}
            if a1.bit_count() == t1 - 2:
                blue_complete = _is_color_complete(class_adj[2], a1, a_k)
                big_enough = a_k.bit_count() >= (t1 - 1) * (t2 - 2) + 1
                findings.append(
                    LemmaFinding(
                        "1.5c2",
                        blue_complete and big_enough,
                        context=dict(
                            ctx,
                            blue_complete=blue_complete,
                            last_neighborhood=a_k.bit_count(),
                        ),
                    )
                )
            else:
                findings.append(
                    LemmaFinding(
                        "1.5c2",
                        True,
                        vacuous=True,
                        context=dict(ctx, first_neighborhood=a1.bit_count()),
                    )
                )

    return findings


def mindeg_assert(g: Graph, spec: CliqueVector) -> LemmaFinding:
    """Minimum degree of a co-critical graph against the sharp known bound."""
    bound = sharp_mindeg_bound(spec)
    delta = degree_stats(g)[0]
    return LemmaFinding(
        "thm1.6-degree", delta >= bound, context={"delta": delta, "bound": bound}
    )


def lemma_suite(g: Graph, spec: CliqueVector) -> list[LemmaFinding]:
    """All applicable structural checks for one co-critical graph.

    The checks run on the sorted spec, since co-criticality does not depend
    on the order of the targets.  They need a standard sorted spec
    (CliqueVector.is_standard); otherwise there are no findings.  The
    chromatic bound runs when r(spec) is known and g has at most
    CHROMATIC_MAX_VERTICES vertices.
    Raises NodeLimitExceeded if the node_budget runs out.
    """
    findings: list[LemmaFinding] = []
    spec = spec.sorted()
    if not spec.is_standard():
        return findings
    r = known_ramsey(spec)
    if r is not None and g.n <= CHROMATIC_MAX_VERTICES:
        findings.append(check_lemma_1_2(g, spec, r))
    findings.append(mindeg_assert(g, spec))
    findings.extend(check_lemma_1_5(g, spec))
    return findings
