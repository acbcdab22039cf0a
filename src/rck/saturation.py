"""Clique freeness, K_t-saturation, and the saturated-graph degree dichotomy."""

from __future__ import annotations

from collections import namedtuple

from .graphs import Graph, degree_stats, first_free_non_edge, has_clique


class SaturationReport(
    namedtuple(
        "SaturationReport",
        "is_free is_saturated violating_non_edge hajnal_holds vacuously_complete",
    )
):
    """Verdict bundle for one (graph, t) saturation query.

    violating_non_edge is the least non-edge whose addition keeps the graph
    K_t-free; it is present exactly when the graph is free but unsaturated.
    Complete inputs have no non-edges and are flagged vacuously saturated
    when K_t-free.  hajnal_holds records the dichotomy "max degree n-1 or
    min degree >= 2(t-2)" and is vacuously true for unsaturated graphs.
    """

    __slots__ = ()


def is_saturated(g: Graph, t: int) -> SaturationReport:
    """Saturation check: test the non-edges of g in lexicographic order."""
    if t < 2:
        raise ValueError("clique target must be at least 2")
    free = not has_clique(g, t)
    non_edges = g.non_edges()
    violating = None
    if free:
        index = first_free_non_edge([(g.adj, t - 2)], non_edges)
        violating = non_edges[index] if index < len(non_edges) else None
    saturated = free and violating is None
    return SaturationReport(free, saturated, violating, _hajnal(g, t, saturated), not non_edges)


def _hajnal(g: Graph, t: int, saturated: bool) -> bool:
    if not saturated:
        return True
    delta, big_delta, _ = degree_stats(g)
    return big_delta == g.n - 1 or delta >= 2 * (t - 2)


def check_hajnal(g: Graph, t: int) -> bool:
    """Degree dichotomy for a K_t-saturated graph.

    A False return on a genuinely saturated input signals a bug somewhere:
    the dichotomy is a theorem about saturated graphs.
    """
    report = is_saturated(g, t)
    if not report.is_saturated:
        raise ValueError("check_hajnal requires a K_t-saturated graph")
    return report.hajnal_holds
