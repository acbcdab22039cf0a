"""Named extremal constructions, closed-form degree/edge bounds, and the
small Ramsey values the verifiers consume."""

from __future__ import annotations

from math import comb

from .arrowing import CliqueVector
from .graphs import (
    Edge,
    Graph,
    complete_graph,
    complete_multipartite_graph,
    empty_graph,
    has_clique,
    join,
    mask_has_clique,
    remove_edge,
)

# Ramsey numbers small enough to re-prove by search; the tests re-prove each
# one, so holds_ramsey_clique may rely on them.
VERIFIED_RAMSEY = {(3, 3): 6, (3, 4): 9, (3, 5): 14}
# Ramsey values far beyond the search budget, only ever reported as cited.
CITED_RAMSEY = {(3, 3, 3): 17}

NONSTANDARD_SPEC = "the bounds need at least two colors and ascending targets >= 3"


def known_ramsey(spec: CliqueVector) -> int | None:
    """Best known Ramsey number for the spec, verified or cited, or None.

    The tables hold ascending targets and the spec is looked up sorted.
    """
    key = spec.sorted().sizes
    return VERIFIED_RAMSEY.get(key, CITED_RAMSEY.get(key))


def holds_ramsey_clique(g: Graph, spec: CliqueVector, edge: Edge | None = None) -> bool:
    """The K_r rule: True when g, or g plus the non-edge uv, contains K_r for
    r = r(spec) re-proved by search, so that it arrows by monotonicity.

    Only VERIFIED_RAMSEY values take the rule, never cited ones.  With an
    edge, g itself must be K_r-free: g + uv then contains K_r exactly when
    the common neighborhood of u and v holds a K_{r-2}.
    """
    r = VERIFIED_RAMSEY.get(tuple(sorted(spec.sizes)))
    if r is None:
        return False
    if edge is None:
        return has_clique(g, r)
    u, v = edge
    return mask_has_clique(g.adj, g.adj[u] & g.adj[v], r - 2)


def ramsey_lower_bound(s: int, t: int) -> int:
    """Closed-form lower bound s(t-1) for the two-color clique Ramsey number.

    Reported verbatim for all s, t >= 2 even though it overshoots the true
    value when s = 2 (it gives 8 for (2,5) where the Ramsey number is 5).
    """
    if s < 2 or t < 2:
        raise ValueError("both clique sizes must be at least 2")
    return s * (t - 1)


def mindeg_bound(spec: CliqueVector) -> int:
    """General minimum-degree lower bound for co-critical graphs.

    Equals t_k - 2k - 1 + sum(t_i); for k = 2 this is 2*t_2 + t_1 - 5.
    """
    if not spec.is_standard():
        raise ValueError(NONSTANDARD_SPEC)
    return spec.sizes[-1] - 2 * spec.k - 1 + sum(spec.sizes)


# Sharp improvements over the general formula for specific specs.
SHARP_MINDEG = {(3, 3): 4, (3, 4): 7}


def sharp_mindeg_bound(spec: CliqueVector) -> int:
    """mindeg_bound of the sorted spec, upgraded to the sharp value where
    one is known."""
    spec = spec.sorted()
    base = mindeg_bound(spec)
    return max(base, SHARP_MINDEG.get(spec.sizes, base))


def hanson_toft_edge_count(r: int, n: int) -> int:
    return (r - 2) * (n - r + 2) + comb(r - 2, 2)


def hanson_toft(spec: CliqueVector, n: int) -> Graph:
    """The co-critical construction for r = known_ramsey(spec): a clique on
    r-2 vertices joined to a stable set, with (r-2)(n-r+2) + C(r-2, 2) edges
    and minimum degree r-2."""
    r = known_ramsey(spec)
    if r is None:
        raise ValueError(f"Ramsey number unknown for ({spec})")
    if n < r:
        raise ValueError(f"need n >= r = {r}, got n = {n}")
    g = join(complete_graph(r - 2), empty_graph(n - r + 2))
    assert g.edge_count == hanson_toft_edge_count(r, n)
    return g


def k6_minus() -> Graph:
    """The complete graph on six vertices minus one edge."""
    return remove_edge(complete_graph(6), (0, 1))


def construction_by_name(name: str) -> Graph:
    """Resolve CLI construction names.

    Forms: "kn:N", "k6minus", "hanson-toft:T1,T2[,T3]:N",
    "complete-multipartite:P1,P2,...".
    """
    parts = name.split(":")
    kind = parts[0]
    try:
        if kind == "k6minus" and len(parts) == 1:
            return k6_minus()
        if kind == "kn" and len(parts) == 2:
            return complete_graph(int(parts[1]))
        if kind == "hanson-toft" and len(parts) == 3:
            spec = CliqueVector.parse(parts[1])
            return hanson_toft(spec, int(parts[2]))
        if kind == "complete-multipartite" and len(parts) == 2:
            sizes = [int(p) for p in parts[1].split(",")]
            return complete_multipartite_graph(sizes)
    except ValueError as exc:
        raise ValueError(f"bad construction {name!r}: {exc}") from exc
    raise ValueError(f"unknown construction {name!r}")
