"""The multiplex M^{d,n}: facets, minimal triangulation, boundary shelling.

A multiplex is a d-polytope on ordered vertices 0..n whose facets are the
clamped windows F_i below; for n = d it degenerates to a simplex.  Every
facet of an ordinary polytope is a multiplex under its induced vertex
order, which is why the boundary bookkeeping here is reused so heavily.
"""

from __future__ import annotations

from typing import NamedTuple

from .combinat import VertexSet, retract


def _check_dn(d: int, n: int) -> None:
    if d < 2:
        raise ValueError(f"multiplex needs d >= 2, got d={d}")
    if n < d:
        raise ValueError(f"multiplex needs n >= d, got d={d}, n={n}")


def multiplex_facet(d: int, n: int, i: int) -> VertexSet:
    """Facet F_i: the window {i-d+1..i-1} u {i+1..i+d-1} clamped into [0,n]."""
    _check_dn(d, n)
    if not 0 <= i <= n:
        raise ValueError(f"facet index must be in [0,{n}], got {i}")
    window = list(range(i - d + 1, i)) + list(range(i + 1, i + d))
    return retract(window, n)


def multiplex_facets(d: int, n: int) -> list[VertexSet]:
    """All n+1 facets F_0..F_n, indexed by the omitted vertex."""
    _check_dn(d, n)
    facets = [multiplex_facet(d, n, i) for i in range(n + 1)]
    # Distinct windows can clamp onto equal vertex sets only when the
    # parameters are out of range; any collision here is a hard bug.
    if len(set(facets)) != n + 1:
        raise AssertionError(f"duplicate facets in M^{{{d},{n}}}")
    # Clamping keeps 0 inside F_0 and n inside F_n; every other F_i omits i.
    for i, f in enumerate(facets[1:-1], 1):
        if i in f:
            raise AssertionError(f"facet F_{i} of M^{{{d},{n}}} contains {i}")
    return facets


def multiplex_triangulation(d: int, n: int) -> list[VertexSet]:
    """Simplices T_i = [i, i+d] for 0 <= i <= n-d; index order is a shelling.

    The dual graph is a path: consecutive simplices share d vertices, all
    other pairs share fewer.
    """
    _check_dn(d, n)
    return [tuple(range(i, i + d + 1)) for i in range(n - d + 1)]


class BoundarySimplex(NamedTuple):
    """One (d-1)-simplex of the induced boundary triangulation.

    ``tetra`` is the index i of the solid simplex T_i it came from,
    ``facet`` the index j of the multiplex facet F_j containing it.
    """

    simplex: VertexSet
    tetra: int
    facet: int


def multiplex_boundary_triangulation(d: int, n: int) -> list[BoundarySimplex]:
    """Boundary simplices of the solid triangulation, in shelling order.

    Each T_i contributes the simplices T_i minus one vertex, except the
    interior walls [i+1, i+d] shared by consecutive T's.  The two end
    simplices lie in F_0 and F_n; a simplex T_i minus j with i < j < i+d
    lies in F_j.  Order: facet index j ascending, then i ascending.
    """
    _check_dn(d, n)
    out: list[BoundarySimplex] = []
    # j = 0: only [0, d-1], the bottom face of T_0.
    out.append(BoundarySimplex(tuple(range(0, d)), 0, 0))
    for j in range(1, n):
        for i in range(max(0, j - d + 1), min(j - 1, n - d) + 1):
            simplex = tuple(v for v in range(i, i + d + 1) if v != j)
            out.append(BoundarySimplex(simplex, i, j))
    out.append(BoundarySimplex(tuple(range(n - d + 1, n + 1)), n - d, n))
    return out


def multiplex_g(e: int, v: int) -> tuple[int, ...]:
    """Toric g coefficients of an e-dimensional multiplex with v vertices.

    g = 1 + (v-1-e)x, ascending without trailing zeros like the per-class
    g of ``hvector.toric_tables``; so (1,) for a simplex (v = e+1).
    """
    if v < e + 1:
        raise ValueError(f"an {e}-dimensional multiplex needs >= {e + 1} vertices")
    return (1, v - 1 - e) if v > e + 1 else (1,)
