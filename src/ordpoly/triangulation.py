"""Shallow boundary triangulation, its shelling, and shallowness checks.

The boundary of P^{d,k,n} is triangulated by the d-element Gale subsets
of the length-k vertex windows, which are exactly the runs of d
consecutive vertices of the facets.  Listing those windows inside the
colex facet order gives a shelling whose minimal new faces U follow a
right-to-left recursion within each facet.

A generic restriction-face computation for shellings of pure simplicial
complexes lives here too; it certifies the shelling property from first
principles and serves as the independent check on the U recursion.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

from .combinat import (
    Params,
    VertexSet,
    colex_sorted,
    face_of,
    mask_of,
    shelling_walls,
)
from .hvector import HVector, new_face_counts
from .lattice import FaceLattice
from .ordinary import _gale_facets
from .shelling import ShellingStep, _multiplex_walls, colex_shelling


class TriangulationStep(NamedTuple):
    """Window ell of shelled facet j: simplex T with minimal new face U."""

    facet_index: int
    window_index: int
    simplex: VertexSet
    new_face: VertexSet


def boundary_triangulation(p: Params) -> list[VertexSet]:
    """All simplices of the triangulation, built without the shelling.

    A d-subset of the window [i, i+k] joins the triangulation when it is
    Gale in the window and contains 0, or n, or both window ends.  The
    window qualification is per window: the same set may qualify in one
    window and not another.  Gale evenness reads only positions inside
    the window, so the Gale subsets of [0, k] are listed once and shifted
    by i into each window.
    """
    d, k, n = p.d, p.k, p.n
    gale = _gale_facets(Params(d, k, k))
    out: set[VertexSet] = set()
    for i in range(n - k + 1):
        for sub in gale:
            simplex = tuple([v + i for v in sub])
            if simplex[0] == 0 or simplex[-1] == n or (sub[0] == 0 and sub[-1] == k):
                out.add(simplex)
    return colex_sorted(out)


def facet_windows(face: VertexSet, d: int) -> list[VertexSet]:
    """Runs of d consecutive vertices of a facet, in position order."""
    return [face[ell : ell + d] for ell in range(len(face) - d + 1)]


def triangulation_shelling(
    p: Params, steps: Sequence[ShellingStep] | None = None
) -> list[TriangulationStep]:
    """Steps (j, ell) in shelling order with their minimal new faces.

    ``steps`` is the colex shelling of ``p``, computed here when not
    given.  The last window of facet j gets U = G_j; walking left, each
    window drops the maximum z of its right neighbor and picks up z-k and
    z-1.  Every non-final window must span exactly one period
    (max - min = k), and no simplex may repeat across facets; both are
    asserted.
    """
    d, k = p.d, p.k
    out: list[TriangulationStep] = []
    seen: set[VertexSet] = set()
    for step in colex_shelling(p) if steps is None else steps:
        windows = facet_windows(step.facet, d)
        count = len(windows)
        new_faces: list[VertexSet] = [()] * count
        new_faces[-1] = step.new_face
        for ell in range(count - 1, 0, -1):
            z = windows[ell][-1]
            lower = set(new_faces[ell])
            lower.discard(z)
            lower.update((z - k, z - 1))
            new_faces[ell - 1] = tuple(sorted(lower))
        for ell0, (simplex, new_face) in enumerate(zip(windows, new_faces)):
            if ell0 < count - 1 and simplex[-1] - simplex[0] != k:
                raise AssertionError(
                    f"window {simplex} of facet {step.facet} skips a period"
                )
            if not set(new_face) <= set(simplex):
                raise AssertionError(f"new face {new_face} escapes {simplex}")
            if simplex in seen:
                raise AssertionError(f"simplex {simplex} repeats across facets")
            seen.add(simplex)
            out.append(TriangulationStep(step.index, ell0 + 1, simplex, new_face))
    return out


def simplicial_h(steps: Sequence, d: int) -> HVector:
    """h_i = number of steps whose new face has i vertices."""
    return new_face_counts((s.new_face for s in steps), d)


def shelling_restriction_faces(simplices: Sequence[VertexSet]) -> list[VertexSet]:
    """Restriction faces of an ordered pure simplicial complex.

    U_j collects the vertices of simplex j whose opposite wall lies in an
    earlier simplex.  The shelling property itself is certified along the
    way: past the first step some wall must be covered, and every
    intersection with an earlier simplex must sit inside a covered wall.
    Each vertex keeps the bitset of the simplices placed so far that hold
    it, so a step reads the rows of its own vertices only.  A simplex on
    s vertices is the (s-1)-multiplex on s vertices, so its walls come
    from that table, each wall leaving out one position.
    """
    rows = [0] * (max((v for s in simplices for v in s), default=-1) + 1)
    out: list[VertexSet] = []
    for idx, simplex in enumerate(simplices):
        placed = (1 << idx) - 1
        vertices = sorted(simplex)
        walls, _ = _multiplex_walls(len(vertices) - 1, len(vertices))
        covered, stray = shelling_walls(vertices, walls, rows, placed)
        if placed and not covered:
            raise ValueError(f"step {idx + 1}: {simplex} meets no earlier simplex in a wall")
        if stray:
            raise ValueError(
                f"step {idx + 1}: {simplex} meets an earlier simplex "
                "outside every covered wall"
            )
        out.append(tuple(sorted(vertices[t] for i in covered for t in walls[i][1])))
        for v in simplex:
            rows[v] |= 1 << idx
    return out


def shallowness_check(
    simplices: Sequence[VertexSet], lattice: FaceLattice
) -> tuple[bool, VertexSet | None]:
    """Certify dim carrier(sigma) <= 2 dim sigma for every simplex face.

    Only the faces with 2 dim sigma < d are listed: a carrier is a face of
    the polytope, of dimension at most d, so a larger face cannot fail.
    Nor can a face sigma of the polytope, which is its own carrier: those
    found among the faces of dimension |sigma|-1 get no carrier.  The
    faces of one size are listed, tested and dropped before the next, so
    the largest set held is that of one size.
    Returns (True, None) or (False, the first failing face in sorted order).
    """
    largest = (lattice.d + 1) // 2  # the largest size with 2 (size - 1) < d
    failing: list[VertexSet] = []
    for size in range(1, largest + 1):
        faces: set[VertexSet] = set()
        for simplex in simplices:
            faces.update(combinations(simplex, size))
        rest = [m for m in map(mask_of, faces) if lattice._row(m, size - 1) < 0]
        failing += (
            face_of(sigma)
            for sigma, cdim in zip(rest, lattice.carrier_dims(rest))
            if cdim > 2 * (size - 1)
        )
    return (False, min(failing)) if failing else (True, None)
