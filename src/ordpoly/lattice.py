"""Face lattices built from facet lists by intersection closure.

Every proper face of a polytope is an intersection of facets, so the
closure of the facet list under intersection, together with the empty
face and the whole vertex set, is the full face lattice.  The closure is
walked top-down along its cover relation: the lower covers of a face H
are the maximal meets H & F over the facets F that do not contain H
(Kaibel and Pfetsch, "Computing the face lattice of a polytope from its
vertex-facet incidences", Comput. Geom. 23, 2002).  Faces are stored as
``combinat.mask_of`` integers, so vertex labels are unbounded.  The one
stored incidence is the up-set of each of the n+1 vertices, a bitset
over rows.  Faces are ordered by containment, so both directions of the
order are read off it and never stored per face: the faces above a face
lie above each of its vertices, the faces below it hold no vertex outside
it.  Each face also keeps its class of lower intervals, and each class
its first row: faces share a class when their down-sets agree once each
face's vertices are renumbered 0, 1, ... in increasing order.  Every
interval [x, y] is isomorphic to one ending at the first row of y's class.

The closure size is capped by the ORDPOLY_MAX_FACES environment variable
(a positive integer, default 200000) so a typo in the parameters cannot
eat the machine.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from .combinat import VertexSet, _maximal, face_of, mask_of, set_bits

DEFAULT_MAX_FACES = 200_000


def _max_faces() -> int:
    raw = os.environ.get("ORDPOLY_MAX_FACES", "")
    if not raw:
        return DEFAULT_MAX_FACES
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"ORDPOLY_MAX_FACES must be a positive integer, got {raw!r}")
    return cap


class FaceCapError(RuntimeError):
    """The face closure passed ORDPOLY_MAX_FACES: a resource limit was hit,
    so nothing was evaluated; not a mathematical failure."""


def _positions(sub: int, mask: int) -> int:
    """The bitmask ``sub`` of a subset of ``mask``, renumbered onto the
    positions 0..|mask|-1 of mask's vertices in increasing order."""
    out = (1 << mask.bit_count()) - 1
    missing = mask ^ sub
    while missing:
        low = missing & -missing
        out ^= 1 << (mask & (low - 1)).bit_count()
        missing ^= low
    return out


class FaceLattice:
    """Graded face lattice of a polytope, from the empty face to the top.

    Faces are ordered by (dimension, colex); ``faces[0]`` is the empty
    face and ``faces[-1]`` the whole vertex set.  The constructor takes
    the rows of each face's lower covers (``covers[r]``); the lattice is
    built and validated by ``build_face_lattice``.
    """

    __slots__ = (
        "faces", "dims", "d", "n", "_masks", "_index", "_all", "_vertex_rows",
        "_class_of", "_class_reps",
    )

    def __init__(
        self,
        masks: Sequence[int],
        dims: Sequence[int],
        d: int,
        covers: Sequence[Sequence[int]],
    ):
        self._masks = tuple(masks)
        self.faces = tuple(face_of(m) for m in self._masks)
        self.dims = tuple(dims)
        self.d = d
        self.n = self._masks[-1].bit_length() - 1
        self._index = {f: i for i, f in enumerate(self.faces)}
        # Covers point to lower rows, so one ascending pass fills the
        # classes.  A face's class key is its size and, per lower cover,
        # the cover renumbered into the face's vertex positions with the
        # cover's class.  The covers are the maximal faces below, so equal
        # keys rebuild equal renumbered down-sets, and equal down-sets give
        # equal keys: the key is exact.
        classes: dict[tuple[int, frozenset[tuple[int, int]]], int] = {}
        class_of: list[int] = []
        reps: list[int] = []
        for row, (mask, below) in enumerate(zip(self._masks, covers)):
            key = frozenset((_positions(self._masks[c], mask), class_of[c]) for c in below)
            cls = classes.setdefault((mask.bit_count(), key), len(reps))
            if cls == len(reps):
                reps.append(row)
            class_of.append(cls)
        self._class_of = tuple(class_of)
        # The first row of each class, ascending.
        self._class_reps = tuple(reps)
        self._all = (1 << len(self._masks)) - 1
        # The up-set of vertex v: the rows of the faces holding v.
        self._vertex_rows = [0] * (self.n + 1)
        for row, face in enumerate(self.faces):
            for v in face:
                self._vertex_rows[v] |= 1 << row

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.faces)

    def __contains__(self, face: object) -> bool:
        return face in self._index

    def index(self, face: VertexSet) -> int:
        try:
            return self._index[face]
        except KeyError:
            raise ValueError(f"{face} is not a face of this lattice") from None

    def dim(self, face: VertexSet) -> int:
        return self.dims[self.index(face)]

    def top(self) -> VertexSet:
        return self.faces[-1]

    def _above(self, mask: int) -> int:
        """Bitset of the rows of all faces containing the vertex bitmask ``mask``.

        Starts from every row, never from -1: a negative bitset would make
        ``set_bits`` loop forever.
        """
        if mask & ~self._masks[-1]:
            raise ValueError(f"{face_of(mask)} uses labels outside the vertex set")
        bits = self._all
        for v in set_bits(mask):
            bits &= self._vertex_rows[v]
        return bits

    def _below(self, row: int) -> int:
        """Bitset of the rows of all faces inside face ``row``: every row
        but those of the faces holding a vertex outside it."""
        outside = 0
        for v in set_bits(self._masks[-1] & ~self._masks[row]):
            outside |= self._vertex_rows[v]
        return self._all & ~outside

    def interval_rows(self, bottom: VertexSet, top: VertexSet) -> list[int]:
        """Rows of all faces weakly between ``bottom`` and ``top``, ascending."""
        above = self._above(self._masks[self.index(bottom)])
        return set_bits(above & self._below(self.index(top)))

    # -- derived vectors -------------------------------------------------

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, ..., f_{d-1}): face counts by dimension, proper faces only."""
        counts = [0] * self.d
        for fd in self.dims:
            if 0 <= fd < self.d:
                counts[fd] += 1
        return tuple(counts)

    def flag_f0(self) -> tuple[int, ...]:
        """(f_{0,1}, ..., f_{0,d-1}): total vertex count over the i-faces."""
        sums = [0] * self.d
        for f, fd in zip(self.faces, self.dims):
            if 0 <= fd < self.d:
                sums[fd] += len(f)
        return tuple(sums[1:])

    # -- carriers --------------------------------------------------------

    def _carrier_row(self, mask: int) -> int:
        """Row of the smallest face containing the vertex bitmask ``mask``.

        The faces containing it are the common up-set of its vertices; the
        lowest of those rows is their meet.
        """
        above = self._above(mask)
        return (above & -above).bit_length() - 1

    def carrier(self, sigma: Iterable[int]) -> VertexSet:
        """Smallest face containing ``sigma``.

        When no facet contains sigma, the carrier is the whole polytope (the
        top face); the empty set's carrier is the empty face.
        """
        return self.faces[self._carrier_row(mask_of(sigma))]

    def carrier_dims(self, sigma_masks: Sequence[int]) -> list[int]:
        """Dimensions of the carriers of many nonempty vertex bitmasks."""
        return [self.dims[self._carrier_row(sigma)] for sigma in sigma_masks]


def _closure_masks(
    facet_masks: list[int], top_mask: int, cap: int
) -> tuple[dict[int, list[int]], dict[int, int]]:
    """Every face of the closure, mapped to the masks of its lower covers
    and to its depth below the top.

    A face below H is inside some facet that misses H, hence inside a
    meet H & F; so the maximal meets are the lower covers, and walking
    them down from the top reaches every face.  The walk is depth-first
    and expands each face once, from the meets of the face that first
    reached it: if H lies in P, then H & F = H & (P & F), so H's meets
    are H & m over P's meets m.  A face's depth is fixed at its first
    reach; it is a rank function, and then the rank, iff every lower
    cover lies exactly one level below its face, which is checked on
    every cover, so the walk refuses exactly the ungraded closures.  The
    top is not counted against the cap.
    """
    covers: dict[int, list[int]] = {}
    depth = {top_mask: 0}
    # Each entry holds a face and its parent's meets; siblings share them,
    # so at most one set of meets per level of the current path is alive.
    stack = [(top_mask, facet_masks)]
    while stack:
        face, parent_meets = stack.pop()
        meets = {m for pm in parent_meets if (m := face & pm) != face}
        if not meets and face:  # inside every facet: covers only the empty face
            meets = {0}
        below = _maximal(meets)
        covers[face] = below
        level = depth[face] + 1
        for meet in below:
            if meet not in depth:
                depth[meet] = level
                stack.append((meet, meets))
                if len(depth) > cap + 1:
                    raise FaceCapError(
                        f"face closure exceeds the cap of {cap} faces; "
                        "raise ORDPOLY_MAX_FACES to allow more"
                    )
            elif depth[meet] != level:
                raise ValueError("face closure is not graded")
    return covers, depth


def build_face_lattice(facets: Sequence[VertexSet], d: int) -> FaceLattice:
    """Intersection-closure lattice of a facet list.

    Raises if the closure is not a graded lattice of rank d+1 with the
    input facets one level below the top and the vertex singletons as its
    atoms; a failure signals a bad facet list rather than a recoverable
    state.
    """
    if not facets:
        raise ValueError("facet list is empty")
    vertices = sorted(set().union(*map(set, facets)))
    if vertices[0] < 0:
        raise ValueError("negative vertex labels cannot appear in faces")
    top_mask = mask_of(vertices)
    facet_masks = sorted({mask_of(f) for f in facets})
    if len(facet_masks) != len(facets):
        raise ValueError("duplicate facets")
    if top_mask in facet_masks:
        raise ValueError("a facet equals the whole vertex set")

    covers, depth = _closure_masks(facet_masks, top_mask, _max_faces())
    rank = depth[0]  # the empty face is the deepest
    if rank != d + 1:
        raise ValueError(
            f"top face has rank {rank}, expected {d + 1}: "
            "facet list does not describe a d-polytope"
        )
    for f in facet_masks:
        if depth[f] != 1:
            raise ValueError(f"facet {face_of(f)} has dimension {d - depth[f]} != {d - 1}")
    if {m for m, k in depth.items() if k == d} != {1 << v for v in vertices}:
        raise ValueError("atoms of the closure are not the vertex singletons")

    # Numeric order of masks is colex order of the vertex sets.
    masks = sorted(depth, key=lambda m: (-depth[m], m))
    row = {m: i for i, m in enumerate(masks)}
    return FaceLattice(
        masks,
        [d - depth[m] for m in masks],
        d,
        [[row[c] for c in covers[m]] for m in masks],
    )


def euler_witness(lattice: FaceLattice) -> tuple[VertexSet, VertexSet] | None:
    """The first interval [x, y] with unequal even and odd face counts, as
    a pair of faces, or None when the lattice is Eulerian.

    Rows are scanned by x, then by class representative y above x.  Only
    the up-set of x and the down-sets of the representatives are held.
    """
    even = 0
    for row, fd in enumerate(lattice.dims):
        if fd % 2 == 0:
            even |= 1 << row
    masks = lattice._masks
    reps = [(y, masks[y], lattice._below(y)) for y in lattice._class_reps]
    for x, mask in enumerate(masks):
        above = lattice._above(mask)
        above_even = above & even
        for y, y_mask, below in reps:
            if y == x or mask & ~y_mask:
                continue
            if 2 * (above_even & below).bit_count() != (above & below).bit_count():
                return lattice.faces[x], lattice.faces[y]
    return None


def euler_check(lattice: FaceLattice) -> bool:
    """Eulerian test: the Moebius function must alternate by rank.

    Equivalently, every interval [x, y] with x < y holds as many faces of
    even dimension as of odd; every interval is tested, not only those of
    length two (Stanley, EC1 3.16).  Each interval is decided by its class
    representative: [x, y] lies in down(y), whose renumbered copy is that
    of the representative of y's class, so [x, y] is isomorphic, grading
    included, to [x', rep(y)] for the renumbered x'.  The class key is
    exact, not a heuristic, so testing the pairs that end at a
    representative tests every interval.  ``euler_witness`` names the
    first interval that fails.
    """
    return euler_witness(lattice) is None
