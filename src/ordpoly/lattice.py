"""Face lattices built from facet lists by intersection closure.

Every proper face of a polytope is an intersection of facets, so the
closure of the facet list under intersection, together with the empty
face and the whole vertex set, is the full face lattice.  The closure is
walked up from the empty face along its cover relation, over bitsets of
facets: the upper covers of a face G are the smallest faces generated by
G and one more vertex, found from the facets holding G and that vertex
(Kaibel and Pfetsch, "Computing the face lattice of a polytope from its
vertex-facet incidences", Comput. Geom. 23, 2002).  An ordinary polytope
has far fewer vertices than facets, so a face ANDs the facet bitsets of
a few groups of vertices instead of meeting every facet.

A face is stored only as its ``combinat.mask_of`` integer, so vertex
labels are unbounded.  Rows are ordered by (dimension, colex), so they
form d+2 dimension blocks, each sorted by mask: a face's row is found by
bisection inside a block, and vertex tuples are built only when read.
The one stored incidence is the up-set of each of the n+1 vertices, a
bitset over rows.  Faces are ordered by containment, so both directions
of the order are read off it and never stored per face: the faces above
a face lie above each of its vertices, the faces below it hold no vertex
outside it.  Each face also keeps its class of lower intervals, and each class
its first row: faces share a class when their down-sets agree once each
face's vertices are renumbered 0, 1, ... in increasing order.  Every
interval [x, y] is isomorphic to one ending at the first row of y's class.

The closure size is capped by the ORDPOLY_MAX_FACES environment variable
(a positive integer, default 200000) so a typo in the parameters cannot
eat the machine.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Iterator, Sequence

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


class _FaceRows(Sequence[VertexSet]):
    """The faces of a lattice by row, as vertex tuples built from the masks
    on each access; a slice gives a tuple of them."""

    __slots__ = ("_masks",)

    def __init__(self, masks: tuple[int, ...]):
        self._masks = masks

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(face_of, self._masks[i]))
        return face_of(self._masks[i])

    def __iter__(self) -> Iterator[VertexSet]:
        return map(face_of, self._masks)


class FaceLattice:
    """Graded face lattice of a polytope, from the empty face to the top.

    Rows are ordered by (dimension, colex): row 0 is the empty face and
    row -1 the whole vertex set.  The lattice holds per row a vertex
    bitmask, a dimension and a class id, and besides those the row bounds
    of the d+2 dimension blocks, the first row of each class and the n+1
    vertex up-sets.  ``faces`` reads the rows as vertex tuples.  The
    constructor takes the masks sorted by mask within each dimension
    block, the block bounds (the rows of dimension e are
    ``blocks[e+1]:blocks[e+2]``), a dict ``faces`` whose keys are the
    masks, and a dict ``wide`` mapping a mask to those of its lower covers
    that miss two or more of its vertices.  Every other lower cover of a
    face G is some G - {v} among the keys of ``faces``, and every such key
    is one.  The constructor overwrites the values of ``faces`` with class
    ids, empties both dicts and keeps neither; the lattice is built and
    validated by ``build_face_lattice``.
    """

    __slots__ = (
        "dims", "d", "n", "_masks", "_blocks", "_all", "_vertex_rows",
        "_class_of", "_class_reps",
    )

    def __init__(
        self,
        masks: Sequence[int],
        blocks: Sequence[int],
        d: int,
        faces: dict[int, int],
        wide: dict[int, list[int]],
    ):
        self._masks = masks = tuple(masks)
        self._blocks = tuple(blocks)
        dims: list[int] = []
        for e in range(-1, d + 1):
            dims += [e] * (blocks[e + 2] - blocks[e + 1])
        self.dims = tuple(dims)
        self.d = d
        self.n = masks[-1].bit_length() - 1
        # Covers lie in lower rows, so one ascending pass fills the
        # classes.  A face's class key holds, per vertex in ascending order,
        # the class of the face lacking it, or None when that set is not a
        # face: a one-vertex deletion in the closure is always a lower cover.
        # The wide covers follow, sorted, each with its class and renumbered
        # into the face's vertex positions by clearing the position of each
        # vertex it misses (the count of the face's vertices below it).  A
        # narrow entry is an int or None and a wide one a tuple, so equal
        # keys mean equal sizes and equal renumbered covers with equal
        # classes.  The covers are the maximal faces below, so equal keys
        # rebuild equal renumbered down-sets, and equal down-sets give equal
        # keys: the key is exact.  A face's value in ``faces`` becomes its
        # class id, which its upper covers read.
        classes: dict[tuple, int] = {}
        class_of: list[int] = []
        reps: list[int] = []
        for row, mask in enumerate(masks):
            key: list = []
            rest = mask
            while rest:
                low = rest & -rest
                key.append(faces.get(mask ^ low))
                rest ^= low
            if mask in wide:
                pairs = []
                for c in wide.pop(mask):
                    renumbered = (1 << len(key)) - 1
                    missing = mask ^ c
                    while missing:
                        low = missing & -missing
                        renumbered ^= 1 << (mask & (low - 1)).bit_count()
                        missing ^= low
                    pairs.append((renumbered, faces[c]))
                key += sorted(pairs)
            cls = classes.setdefault(tuple(key), len(reps))
            if cls == len(reps):
                reps.append(row)
            class_of.append(cls)
            faces[mask] = cls
        faces.clear()
        self._class_of = tuple(class_of)
        # The first row of each class, ascending.
        self._class_reps = tuple(reps)
        self._all = (1 << len(masks)) - 1
        # The up-set of vertex v: the rows of the faces holding v, written
        # as binary digits from the last row down and read as one int.
        digits = [bytearray(b"0" * len(masks)) for _ in range(self.n + 1)]
        one = ord("1")
        for place, mask in enumerate(reversed(masks)):
            while mask:
                low = mask & -mask
                digits[low.bit_length() - 1][place] = one
                mask ^= low
        self._vertex_rows = [int(row_digits, 2) for row_digits in digits]

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._masks)

    @property
    def faces(self) -> Sequence[VertexSet]:
        """The faces by row, as strictly increasing vertex tuples."""
        return _FaceRows(self._masks)

    def index(self, face: VertexSet) -> int:
        """Row of ``face``, a strictly increasing tuple of vertex labels.

        A face of dimension e has at least e+1 vertices, since each of the
        e+1 steps of a maximal chain from the empty face up to it adds a
        vertex, so only the blocks up to dimension |face|-1 are searched,
        that one first.
        """
        mask, last = 0, -1
        for v in face:
            if v <= last:
                raise ValueError(f"{face} is not a face of this lattice")
            mask |= 1 << v
            last = v
        for e in range(min(len(face), self.d + 1) - 1, -2, -1):
            row = self._row(mask, e)
            if row >= 0:
                return row
        raise ValueError(f"{face} is not a face of this lattice")

    def _row(self, mask: int, e: int) -> int:
        """Row of the vertex bitmask ``mask`` among the faces of dimension
        e, found by bisection in their block; -1 when it is none of them."""
        masks = self._masks
        lo, hi = self._blocks[e + 1], self._blocks[e + 2]
        row = bisect_left(masks, mask, lo, hi)
        return row if row < hi and masks[row] == mask else -1

    def top(self) -> VertexSet:
        return face_of(self._masks[-1])

    def _above(self, mask: int) -> int:
        """Bitset of the rows of all faces containing the vertex bitmask ``mask``.

        Starts from every row, never from -1: ``combinat.set_bits`` reads
        only nonnegative bitsets.
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

    def interval(self, bottom: VertexSet, top: VertexSet) -> int:
        """Bitset of the rows of all faces weakly between ``bottom`` and
        ``top``; 0 when ``bottom`` is not inside ``top``.  Both ends must
        be faces."""
        above = self._above(self._masks[self.index(bottom)])
        return above & self._below(self.index(top))

    # -- derived vectors -------------------------------------------------

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, ..., f_{d-1}): face counts by dimension, proper faces only."""
        blocks = self._blocks
        return tuple(blocks[e + 2] - blocks[e + 1] for e in range(self.d))

    def flag_f0(self) -> tuple[int, ...]:
        """(f_{0,1}, ..., f_{0,d-1}): total vertex count over the i-faces."""
        blocks, masks = self._blocks, self._masks
        return tuple(
            sum(m.bit_count() for m in masks[blocks[e + 1]:blocks[e + 2]])
            for e in range(1, self.d)
        )

    # -- carriers --------------------------------------------------------

    def _carrier_row(self, mask: int) -> int:
        """Row of the smallest face containing the vertex bitmask ``mask``.

        The faces containing it are the common up-set of its vertices; the
        lowest of those rows is their meet, the top when no facet holds it.
        """
        above = self._above(mask)
        return (above & -above).bit_length() - 1

    def carrier_dims(self, sigma_masks: Sequence[int]) -> list[int]:
        """Dimensions of the carriers of many nonempty vertex bitmasks."""
        return [self.dims[self._carrier_row(sigma)] for sigma in sigma_masks]


def _closure_masks(
    facet_masks: list[int], top_mask: int, cap: int
) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Every face of the closure, mapped to its height above the empty
    face, and the lower covers that miss two or more of a face's vertices.

    The walk goes up from the empty face over facet bitsets.  A face G
    carries Phi(G), the bitset of the facets holding it.  For a vertex v
    outside G, the face generated by G and v is the meet of the facets in
    its key Phi(G) & frow[v], where frow[v] is the bitset of the facets
    holding v, and that face's Phi is its key.  A larger key is a smaller
    face, so the upper covers of G are the faces of the maximal keys, each
    G together with every vertex of that key (Kaibel and Pfetsch 2002);
    the key 0 stands for the top, which no facet holds.  Vertices that
    share a key form a group.  For a cover c of G, the key of a vertex v
    at c is Phi(c) & (v's key at G), so each face is expanded from the
    groups of the face that first reached it, not from every vertex.
    When every facet holds some vertices, they form the one cover of the
    empty face.  A face's height is fixed at its first reach; it is a
    rank function, and then the rank, iff every upper cover lies exactly
    one level above its face, which is checked on every cover, so the
    walk refuses exactly the ungraded closures.  The top is not counted
    against the cap.

    Only the lower covers that miss two or more vertices of their face
    are recorded, in ``wide`` under that face.  A face c - {v} of the
    closure is always a lower cover of c, as no set lies strictly between
    them, so the covers that miss one vertex are found again by membership
    in ``height``.
    """
    frow = dict.fromkeys(set_bits(top_mask), 0)
    for i, f in enumerate(facet_masks):
        for v in set_bits(f):
            frow[v] |= 1 << i
    height = {0: 0}
    wide: dict[int, list[int]] = {}
    # Each entry holds a face, its Phi and its parent's groups; siblings
    # share them, so at most one set of groups per level of the current
    # path is alive.
    stack = [(0, (1 << len(facet_masks)) - 1, [(held, 1 << v) for v, held in frow.items()])]
    while stack:
        face, phi, parent_groups = stack.pop()
        groups: dict[int, int] = {}
        for key, vertices in parent_groups:
            if not vertices & face:
                key &= phi
                groups[key] = groups.get(key, 0) | vertices
        level = height[face] + 1
        shared = groups.items()
        for key in _maximal(groups):
            added = groups[key]
            cover = face | added
            reached = height.get(cover)
            if reached is None:
                height[cover] = level
                stack.append((cover, key, shared))
                if len(height) > cap + 1:
                    raise FaceCapError(
                        f"face closure exceeds the cap of {cap} faces; "
                        "raise ORDPOLY_MAX_FACES to allow more"
                    )
            elif reached != level:
                raise ValueError("face closure is not graded")
            if added & (added - 1):
                wide.setdefault(cover, []).append(face)
    return height, wide


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

    height, wide = _closure_masks(facet_masks, top_mask, _max_faces())
    rank = height[top_mask]
    if rank != d + 1:
        raise ValueError(
            f"top face has rank {rank}, expected {d + 1}: "
            "facet list does not describe a d-polytope"
        )
    for f in facet_masks:
        if height[f] != d:
            raise ValueError(f"facet {face_of(f)} has dimension {height[f] - 1} != {d - 1}")

    # Rows in (dimension, colex) order: each face goes to the block of its
    # dimension, its height less one, and numeric order of masks within a
    # block is colex order.
    by_height: list[list[int]] = [[] for _ in range(rank + 1)]
    for m, h in height.items():
        by_height[h].append(m)
    if sorted(by_height[1]) != [1 << v for v in vertices]:
        raise ValueError("atoms of the closure are not the vertex singletons")
    masks: list[int] = []
    blocks = [0]
    for block in by_height:
        block.sort()
        masks += block
        blocks.append(len(masks))
    del by_height
    return FaceLattice(masks, blocks, d, height, wide)


def euler_witness(lattice: FaceLattice) -> tuple[VertexSet, VertexSet] | None:
    """The first interval [x, y] with unequal even and odd face counts, as
    a pair of faces, or None when the lattice is Eulerian.

    Rows are scanned by x, then by class representative y above x.  Only
    the up-set of x and the down-sets of the representatives are held.
    The representatives above x are those holding every vertex of x, so
    the pass over x's vertices that ANDs its up-set also ANDs, per vertex,
    the bitset of the representatives holding it.
    """
    blocks = lattice._blocks
    even = 0
    for b in range(1, len(blocks) - 1, 2):  # block b holds dimension b-1
        even |= (1 << blocks[b + 1]) - (1 << blocks[b])
    masks, vertex_rows = lattice._masks, lattice._vertex_rows
    reps = lattice._class_reps
    belows = [lattice._below(y) for y in reps]
    rep_rows = [0] * len(vertex_rows)
    for i, y in enumerate(reps):
        for v in set_bits(masks[y]):
            rep_rows[v] |= 1 << i
    every_rep = (1 << len(reps)) - 1
    for x, mask in enumerate(masks):
        above, holding = lattice._all, every_rep
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            above &= vertex_rows[v]
            holding &= rep_rows[v]
            rest ^= low
        above_even = above & even
        for i in set_bits(holding):
            y, below = reps[i], belows[i]
            if y != x and 2 * (above_even & below).bit_count() != (above & below).bit_count():
                return face_of(mask), face_of(masks[y])
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
