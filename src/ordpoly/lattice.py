"""Face lattices built from facet lists by intersection closure.

Every proper face of a polytope is an intersection of facets, so the
closure of the facet list under pairwise intersection, together with the
empty face and the whole vertex set, is the full face lattice.  Faces are
stored as vertex bitmasks; containment, grading, the Euler condition and
carriers are all evaluated through numpy array arithmetic.

The closure size is capped by the ORDPOLY_MAX_FACES environment variable
(a positive integer, default 200000) so a typo in the parameters cannot
eat the machine.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

import numpy as np

from .combinat import VertexSet, colex_key, face_of, mask_of

DEFAULT_MAX_FACES = 200_000

_CHUNK = 1024


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


class FaceLattice:
    """Graded face lattice of a polytope, from the empty face to the top.

    Faces are ordered by (dimension, colex); ``faces[0]`` is the empty
    face and ``faces[-1]`` the whole vertex set.  The lattice is validated
    at construction: the closure must be graded with the requested top
    dimension, each input facet must sit at dimension d-1, and the atoms
    must be exactly the vertex singletons.
    """

    __slots__ = ("faces", "dims", "d", "n", "_masks", "_sub", "_index", "_facet_rows")

    def __init__(
        self,
        faces: Sequence[VertexSet],
        dims: Sequence[int],
        d: int,
        n: int,
        facet_rows: Sequence[int],
    ):
        self.faces = tuple(faces)
        self.dims = tuple(dims)
        self.d = d
        self.n = n
        self._masks = np.array([mask_of(f) for f in self.faces], dtype=np.uint64)
        self._sub = _subset_matrix(self._masks)
        self._index = {f: i for i, f in enumerate(self.faces)}
        self._facet_rows = tuple(facet_rows)

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

    def facets(self) -> list[VertexSet]:
        return [self.faces[i] for i in self._facet_rows]

    def downset(self, row: int) -> np.ndarray:
        """Rows of all faces weakly below ``row``."""
        return np.flatnonzero(self._sub[:, row])

    def interval_rows(self, bottom: VertexSet, top: VertexSet) -> np.ndarray:
        lo = self.index(bottom)
        hi = self.index(top)
        return np.flatnonzero(self._sub[lo, :] & self._sub[:, hi])

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

    def carrier(self, sigma: Iterable[int]) -> VertexSet:
        """Smallest face containing ``sigma``.

        Computed as the intersection of all facets containing sigma; when
        no facet does, the carrier is the whole polytope (the top face).
        The empty set's carrier is the empty face.
        """
        sig = tuple(sorted(set(sigma)))
        if not sig:
            return ()
        if not set(sig) <= set(self.top()):
            raise ValueError(f"{sig} uses labels outside the vertex set")
        mask = mask_of(sig)
        acc = mask_of(self.top())
        found = False
        for row in self._facet_rows:
            fmask = int(self._masks[row])
            if fmask & mask == mask:
                acc &= fmask
                found = True
        if not found:
            return self.top()
        face = face_of(acc)
        if face not in self._index:
            raise AssertionError(f"carrier {face} escaped the closure")
        return face

    def carrier_dims(self, sigma_masks: np.ndarray) -> np.ndarray:
        """Dimensions of the carriers of many simplices at once.

        ``sigma_masks`` is a uint64 array of nonempty vertex bitmasks.
        """
        facet_masks = self._masks[list(self._facet_rows)]
        contains = (facet_masks[:, None] & sigma_masks[None, :]) == sigma_masks[None, :]
        full = np.uint64(mask_of(self.top()))
        stacked = np.where(contains, facet_masks[:, None], full)
        carriers = np.bitwise_and.reduce(stacked, axis=0)
        dim_by_mask = {int(m): fd for m, fd in zip(self._masks, self.dims)}
        return np.array([dim_by_mask[int(c)] for c in carriers], dtype=np.int64)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "d": self.d,
            "n": self.n,
            "faces": [list(f) for f in self.faces],
            "dims": list(self.dims),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _subset_matrix(masks: np.ndarray) -> np.ndarray:
    """Boolean matrix sub[i, j] = (face i is a subset of face j)."""
    count = len(masks)
    sub = np.empty((count, count), dtype=bool)
    for start in range(0, count, _CHUNK):
        rows = masks[start : start + _CHUNK, None]
        sub[start : start + _CHUNK] = (rows & masks[None, :]) == rows
    return sub


def _closure_masks(facet_masks: list[int], top_mask: int, cap: int) -> list[int]:
    faces = set(facet_masks)
    frontier = list(faces)
    while frontier:
        next_frontier = []
        for mask in frontier:
            for fmask in facet_masks:
                meet = mask & fmask
                if meet not in faces:
                    faces.add(meet)
                    next_frontier.append(meet)
                    if len(faces) > cap:
                        raise RuntimeError(
                            f"face closure exceeds the cap of {cap} faces; "
                            "raise ORDPOLY_MAX_FACES to allow more"
                        )
        frontier = next_frontier
    faces.add(0)
    faces.add(top_mask)
    return sorted(faces)


def _longest_chain_dims(masks: np.ndarray) -> np.ndarray:
    """Dimension of each face: longest chain from the empty face, minus one.

    Requires masks sorted so that any subset precedes its supersets
    (sorting by popcount suffices).
    """
    dims = np.full(len(masks), -1, dtype=np.int64)
    for i in range(1, len(masks)):
        before = masks[:i]
        below = np.flatnonzero((before & masks[i]) == before)
        if below.size:
            dims[i] = dims[below].max() + 1
    return dims


def build_face_lattice(facets: Sequence[VertexSet], d: int) -> FaceLattice:
    """Intersection-closure lattice of a facet list.

    Raises if the result is not a graded lattice of rank d+1 with the
    input facets at dimension d-1 and all vertex singletons present; a
    failure signals a bad facet list rather than a recoverable state.
    """
    if not facets:
        raise ValueError("facet list is empty")
    vertices = sorted(set().union(*map(set, facets)))
    if vertices[0] < 0:
        raise ValueError("negative vertex labels cannot appear in faces")
    if vertices[-1] > 62:
        raise ValueError("vertex labels above 62 are not supported")
    top_mask = mask_of(vertices)
    facet_masks = sorted({mask_of(f) for f in facets})
    if len(facet_masks) != len(facets):
        raise ValueError("duplicate facets")
    if top_mask in facet_masks:
        raise ValueError("a facet equals the whole vertex set")

    masks = _closure_masks(facet_masks, top_mask, _max_faces())
    masks.sort(key=lambda m: (bin(m).count("1"), m))
    dims = _longest_chain_dims(np.array(masks, dtype=np.uint64))

    faces = [face_of(m) for m in masks]
    order = sorted(range(len(faces)), key=lambda i: (dims[i], colex_key(faces[i])))
    faces = [faces[i] for i in order]
    dims_sorted = [int(dims[i]) for i in order]

    facet_set = {face_of(m) for m in facet_masks}
    facet_rows = [i for i, f in enumerate(faces) if f in facet_set]
    lattice = FaceLattice(faces, dims_sorted, d, vertices[-1], facet_rows)
    _validate_lattice(lattice, facet_set)
    return lattice


def _validate_lattice(lattice: FaceLattice, facet_set: set[VertexSet]) -> None:
    d = lattice.d
    if lattice.dims[-1] != d:
        raise ValueError(
            f"top face has rank {lattice.dims[-1] + 1}, expected {d + 1}: "
            "facet list does not describe a d-polytope"
        )
    for f in facet_set:
        if lattice.dim(f) != d - 1:
            raise ValueError(f"facet {f} has dimension {lattice.dim(f)} != {d - 1}")
    singletons = {(v,) for v in lattice.top()}
    atoms = {f for f, fd in zip(lattice.faces, lattice.dims) if fd == 0}
    if atoms != singletons:
        raise ValueError("atoms of the closure are not the vertex singletons")
    if not _graded(lattice):
        raise ValueError("face closure is not graded")


def _graded(lattice: FaceLattice) -> bool:
    """Every cover relation steps dimension by exactly one.

    A pair x < y is a cover iff nothing lies strictly between; counting
    the faces weakly between x and y via one matrix product makes covers
    the pairs with between-count exactly two.
    """
    sub = lattice._sub
    dims = np.asarray(lattice.dims)
    count = len(lattice.faces)
    zf = sub.astype(np.float32)
    for start in range(0, count, _CHUNK):
        rows = slice(start, min(start + _CHUNK, count))
        between = zf[rows] @ zf
        strict = sub[rows] & (dims[rows.start : rows.stop, None] < dims[None, :])
        covers = strict & (between == 2.0)
        jumps = dims[None, :] - dims[rows.start : rows.stop, None]
        if np.any(covers & (jumps != 1)):
            return False
    return True


def euler_check(lattice: FaceLattice) -> bool:
    """Eulerian test: the Moebius function must alternate by rank.

    Equivalent matrix form: with Z the reflexive containment matrix and
    s the rank signs (-1)^dim, the product Z diag(s) Z must be diag(s).
    Exact in float32 since all entries stay far below 2**24.
    """
    sub = lattice._sub
    dims = np.asarray(lattice.dims)
    count = len(lattice.faces)
    signs = np.where(dims % 2 == 0, 1.0, -1.0).astype(np.float32)
    zf = sub.astype(np.float32)
    signed = signs[:, None] * zf
    for start in range(0, count, _CHUNK):
        rows = slice(start, min(start + _CHUNK, count))
        prod = zf[rows] @ signed
        expect = np.zeros_like(prod)
        idx = np.arange(rows.start, rows.stop)
        expect[np.arange(len(idx)), idx] = signs[idx]
        if not np.array_equal(prod, expect):
            return False
    return True


def lattice_from_json(text: str) -> FaceLattice:
    """Rebuild a lattice from its canonical JSON document."""
    doc = json.loads(text)
    faces = [tuple(f) for f in doc["faces"]]
    dims = list(doc["dims"])
    d = doc["d"]
    facet_rows = [i for i, fd in enumerate(dims) if fd == d - 1]
    lattice = FaceLattice(faces, dims, d, doc["n"], facet_rows)
    recomputed = _longest_chain_dims(lattice._masks)
    if list(recomputed) != dims:
        raise ValueError("stored dimensions disagree with the containment order")
    return lattice
