"""Toric h-vectors by four independent routes, plus step contributions.

The four routes: the toric g/h recursion over the whole face lattice, a
closed binomial form, the modified-f-vector expansion, and the h-vector
of the shallow boundary triangulation (module ``triangulation``).  Their
exact agreement on every instance is the library's core claim.  The
recursion runs once per class of lower intervals, adding up the g of
the faces below by class: each class's count times its g.

Also here: the fake-simplicial h' (from the shelling's new-face sizes or
from the f-vector), and the per-step contributions a_j that measure
h - h', computed by two routes that must agree.

Every coefficient vector is a plain int tuple.  h, h', a_j and the
modified f-vector transform use the h alignment: entry i is the
coefficient of x^{d-i}.  A class's toric g is ascending, g_i at x^i,
with trailing zeros dropped.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import compress
from math import comb
from typing import Iterable, Sequence

from .combinat import Params, VertexSet, set_bits
from .lattice import FaceLattice

HVector = tuple[int, ...]
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # binary digits as the bytes 0 and 1


@lru_cache(maxsize=None)
def _x_minus_one_power(t: int) -> tuple[int, ...]:
    """Coefficients of (x-1)^t, ascending; the table under expand_x_minus_one."""
    return tuple(comb(t, i) * (-1) ** (t - i) for i in range(t + 1))


def expand_x_minus_one(terms: Iterable[tuple[int, int, int]], d: int) -> HVector:
    """Sum of c x^s (x-1)^t over the (c, s, t) terms, in the h alignment.

    Entry i of the result is the coefficient of x^{d-i}; a term of degree
    s + t above d is refused.
    """
    out = [0] * (d + 1)
    for c, s, t in terms:
        if t < 0 or s < 0 or s + t > d:
            raise ValueError(f"term x^{s} (x-1)^{t} does not fit degree {d}")
        top = d - s
        for j, b in enumerate(_x_minus_one_power(t)):
            out[top - j] += c * b
    return tuple(out)


# -- toric recursion ------------------------------------------------------


def toric_tables(lattice: FaceLattice) -> tuple[list[HVector], list[tuple[int, ...]]]:
    """h-vector and g-coefficients of (the boundary of) each face, per class.

    h of an e-face is the sum of g_t(x) (x-1)^{e-1-t} over the t-faces
    strictly below it.  That sum depends only on the isomorphism class of
    [empty, face], which the lattice's exact class key fixes, so entry c
    belongs to the class with first row ``lattice._class_reps[c]``.  The faces
    below are counted by class, each adding its count times its g; their
    classes have lower first rows, so one pass in class order has their g
    ready.  Class 0 is the empty face alone, whose g is 1 by convention;
    the last class is the top alone, whose h is the polytope's h-vector.

    The recursion assumes an Eulerian lattice, which ``euler_check``
    judges; it does not test it.  h_0 is 1 on every lattice: the empty
    face lies below every face and gives (x-1)^e, and a t-face with
    t >= 0 has g_i only for i <= t/2, so its term has degree below e.
    """
    dims, class_of, reps = lattice.dims, lattice._class_of, lattice._class_reps
    h_cls: list[HVector] = [(1,)]  # class 0 is the empty face's alone
    g_cls: list[tuple[int, ...]] = [(1,)]
    for y in reps[1:]:
        e = dims[y]
        # rows 0 .. y-1 of the down-set of y, as the bytes 0 and 1
        below = format(lattice._below(y), "b")[:0:-1].encode().translate(_DIGIT_BYTES)
        terms = [
            (c * gi, i, e - 1 - dims[reps[b]])
            for b, c in Counter(compress(class_of, below)).items()
            for i, gi in enumerate(g_cls[b])
            if gi
        ]
        h_vec = expand_x_minus_one(terms, e)
        g = [1] + [h_vec[i] - h_vec[i - 1] for i in range(1, e // 2 + 1)]
        while g[-1] == 0:
            g.pop()
        h_cls.append(h_vec)
        g_cls.append(tuple(g))
    return h_cls, g_cls


# -- closed form ----------------------------------------------------------


def h_closed_form(p: Params) -> HVector:
    """Binomial closed form for odd d, symmetric by construction."""
    d, k, n = p.d, p.k, p.n
    if d % 2 == 0:
        raise ValueError("the closed form applies to odd dimension only")
    half = [1] + [
        comb(k - d + i, i) + (n - k) * comb(k - d + i - 1, i - 1)
        for i in range(1, p.m + 1)
    ]
    return tuple(half + list(reversed(half)))


# -- modified f-vector route ----------------------------------------------


def modified_f(f: Sequence[int], flag0: Sequence[int]) -> tuple[int, ...]:
    """Modified f-vector (fbar_{-1} .. fbar_{d-1}) from f and f_{0,i}.

    Each face's vertex surplus over a simplex is charged to the face and
    to its one-lower neighbors, which is what makes the plain simplicial
    transform exact for multiplicial polytopes.
    """
    d = len(f)
    if len(flag0) != d - 1:
        raise ValueError(f"need {d - 1} flag entries, got {len(flag0)}")
    fb = [0] * (d + 1)
    fb[0] = 1
    fb[1] = f[0]
    for j in range(1, d - 1):
        fb[j + 1] = (
            f[j]
            + (flag0[j] - (j + 2) * f[j + 1])
            + (flag0[j - 1] - (j + 1) * f[j])
        )
    if d >= 2:
        fb[d] = f[d - 1] + (flag0[d - 2] - d * f[d - 1])
    return tuple(fb)


def _simplicial_transform(counts: Sequence[int], d: int) -> HVector:
    """Expand sum of counts[i] (x-1)^{d-i} and read off h_i at x^{d-i}."""
    if len(counts) != d + 1:
        raise ValueError(f"need d+1 = {d + 1} counts, got {len(counts)}")
    return expand_x_minus_one(((c, 0, d - i) for i, c in enumerate(counts)), d)


def multiplicial_h(f: Sequence[int], flag0: Sequence[int]) -> HVector:
    """Toric h from f and flag data alone, via the modified f-vector."""
    fb = modified_f(f, flag0)
    return _simplicial_transform(fb, len(f))


# -- fake-simplicial h' ---------------------------------------------------


def new_face_counts(new_faces: Iterable[VertexSet], d: int) -> HVector:
    """(c_0..c_d): c_i = number of new faces with i vertices."""
    out = [0] * (d + 1)
    for face in new_faces:
        if len(face) > d:
            raise ValueError(f"new face {face} larger than d")
        out[len(face)] += 1
    return tuple(out)


def h_prime_from_f(f: Sequence[int], d: int) -> HVector:
    """The simplicial f-to-h transform applied to a possibly nonsimplicial
    f-vector."""
    if len(f) != d:
        raise ValueError(f"need {d} entries, got {len(f)}")
    return _simplicial_transform((1, *f), d)


# -- per-step contributions ----------------------------------------------


def shelling_contributions(
    p: Params, lattice: FaceLattice, steps, triangulation_steps, intervals: Sequence[int]
) -> dict[int, HVector]:
    """Contribution a_j of each shelling step to h - h', in the h alignment.

    Computed two ways: (a) vertex-surplus counting over the step interval
    [G_j, F_j], read from its row bitset in ``intervals`` (see
    ``shelling.step_intervals``), each e-face charging its surplus to
    x (x-1)^{d-1-e}; (b) counting the new-face sizes of the non-final
    triangulation windows inside F_j, which reads no lattice.  The routes
    must agree entry by entry; any mismatch raises.
    """
    d = p.d
    by_facet: dict[int, list] = {}
    for t in triangulation_steps:
        by_facet.setdefault(t.facet_index, []).append(t)

    out: dict[int, HVector] = {}
    dims, masks = lattice.dims, lattice._masks
    for step, interval in zip(steps, intervals, strict=True):
        surplus = [0] * d  # vertex surplus over a simplex, by face dimension
        for r in set_bits(interval):
            e = dims[r]
            if 0 <= e <= d - 1:
                surplus[e] += masks[r].bit_count() - (e + 1)
        flag_route = expand_x_minus_one(
            ((c, 1, d - 1 - e) for e, c in enumerate(surplus) if c), d
        )

        last = len(step.facet) - d + 1
        inner = [t.new_face for t in by_facet.get(step.index, []) if t.window_index < last]
        window_route = new_face_counts(inner, d)
        if flag_route != window_route:
            raise RuntimeError(
                f"contribution routes disagree at step {step.index}: "
                f"interval counting gives {flag_route}, "
                f"window counting gives {window_route}"
            )
        out[step.index] = flag_route
    return out


def contribution_total(contributions: dict[int, HVector]) -> HVector:
    """Entrywise sum of the contributions: h - h' when the theory holds."""
    return tuple(map(sum, zip(*contributions.values())))
