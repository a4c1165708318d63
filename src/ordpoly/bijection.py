"""Counting triangulation growth steps by subset bijection.

When n grows by one, the new h-vector entries are counted by the
triangulation steps whose shelled facet has maximum n-1.  For new-face
sizes i up to (d-1)/2 those steps biject with the (k-d)-subsets of
[1, k-d+i-1]; both directions of the bijection are implemented and the
counts therefore carry the closed form C(k-d+i-1, i-1).

The maps need n >= d+k-1; below that a step simplex can touch both 0 and
n and the block decomposition breaks down, so the operations refuse.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from .combinat import Params, VertexSet, maximal_runs
from .ordinary import enumerate_facets
from .shelling import ShellingStep, minimal_new_face_nonrecursive
from .triangulation import TriangulationStep, triangulation_shelling


class BijectionRecord(NamedTuple):
    """Block decomposition of a counted step simplex.

    The simplex splits into [b, n-k-1], [n-k+1, c], the paired middle Y,
    and the top block ending at b+k; the x-values are the gaps left in
    [c+1, e-1] and the y-counts their pair depths inside Y.
    """

    simplex: VertexSet
    new_face: VertexSet
    b: int
    c: int
    e: int
    Y: VertexSet
    a1: int
    x_values: VertexSet
    y_counts: tuple[int, ...]
    A: VertexSet
    i: int


def _require_stable(p: Params) -> None:
    if p.n < p.d + p.k - 1:
        raise ValueError(
            f"the counting bijection needs n >= d+k-1, got {p}"
        )


def decompose_step_simplex(simplex: VertexSet, p: Params) -> BijectionRecord:
    """Validate the four-block shape of a counted simplex and read off
    every derived quantity, including the subset A."""
    _require_stable(p)
    d, k, n = p.d, p.k, p.n
    if len(simplex) != d:
        raise ValueError(f"expected a d-set, got {simplex}")
    b = simplex[0]
    if simplex[-1] != b + k:
        raise ValueError(f"{simplex}: top must sit exactly k above the bottom")
    a1 = n - k - b
    if a1 < 1:
        raise ValueError(f"{simplex}: bottom block would be empty")
    if n - k in simplex:
        raise ValueError(f"{simplex}: must omit n-k")
    runs = maximal_runs(simplex)
    if runs[0] != range(b, n - k):
        raise ValueError(f"{simplex}: bottom block is not [b, n-k-1]")
    e = b + k - 1 if a1 % 2 == 1 else b + k
    if not all(v in simplex for v in range(e, b + k + 1)):
        raise ValueError(f"{simplex}: top block must cover [{e}, {b + k}]")
    middle = [v for v in simplex if n - k < v < e]
    if middle and middle[0] == n - k + 1:
        c = next(run[-1] for run in runs if n - k + 1 in run)
    else:
        c = n - k
    y = tuple(v for v in middle if v > c)
    if any(len(run) % 2 for run in maximal_runs(y)):
        raise ValueError(f"{simplex}: middle part {y} is not paired")
    if y and y[0] == c + 1:
        raise ValueError(f"{simplex}: paired part may not touch the c-block")
    i = a1 + len(y) // 2
    y_set = set(y)
    x_values = tuple(v for v in range(c + 1, e) if v not in y_set)
    if len(x_values) != k - d:
        raise ValueError(
            f"{simplex}: expected {k - d} gap values, got {x_values}"
        )
    y_counts = []
    for x in x_values:
        below = sum(1 for v in y if v < x)
        if below % 2:
            raise ValueError(f"{simplex}: gap {x} splits a pair of {y}")
        y_counts.append(below // 2)
    a_set = tuple(
        a1 + y_counts[ell] + ell for ell in range(len(x_values))
    )
    new_face = tuple(
        sorted(
            set(range(b + 1, n - k))
            | {v for run in maximal_runs(y) for v in run[1::2]}
            | {b + k}
        )
    )
    return BijectionRecord(
        simplex=simplex,
        new_face=new_face,
        b=b,
        c=c,
        e=e,
        Y=y,
        a1=a1,
        x_values=x_values,
        y_counts=tuple(y_counts),
        A=a_set,
        i=i,
    )


def facet_to_subset(simplex: VertexSet, p: Params, i: int) -> VertexSet:
    """Map a counted step simplex with new-face size i to its subset A."""
    record = decompose_step_simplex(simplex, p)
    if record.i != i:
        raise ValueError(
            f"{simplex} decomposes with new-face size {record.i}, not {i}"
        )
    _check_subset(record.A, p, i)
    return record.A


def _check_subset(a_set: VertexSet, p: Params, i: int) -> None:
    size = p.k - p.d
    if len(a_set) != size:
        raise ValueError(f"A must have k-d = {size} elements, got {a_set}")
    if list(a_set) != sorted(set(a_set)):
        raise ValueError(f"A must be strictly increasing, got {a_set}")
    if a_set and not (1 <= a_set[0] and a_set[-1] <= size + i - 1):
        raise ValueError(f"A must sit inside [1, {size + i - 1}], got {a_set}")


def subset_to_facet(a_set: VertexSet, p: Params, i: int) -> VertexSet:
    """Inverse map: rebuild the step simplex from the subset A.

    With k = d the subset is empty and the bottom block length defaults
    to i itself, which is the unique choice making |Y| = 2i - 2 a_1 = 0.
    """
    _require_stable(p)
    d, k, n = p.d, p.k, p.n
    if not 1 <= i <= (d - 1) // 2:
        raise ValueError(f"new-face size must be in [1, {(d - 1) // 2}], got {i}")
    _check_subset(a_set, p, i)
    a1 = a_set[0] if a_set else i
    chi = a1 % 2
    x1 = n - k + d - 2 * i + a1 - chi
    removed = {
        x1 + 2 * (a_set[ell] - a1) - ell for ell in range(len(a_set))
    }
    y = tuple(
        v for v in range(x1, n - a1 - chi) if v not in removed
    )
    simplex = tuple(
        sorted(
            set(range(n - k - a1, n - k))
            | set(range(n - k + 1, x1))
            | set(y)
            | set(range(n - a1 - chi, n - a1 + 1))
        )
    )
    record = decompose_step_simplex(simplex, p)
    if record.A != a_set or record.i != i:
        raise AssertionError(
            f"rebuilt simplex {simplex} decomposes to {record.A}, "
            f"size {record.i}; expected {a_set}, size {i}"
        )
    return simplex


@lru_cache(maxsize=1)
def increment_steps(p: Params) -> tuple[TriangulationStep, ...]:
    """Steps whose shelled facet has maximum n-1: the h-growth witnesses.

    Only those facets get a shelling step, with its index in the colex
    order and its nonrecursive new face, and only their windows are
    triangulated.  Built once per instance and held for the instance of
    the latest call alone: every size i of ``count_by_size`` and
    ``bijection_records`` reads the same steps.
    """
    _require_stable(p)
    steps = [
        ShellingStep(j, f, minimal_new_face_nonrecursive(f, p))
        for j, f in enumerate(enumerate_facets(p), 1)
        if f[-1] == p.n - 1
    ]
    return tuple(triangulation_shelling(p, steps))


def count_by_size(p: Params, i: int) -> int:
    """Number of counted steps with new-face size i, 1 <= i <= d-1.

    Inside the bijective range i <= (d-1)/2 the count is asserted against
    the closed form C(k-d+i-1, i-1); above it the plain count is
    returned.
    """
    if not 1 <= i <= p.d - 1:
        raise ValueError(f"size must be in [1, {p.d - 1}], got {i}")
    count = sum(1 for s in increment_steps(p) if len(s.new_face) == i)
    if i <= (p.d - 1) // 2:
        expected = comb(p.k - p.d + i - 1, i - 1)
        if count != expected:
            raise AssertionError(
                f"{p}, size {i}: counted {count} steps, closed form says "
                f"{expected}"
            )
    return count


def bijection_records(p: Params, i: int) -> list[BijectionRecord]:
    """Decompositions of all counted steps with new-face size i, in
    shelling order; each record's formula new face must match the step's."""
    if not 1 <= i <= (p.d - 1) // 2:
        raise ValueError(
            f"records exist for sizes in [1, {(p.d - 1) // 2}], got {i}"
        )
    out = []
    for step in increment_steps(p):
        if len(step.new_face) != i:
            continue
        record = decompose_step_simplex(step.simplex, p)
        if record.new_face != step.new_face:
            raise AssertionError(
                f"step ({step.facet_index},{step.window_index}): recursion "
                f"gives {step.new_face}, block formula gives {record.new_face}"
            )
        out.append(record)
    return out
