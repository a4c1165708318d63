"""Base combinatorial vocabulary shared by every module.

A face of a polytope or of a triangulation is identified with its vertex
set, stored as a strictly increasing tuple of integer labels.  This module
supplies the primitive operations on such sets: retraction (clamping into
[0, n]), Gale evenness, paired subsets, maximal runs, even positions, the
colexicographic order used throughout, the bitmask encoding (bit v set
iff label v is in the set) with the maximal-masks helper, and the shelling
wall test on per-vertex incidence bitsets (bit i of row v set iff cell i
holds vertex v), which reads walls from position tables cached per size
and returns both the covered walls and the stray earlier cells, so each
caller names its own failure from one pass.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, NamedTuple, Sequence

VertexSet = tuple[int, ...]
# Walls of a cell, each as (positions inside it, positions outside it).
WallTable = Sequence[tuple[Sequence[int], Sequence[int]]]


class Interval(NamedTuple):
    """Integer interval [lo, hi], inclusive; empty when hi < lo."""

    lo: int
    hi: int

    @property
    def size(self) -> int:
        return max(0, self.hi - self.lo + 1)

    def members(self) -> range:
        return range(self.lo, self.hi + 1)

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and self.lo <= v <= self.hi


# Params' fields; a NamedTuple body may not define the validating __new__.
class _Triple(NamedTuple):
    d: int
    k: int
    n: int


class Params(_Triple):
    """Parameter triple (d, k, n) of an ordinary polytope P^{d,k,n}.

    Valid combinations:

    * k > d: the genuinely nonsimplicial, nonmultiplex family; requires
      d odd with d >= 5.
    * k == d: multiplex mode M^{d,n}; any d >= 2 is allowed.
    * n == k: cyclic mode C^{d,k} (simplicial boundary).

    Always n >= k >= d.
    """

    __slots__ = ()

    def __new__(cls, d: int, k: int, n: int) -> Params:
        if not (isinstance(d, int) and isinstance(k, int) and isinstance(n, int)):
            raise ValueError("d, k, n must be integers")
        if not n >= k >= d:
            raise ValueError(f"need n >= k >= d, got d={d}, k={k}, n={n}")
        if k == d:
            if d < 2:
                raise ValueError(f"multiplex mode needs d >= 2, got d={d}")
        else:
            if d < 5 or d % 2 == 0:
                raise ValueError(
                    f"k > d requires odd d >= 5, got d={d}, k={k}"
                )
        return super().__new__(cls, d, k, n)

    @property
    def m(self) -> int:
        return (self.d - 1) // 2

    @property
    def is_multiplex(self) -> bool:
        return self.k == self.d

    @property
    def is_cyclic(self) -> bool:
        return self.n == self.k

    def __str__(self) -> str:
        return f"P^{{{self.d},{self.k},{self.n}}}"


def retract(values: Iterable[int], n: int) -> VertexSet:
    """Clamp every element into [0, n], then deduplicate and sort.

    Negative elements collapse onto 0 and elements above n collapse onto n,
    so the result can be much smaller than the input.  The distinct values
    are sorted once and the two clamped ends found by bisection: the
    largest value <= 0 stands for all of them as 0, the smallest >= n as n.
    """
    if n < 0:
        raise ValueError(f"retraction bound must be >= 0, got {n}")
    s = sorted(set(values))
    if n == 0:
        # Both ends clamp onto the one label 0.
        return (0,) if s else ()
    lo, hi = bisect_right(s, 0), bisect_left(s, n)
    if lo:
        lo -= 1
        s[lo] = 0
    if hi < len(s):
        s[hi] = n
        hi += 1
    return tuple(s[lo:hi])


def maximal_runs(face: VertexSet) -> list[Interval]:
    """Partition a vertex set into maximal intervals of consecutive labels."""
    runs: list[Interval] = []
    if not face:
        return runs
    lo = prev = face[0]
    for v in face[1:]:
        if v != prev + 1:
            runs.append(Interval(lo, prev))
            lo = v
        prev = v
    runs.append(Interval(lo, prev))
    return runs


def run_containing(face: VertexSet, v: int) -> Interval:
    """The maximal run of consecutive labels of ``face`` that contains v."""
    for run in maximal_runs(face):
        if v in run:
            return run
    raise ValueError(f"{v} is not in {face}")


def even_positions(iv: Interval) -> VertexSet:
    """Second, fourth, ... elements of the interval: {lo+1, lo+3, ...}."""
    return tuple(range(iv.lo + 1, iv.hi + 1, 2))


def is_gale(subset: Iterable[int], ground: Interval) -> bool:
    """Gale evenness of ``subset`` inside the ordered ground interval.

    True iff between any two consecutive elements of ground minus the
    subset there is an even count of subset elements.  Runs touching an
    end of the ground interval are exempt.
    """
    sub = set(subset)
    if not all(v in ground for v in sub):
        raise ValueError(f"{sorted(sub)} is not a subset of [{ground.lo},{ground.hi}]")
    complement = [v for v in ground.members() if v not in sub]
    for left, right in zip(complement, complement[1:]):
        if (right - left - 1) % 2 != 0:
            return False
    return True


def colex_key(face: VertexSet) -> tuple[int, ...]:
    """Sort key realizing colex order: compare largest elements first.

    Reversing the tuple makes Python's lexicographic tuple comparison read
    the sets right to left; a set that runs out of elements compares as if
    padded with minus infinity, which is exactly the colex convention for
    sets of different sizes.
    """
    return tuple(reversed(face))


def colex_sorted(faces: Iterable[VertexSet]) -> list[VertexSet]:
    return sorted(faces, key=colex_key)


def _paired_from(lo: int, hi: int, size: int) -> Iterator[list[int]]:
    # Place the leftmost maximal run (even length, followed by a gap),
    # then recurse on the remainder of the interval.
    if size == 0:
        yield []
        return
    for start in range(lo, hi - size + 2):
        for length in range(2, size + 1, 2):
            head = list(range(start, start + length))
            for rest in _paired_from(start + length + 1, hi, size - length):
                yield head + rest


def paired_subsets(window: Interval, size: int) -> list[VertexSet]:
    """All size-``size`` subsets of ``window`` whose maximal runs all have
    even length, in colex order.

    Odd sizes admit no such subset; the result is then empty.
    """
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if size % 2 != 0 or size > window.size:
        return [] if size else [()]
    return colex_sorted(tuple(y) for y in _paired_from(window.lo, window.hi, size))


# -- bitmasks and the shelling wall test -----------------------------------


def mask_of(face: Iterable[int]) -> int:
    """Bitmask of a vertex set: bit v is set iff v is in ``face``."""
    mask = 0
    for v in face:
        mask |= 1 << v
    return mask


def set_bits(bits: int) -> list[int]:
    """Indices of the set bits of a nonnegative int, ascending.  Past 256
    bits, as in a lattice-wide row bitset, one ``str.find`` scan of the
    binary digits is faster than clearing the lowest bit per set bit."""
    out = []
    if bits.bit_length() > 256:
        digits = format(bits, "b")[::-1]
        i = digits.find("1")
        while i >= 0:
            out.append(i)
            i = digits.find("1", i + 1)
        return out
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def face_of(mask: int) -> VertexSet:
    """Vertex set of a bitmask, as a strictly increasing tuple."""
    return tuple(set_bits(mask))


def _maximal(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal members of a set of distinct masks."""
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        for k in kept:
            if m & k == m:
                break
        else:
            kept.append(m)
    return kept


def shelling_walls(
    cell: Sequence[int], walls: WallTable, rows: Sequence[int], earlier: int
) -> tuple[list[int], int]:
    """The shelling rule for one step, on per-vertex incidence bitsets.

    ``cell`` lists the cell's vertex labels, and each wall is a pair
    (positions inside the wall, positions outside it) into that list;
    the two must split its positions.  ``rows[v]`` is the bitset of the
    cells that hold vertex v, and ``earlier`` the bitset of the cells
    placed before ``cell``; bits of ``rows`` outside ``earlier`` are
    ignored.  ``rows`` must have an entry for each vertex of ``cell``.

    Returns (covered, stray): the indices of the walls that lie in an
    earlier cell, and the bitset of the earlier cells that meet ``cell``
    outside every covered wall.  The rule holds iff ``(covered or not
    earlier) and not stray``: past the first step some wall is covered,
    and every nonempty meet sits inside a covered wall.  A wall W is
    covered iff some earlier cell holds all its vertices, and an earlier
    cell meets ``cell`` inside W iff it holds no vertex of ``cell`` outside
    W, so neither part visits the earlier cells one by one.
    """
    held = [rows[v] & earlier for v in cell]
    covered: list[int] = []
    inside = touching = 0
    for h in held:
        touching |= h
    for i, (wall, rest) in enumerate(walls):
        holding = earlier
        for t in wall:
            holding &= held[t]
        if holding:
            covered.append(i)
            outside = 0
            for t in rest:
                outside |= held[t]
            inside |= earlier & ~outside
    return covered, touching & ~inside
