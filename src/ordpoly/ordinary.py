"""Facet enumeration of P^{d,k,n}, the left shift and the facet recursion.

Two independent constructions of the facet list are provided: direct
enumeration of the generator family (windows [i,i+2r-1] u Y u
[i+k,i+k+2r-1] retracted into [0,n]) and a recursion on n that shifts the
high facets of P^{d,k,n-1} to the right.  Their agreement is a standing
cross-check.  The recursion reads its base once, at the cyclic polytope
n = k, where it checks it against the Gale brute force; from there it
carries the generators (for k > d) or window indices (for k = d) of the
facets that still move (max at least n-1) up one level at a time, and
sets the others aside.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .combinat import (
    Interval,
    Params,
    VertexSet,
    colex_sorted,
    is_gale,
    paired_subsets,
    retract,
)
from .multiplex import multiplex_facet, multiplex_facets

RawGenerator = tuple[int, ...]
GeneratorMap = dict[VertexSet, list[RawGenerator]]


def _generator_windows(p: Params):
    """Yield every raw generator set for p, as a sorted tuple of integers.

    The window origin i ranges over [-k, n]: for i < -k the left block and
    the paired part clamp onto {0} while the right block covers at most
    [0, d-3], so the retraction has fewer than d elements; for i > n the
    whole set clamps onto {n}.  Origins in between are exhaustive.  The
    generators at origin i are those at origin 0 shifted by i, so each r
    lists its paired parts once.
    """
    d, k, n = p.d, p.k, p.n
    for r in range(1, p.m + 1):
        # left block, paired part and right block lie in this order
        left, right = tuple(range(2 * r)), tuple(range(k, k + 2 * r))
        shapes = [
            left + y + right
            for y in paired_subsets(Interval(2 * r + 1, k - 2), d - 2 * r - 1)
        ]
        for i in range(-k, n + 1):
            for gen in shapes:
                yield tuple([x + i for x in gen])


@lru_cache(maxsize=None)
def _facet_generator_map(p: Params) -> GeneratorMap:
    """Map each facet to every raw generator that retracts onto it."""
    d, n = p.d, p.n
    if p.is_multiplex and (d % 2 == 0 or d < 5):
        # The generator family is empty for even d (the paired part would
        # need odd size); facets come straight from the clamped-window
        # definition.  Odd d >= 5 goes through the generators even when
        # k = d, so the multiplex identity P^{d,d,n} = M^{d,n} is a real
        # cross-check.
        return {f: [] for f in multiplex_facets(d, n)}
    out: GeneratorMap = {}
    for gen in _generator_windows(p):
        facet = retract(gen, n)
        if len(facet) >= d:
            out.setdefault(facet, []).append(gen)
    return out


def enumerate_facets(p: Params) -> list[VertexSet]:
    """All facets of P^{d,k,n}, colex-sorted and deduplicated."""
    facets = colex_sorted(_facet_generator_map(p))
    if not facets:
        raise AssertionError(f"no facets found for {p}")
    return facets


def lsh(face: VertexSet, p: Params) -> VertexSet:
    """Left shift: the facet of P^{d,k,n-1} obtained by shifting down.

    Generator-free evaluation: the result minus 0 is (F-1) restricted to
    positive labels, and 0 belongs to the result iff 0 or 1 is in F.  Only
    facets with max F >= k are guaranteed to shift onto facets.
    """
    if p.n <= p.k:
        raise ValueError(f"{p} admits no left shift (n must exceed k)")
    if not face or max(face) < p.k:
        raise ValueError(f"left shift needs max F >= k, got F={face}")
    shifted = [v - 1 for v in face if v >= 2]
    if 0 in face or 1 in face:
        shifted.insert(0, 0)
    return tuple(shifted)


def _shift_generators(
    face: VertexSet, gens: list[RawGenerator], n: int
) -> tuple[VertexSet, list[RawGenerator]]:
    """The right shift of ``face`` onto [0, n] and its shifted generators.

    Every generator moves up by one (x -> x+1); their retractions into
    [0, n] must all be one facet.
    """
    shifted = [tuple([x + 1 for x in gen]) for gen in gens]
    images = {retract(gen, n) for gen in shifted}
    if len(images) != 1:
        raise AssertionError(f"ambiguous right shift of {face}: {sorted(images)}")
    return images.pop(), shifted


def _gale_facets(p: Params) -> list[VertexSet]:
    """Base case n = k: the d-element Gale subsets of [0, k]."""
    ground = Interval(0, p.k)
    return colex_sorted(
        f for f in combinations(ground.members(), p.d) if is_gale(f, ground)
    )


def _levels(p: Params) -> Iterator[tuple[dict, dict]]:
    """Every facet of P^{d,k,nn} with what it carries, for nn = k, ..., n,
    as one (newly settled, moving) pair of maps per level.

    A facet of level nn moves when its max is at least nn-1: the next
    level shifts it.  One with max <= nn-2 has settled: it is a facet of
    every later level and is yielded only at the level where it settles,
    so a level costs only its moving facets.  Its images must be distinct
    and have max >= nn-1, so they move again.  For k > d a facet carries
    its raw generators, each shifted up by one; for k = d (even d has no
    generators) its window index i, and it moves onto the window i+1.
    """
    d, k = p.d, p.k
    base = Params(d, k, k)
    gale = _gale_facets(base)
    if p.is_multiplex:
        indices = {f: i for i, f in enumerate(multiplex_facets(d, k))}
        for f in gale:
            if f not in indices:
                raise ValueError(f"{f} is not a facet of {base}")
        carried = {f: indices[f] for f in gale}

        def shift(face: VertexSet, i: int, nn: int) -> tuple[VertexSet, int]:
            return multiplex_facet(d, nn, i + 1), i + 1

    else:
        carried = _facet_generator_map(base)
        if set(carried) != set(gale):
            witness = colex_sorted(set(carried) ^ set(gale))[0]
            raise AssertionError(
                f"generator map of {base} disagrees with the Gale facets at {witness}"
            )
        shift = _shift_generators
    moving = {f: c for f, c in carried.items() if f[-1] >= k - 1}
    yield {f: c for f, c in carried.items() if f[-1] <= k - 2}, moving
    for nn in range(k + 1, p.n + 1):
        settled = {f: c for f, c in moving.items() if f[-1] == nn - 2}
        moved = [shift(f, c, nn) for f, c in moving.items()]
        moving = dict(moved)
        # Every settled facet has max <= nn-2, so an image with max >= nn-1
        # cannot land on one.
        if len(moving) < len(moved) or any(f[-1] < nn - 1 for f in moving):
            raise AssertionError(f"facet recursion overlap at n={nn}")
        yield settled, moving


def facets_by_recursion(p: Params) -> list[VertexSet]:
    """Facet list built by recursion on n from the cyclic base n = k: the
    facets settled at every level of ``_levels`` and those still moving at
    the last, colex-sorted once.
    """
    facets: list[VertexSet] = []
    for settled, moving in _levels(p):
        facets += settled
    return colex_sorted(facets + list(moving))
