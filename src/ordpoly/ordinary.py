"""Facet enumeration of P^{d,k,n} and the left/right shift maps.

Two independent constructions of the facet list are provided: direct
enumeration of the generator family (windows [i,i+2r-1] u Y u
[i+k,i+k+2r-1] retracted into [0,n]) and a recursion on n that shifts the
high facets of P^{d,k,n-1} to the right.  Their agreement is a standing
cross-check.  The recursion reads the enumeration's generators once, at
the cyclic base n = k, where it checks them against the Gale brute force;
from there it carries the generators of the facets that still move (max
at least n-1) up one level at a time, and sets the others aside.
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


def rsh(face: VertexSet, p: Params) -> VertexSet:
    """Right shift: maps a facet of P^{d,k,n-1} to a facet of p.

    The shift acts on generators, not vertex sets, so every generator of
    the facet is shifted and the images are required to agree.
    """
    d, k, n = p.d, p.k, p.n
    if p.is_multiplex:
        return _shift_by_index(face, _window_indices(d, n - 1), p)
    source = Params(d, k, n - 1)
    gens = _facet_generator_map(source).get(face)
    if gens is None:
        raise ValueError(f"{face} is not a facet of {source}")
    return _shift_generators(face, gens, n)[0]


def _window_indices(d: int, n: int) -> dict[VertexSet, int]:
    """Each facet of the multiplex M^{d,n} with its window index."""
    return {f: i for i, f in enumerate(multiplex_facets(d, n))}


def _shift_by_index(
    face: VertexSet, indices: dict[VertexSet, int], p: Params
) -> VertexSet:
    """The multiplex right shift onto p, given the window indices of the
    facets one size down.

    Clamped windows shift by index: the facet omitting i becomes the facet
    omitting i+1, and F_0 of the source maps onto F_0 again only through
    its generator; index lookup keeps this exact.
    """
    i = indices.get(face)
    if i is None:
        raise ValueError(f"{face} is not a facet of {Params(p.d, p.k, p.n - 1)}")
    return multiplex_facet(p.d, p.n, i + 1)


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


def _carried_generators(p: Params) -> Iterator[tuple[GeneratorMap, GeneratorMap]]:
    """Every facet of P^{d,k,nn} with its raw generators, for nn = k, ..., n,
    as one (newly settled, moving) pair of maps per level.

    A facet of level nn moves when its max is at least nn-1: the next
    level shifts it.  One with max <= nn-2 has settled: it is a facet of
    every later level, with the same generators, and is yielded only at
    the level where it settles.  Level nn's facets are those settled up to
    nn and its moving ones, and a level costs only its moving facets.

    The base n = k takes its generators from the one map of the cyclic
    polytope, whose facets must be the Gale brute force's.  Each later
    level nn shifts the generators of every moving facet by one; those
    with max exactly nn-2 also settle, generators unchanged.  A shifted
    image has max >= nn-1, so it moves again.  For k > d only: multiplex
    instances of even d have no generators, so ``facets_by_recursion``
    shifts those by window index.
    """
    base = Params(p.d, p.k, p.k)
    carried = _facet_generator_map(base)
    gale = _gale_facets(base)
    if set(carried) != set(gale):
        witness = colex_sorted(set(carried) ^ set(gale))[0]
        raise AssertionError(
            f"generator map of {base} disagrees with the Gale facets at {witness}"
        )
    moving = {f: gens for f, gens in carried.items() if f[-1] >= p.k - 1}
    yield {f: gens for f, gens in carried.items() if f[-1] <= p.k - 2}, moving
    for nn in range(p.k + 1, p.n + 1):
        settled = {f: gens for f, gens in moving.items() if f[-1] == nn - 2}
        moved = [_shift_generators(f, gens, nn) for f, gens in moving.items()]
        moving = dict(moved)
        # Every settled facet has max <= nn-2, so an image with max >= nn-1
        # cannot land on one.
        if len(moving) < len(moved) or any(f[-1] < nn - 1 for f in moving):
            raise AssertionError(f"facet recursion overlap at n={nn}")
        yield settled, moving


def facets_by_recursion(p: Params) -> list[VertexSet]:
    """Facet list built by recursion on n from the cyclic base n = k.

    Facets of the smaller polytope with max <= n-2 persist; those with
    max >= n-2 are right-shifted.  The two groups stay disjoint because
    shifting raises the maximum to at least n-1, and a facet with max
    <= n-2 never moves again, so each level costs only its moving facets
    and the list is colex-sorted once, at the end.  For k > d the right
    shift acts on generators carried up from the base (see
    ``_carried_generators``), so one call reads one generator map.  The
    multiplex case k = d shifts by window index: the base facets' indices
    are read from one index map, and the facet of index i moves onto the
    window of index i+1.
    """
    if p.is_multiplex:
        d, k = p.d, p.k
        base = Params(d, k, k)
        indices = _window_indices(d, k)
        # Each facet of the simplex P^{d,d,d} has max d-1 or d, so all move.
        moving: list[tuple[int, VertexSet]] = []
        for f in _gale_facets(base):
            i = indices.get(f)
            if i is None:
                raise ValueError(f"{f} is not a facet of {base}")
            moving.append((i, f))
        settled: list[VertexSet] = []
        for nn in range(k + 1, p.n + 1):
            settled += [f for _, f in moving if f[-1] == nn - 2]
            moving = [(i + 1, multiplex_facet(d, nn, i + 1)) for i, _ in moving]
            if any(f[-1] < nn - 1 for _, f in moving):
                raise AssertionError(f"facet recursion overlap at n={nn}")
        return colex_sorted(settled + [f for _, f in moving])
    facets: list[VertexSet] = []
    for settled_now, moving_now in _carried_generators(p):
        facets += settled_now
    return colex_sorted(facets + list(moving_now))
