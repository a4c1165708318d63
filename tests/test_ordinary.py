"""Facet enumeration for the general construction, the left and right
shifts, and the facet recursion under both shift rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_cyclic_facets, rsh
from ordpoly import ordinary
from ordpoly.combinat import Params, colex_key
from ordpoly.multiplex import multiplex_facets
from ordpoly.ordinary import (
    _facet_generator_map,
    _levels,
    enumerate_facets,
    facets_by_recursion,
    lsh,
)
from ordpoly.verify import grid_instances


instances = st.sampled_from(
    [(5, 6, 8), (5, 7, 9), (5, 6, 10), (7, 8, 10), (7, 9, 12), (4, 4, 8), (6, 6, 9)]
)


class TestEnumerate:
    @pytest.mark.parametrize("d,k", [(5, 5), (5, 6), (5, 8), (7, 7), (7, 10)])
    def test_cyclic_matches_brute_gale(self, d, k):
        p = Params(d, k, k)
        assert enumerate_facets(p) == brute_cyclic_facets(d, k)

    def test_cyclic_566_count(self):
        # 12 facets: complements {a,b} with b-a odd
        assert len(enumerate_facets(Params(5, 6, 6))) == 12

    def test_simplex(self):
        facets = enumerate_facets(Params(5, 5, 5))
        assert len(facets) == 6
        assert facets[-1] == (1, 2, 3, 4, 5)

    def test_flagship_table_facets(self):
        facets = enumerate_facets(Params(5, 6, 8))
        assert len(facets) == 16
        assert facets[0] == (0, 1, 2, 3, 4)
        assert facets[5] == (0, 1, 3, 4, 6, 7)
        assert facets[12] == (0, 1, 2, 3, 6, 7, 8)
        assert facets[15] == (4, 5, 6, 7, 8)

    def test_first_and_last_are_intervals(self):
        for d, k, n in [(5, 6, 9), (7, 9, 12), (5, 5, 8)]:
            facets = enumerate_facets(Params(d, k, n))
            assert facets[0] == tuple(range(d))
            assert facets[-1] == tuple(range(n - d + 1, n + 1))
            middles = [
                f
                for f in facets[1:]
                if f == tuple(range(f[0], f[0] + len(f)))
            ]
            assert middles == [facets[-1]]

    def test_multiplex_route_agrees_with_generators(self):
        # odd d >= 5 multiplexes go through the general machinery, so this
        # compares two genuinely different constructions
        from ordpoly.multiplex import multiplex_facets

        for n in (5, 7, 9):
            assert set(enumerate_facets(Params(5, 5, n))) == set(
                multiplex_facets(5, n)
            )

    @given(instances)
    @settings(deadline=None, max_examples=7)
    def test_recursion_route(self, dkn):
        p = Params(*dkn)
        assert enumerate_facets(p) == facets_by_recursion(p)

    def test_colex_strictly_increasing(self):
        facets = enumerate_facets(Params(7, 9, 13))
        keys = [colex_key(f) for f in facets]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestShifts:
    def test_lsh_example(self):
        p = Params(5, 6, 7)
        assert lsh((0, 1, 2, 5, 6, 7), p) == (0, 1, 4, 5, 6)

    def test_lsh_chain(self):
        assert lsh((0, 1, 2, 3, 6, 7, 8), Params(5, 6, 8)) == (0, 1, 2, 5, 6, 7)
        assert lsh((0, 1, 2, 5, 6, 7), Params(5, 6, 7)) == (0, 1, 4, 5, 6)

    def test_lsh_needs_room(self):
        with pytest.raises(ValueError):
            lsh((0, 1, 2, 3, 4), Params(5, 6, 6))

    def test_rsh_example(self):
        p = Params(5, 6, 7)
        assert rsh((0, 1, 4, 5, 6), p) == (0, 1, 2, 5, 6, 7)

    def test_rsh_multiplex_window_map(self):
        target = Params(5, 5, 8)
        bigger = set(enumerate_facets(target))
        for f in enumerate_facets(Params(5, 5, 7)):
            assert rsh(f, target) in bigger

    def test_rsh_refuses_a_non_facet_of_a_multiplex(self):
        refusal = r"^\(0, 1, 2\) is not a facet of P\^\{5,5,7\}$"
        with pytest.raises(ValueError, match=refusal):
            rsh((0, 1, 2), Params(5, 5, 8))

    @pytest.mark.parametrize("dkn", [(5, 5, 120), (6, 6, 120)])
    def test_multiplex_recursion_over_many_levels(self, dkn):
        # Over a hundred levels of the window-index shift, against the
        # clamped-window enumeration.
        p = Params(*dkn)
        assert facets_by_recursion(p) == enumerate_facets(p)

    def test_one_window_map_per_call(self, monkeypatch):
        # The base facets' window indices are read once; each moving facet
        # then carries its index up.
        calls = []
        real = ordinary.multiplex_facets

        def counted(d, n):
            calls.append((d, n))
            return real(d, n)

        monkeypatch.setattr(ordinary, "multiplex_facets", counted)
        facets_by_recursion(Params(6, 6, 120))
        assert calls == [(6, 6)]

    def test_colliding_windows_are_an_overlap(self, monkeypatch):
        # Indices n-1 and n landing on one window must be refused, as two
        # colliding generator images are.
        real = ordinary.multiplex_facet
        monkeypatch.setattr(
            ordinary, "multiplex_facet", lambda d, n, i: real(d, n, n if i >= n - 1 else i)
        )
        with pytest.raises(AssertionError, match=r"^facet recursion overlap at n=6$"):
            facets_by_recursion(Params(5, 5, 8))

    def test_multiplex_base_must_be_windows(self, monkeypatch):
        real = ordinary._gale_facets(Params(5, 5, 5))
        swapped = [(0, 1, 2, 5) if f == (0, 1, 2, 3, 5) else f for f in real]
        assert swapped != real
        monkeypatch.setattr(ordinary, "_gale_facets", lambda p: swapped)
        refusal = r"^\(0, 1, 2, 5\) is not a facet of P\^\{5,5,5\}$"
        with pytest.raises(ValueError, match=refusal):
            facets_by_recursion(Params(5, 5, 7))

    @given(st.sampled_from([(5, 6, 8), (5, 7, 9), (7, 9, 12)]))
    @settings(deadline=None, max_examples=3)
    def test_lsh_lands_in_smaller_instance(self, dkn):
        d, k, n = dkn
        p = Params(d, k, n)
        smaller = set(enumerate_facets(Params(d, k, n - 1)))
        for f in enumerate_facets(p):
            if f[-1] >= k:
                assert lsh(f, p) in smaller


def assert_levels(p, expected):
    """Check each level of ``_levels(p)`` before the iterator advances: the
    settled and moving parts must be disjoint, and together exactly
    ``expected(nn)``; and count the levels."""
    settled = {}
    levels = 0
    for nn, (newly, moving) in enumerate(_levels(p), p.k):
        assert not newly.keys() & settled.keys(), nn
        settled.update(newly)
        assert not settled.keys() & moving.keys(), nn
        assert {**settled, **moving} == expected(nn), nn
        levels += 1
    assert levels == p.n - p.k + 1


class TestCarriedRecursion:
    """The recursion carries generators (k > d) or window indices (k = d)
    up from the cyclic base instead of reading the facets of every smaller
    polytope."""

    @pytest.mark.parametrize(
        "p", [p for p in grid_instances() if not p.is_multiplex] + [Params(5, 6, 40)], ids=str
    )
    def test_carried_maps_match_the_enumeration(self, p):
        assert_levels(p, lambda nn: _facet_generator_map(Params(p.d, p.k, nn)))

    @pytest.mark.parametrize("dkn", [(2, 2, 60), (3, 3, 120), (4, 4, 120), (5, 5, 40), (6, 6, 120)])
    def test_carried_indices_match_the_windows(self, dkn):
        p = Params(*dkn)
        assert_levels(p, lambda nn: {f: i for i, f in enumerate(multiplex_facets(p.d, nn))})

    def test_one_generator_map_per_call(self):
        _facet_generator_map.cache_clear()
        facets_by_recursion(Params(5, 6, 40))
        assert _facet_generator_map.cache_info().misses == 1

    def test_base_must_be_the_gale_facets(self, monkeypatch):
        real = _facet_generator_map(Params(5, 6, 6))
        dropped = (0, 1, 2, 4, 5)
        monkeypatch.setattr(
            ordinary,
            "_facet_generator_map",
            lambda p: {f: g for f, g in real.items() if f != dropped},
        )
        with pytest.raises(AssertionError, match=r"Gale facets at \(0, 1, 2, 4, 5\)"):
            facets_by_recursion(Params(5, 6, 8))

    def test_bogus_generator_is_an_ambiguous_shift(self, monkeypatch):
        # (0, 1, 2, 4, 5) retracts onto itself at n = 6, but its shift
        # misses 0, unlike the shift of the facet's real generator
        # (-2, -1, 1, 2, 4, 5).
        real = _facet_generator_map(Params(5, 6, 6))
        facet = (0, 1, 2, 4, 5)
        assert rsh(facet, Params(5, 6, 7)) == (0, 2, 3, 5, 6)
        bogus = {**real, facet: [*real[facet], facet]}
        monkeypatch.setattr(ordinary, "_facet_generator_map", lambda p: bogus)
        with pytest.raises(AssertionError, match=r"ambiguous right shift of \(0, 1, 2, 4, 5\)"):
            facets_by_recursion(Params(5, 6, 8))
