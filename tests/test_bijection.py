"""Step-simplex decomposition and the size-indexed subset correspondence."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordpoly import bijection
from ordpoly.bijection import (
    bijection_records,
    count_by_size,
    decompose_step_simplex,
    facet_to_subset,
    increment_steps,
    subset_to_facet,
)
from ordpoly.combinat import Params
from ordpoly.hvector import h_closed_form
from ordpoly.ordinary import enumerate_facets
from ordpoly.triangulation import triangulation_shelling
from ordpoly.verify import grid_instances

STABLE = [p for p in grid_instances() if p.n >= p.d + p.k - 1]

TABLE3 = [
    ((4, 5, 7, 8, 10, 11, 13), (5, 11, 13), 4, 8, 13, (10, 11), 2, (9, 12), (0, 1), (2, 4)),
    ((5, 8, 9, 10, 11, 13, 14), (9, 11, 14), 5, 6, 13, (8, 9, 10, 11), 1, (7, 12), (0, 2), (1, 4)),
    ((3, 4, 5, 7, 8, 11, 12), (4, 5, 12), 3, 8, 11, (), 3, (9, 10), (0, 0), (3, 4)),
    ((4, 5, 7, 8, 11, 12, 13), (5, 12, 13), 4, 8, 13, (11, 12), 2, (9, 10), (0, 0), (2, 3)),
    ((5, 8, 9, 11, 12, 13, 14), (9, 12, 14), 5, 6, 13, (8, 9, 11, 12), 1, (7, 10), (0, 1), (1, 3)),
    ((5, 9, 10, 11, 12, 13, 14), (10, 12, 14), 5, 6, 13, (9, 10, 11, 12), 1, (7, 8), (0, 0), (1, 2)),
]


class TestTable3:
    def test_rows(self, b7915):
        records = bijection_records(b7915.p, 3)
        assert len(records) == 6
        got = [
            (r.simplex, r.new_face, r.b, r.c, r.e, r.Y, r.a1, r.x_values,
             r.y_counts, r.A)
            for r in records
        ]
        assert got == TABLE3

    def test_decompose_is_pure(self, b7915):
        for row in TABLE3:
            record = decompose_step_simplex(row[0], b7915.p)
            assert record.A == row[9]
            assert record.i == 3


class TestCounts:
    def test_table_sizes_for_growing_i(self, b7915):
        assert count_by_size(b7915.p, 1) == 1
        assert count_by_size(b7915.p, 2) == 3
        assert count_by_size(b7915.p, 3) == 6

    def test_counts_match_h_increment(self, b7915):
        p = b7915.p
        prev = h_closed_form(Params(p.d, p.k, p.n - 1))
        here = h_closed_form(p)
        for i in range(1, p.d):
            assert count_by_size(p, i) == here[i] - prev[i]

    def test_small_size_closed_form(self, b7915):
        p = b7915.p
        for i in range(1, (p.d - 1) // 2 + 1):
            assert count_by_size(p, i) == comb(p.k - p.d + i - 1, i - 1)

    def test_refuses_unstable_instance(self):
        with pytest.raises(ValueError):
            count_by_size(Params(5, 6, 8), 1)

    def test_increment_steps_are_the_new_max_facets(self, b7915):
        steps = increment_steps(b7915.p)
        assert steps
        for s in steps:
            facet = b7915.facets[s.facet_index - 1]
            assert facet[-1] == b7915.p.n - 1

    def test_increment_steps_triangulate_only_the_counted_facets(self, monkeypatch):
        p = Params(7, 9, 15)
        given_steps = []
        build = bijection.triangulation_shelling

        def recorded(q, steps=None):
            given_steps.append(steps)
            return build(q, steps)

        monkeypatch.setattr(bijection, "triangulation_shelling", recorded)
        increment_steps.cache_clear()
        increment_steps(p)
        assert len(given_steps) == 1 and given_steps[0] is not None
        assert given_steps[0]
        assert all(s.facet[-1] == p.n - 1 for s in given_steps[0])
        # every size reads the steps of the latest instance; another
        # instance replaces them
        for i in range(1, p.d):
            count_by_size(p, i)
        assert len(given_steps) == 1
        count_by_size(Params(5, 6, 10), 1)
        count_by_size(p, 1)
        assert len(given_steps) == 3

    @pytest.mark.parametrize(
        "p", [*STABLE, Params(9, 11, 40), Params(5, 6, 120)], ids=str
    )
    def test_increment_steps_equal_the_filtered_full_triangulation(self, p):
        facets = enumerate_facets(p)
        expected = tuple(
            s
            for s in triangulation_shelling(p)
            if facets[s.facet_index - 1][-1] == p.n - 1
        )
        assert increment_steps(p) == expected


class TestRoundTrip:
    def test_all_rows_round_trip(self, b7915):
        p = b7915.p
        for record in bijection_records(p, 3):
            a_set = facet_to_subset(record.simplex, p, 3)
            assert a_set == record.A
            back = subset_to_facet(a_set, p, 3)
            assert back == record.simplex

    def test_subsets_enumerate_completely(self, b7915):
        p = b7915.p
        for i in (1, 2, 3):
            records = bijection_records(p, i)
            subsets = [r.A for r in records]
            assert len(set(subsets)) == len(subsets)
            size = p.k - p.d
            expected = set(combinations(range(1, size + i), size))
            assert set(subsets) == expected

    def test_empty_subset_multiplex(self):
        p = Params(5, 5, 9)
        assert subset_to_facet((), p, 2) == (2, 3, 5, 6, 7)

    @given(st.sampled_from([(5, 6, 10), (5, 7, 11), (7, 9, 15), (5, 5, 9)]),
           st.data())
    @settings(deadline=None, max_examples=12)
    def test_random_subset_round_trips(self, dkn, data):
        p = Params(*dkn)
        i = data.draw(st.integers(1, (p.d - 1) // 2))
        size = p.k - p.d
        universe = list(range(1, size + i))
        if size:
            a_set = tuple(sorted(data.draw(
                st.sets(st.sampled_from(universe), min_size=size, max_size=size)
            )))
        else:
            a_set = ()
        simplex = subset_to_facet(a_set, p, i)
        assert facet_to_subset(simplex, p, i) == a_set


class TestValidation:
    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            bijection_records(Params(5, 6, 8), 2)

    def test_rejects_bad_i(self, b7915):
        with pytest.raises(ValueError):
            subset_to_facet((1, 2), b7915.p, 0)
        with pytest.raises(ValueError):
            bijection_records(b7915.p, 4)

    def test_rejects_non_step_simplex(self, b7915):
        with pytest.raises(ValueError):
            decompose_step_simplex((0, 1, 2, 3, 4, 5, 6), b7915.p)
