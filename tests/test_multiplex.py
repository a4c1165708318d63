"""Multiplex facet windows, triangulations of the solid, and boundary order."""

import pytest

from ordpoly.multiplex import (
    multiplex_boundary_triangulation,
    multiplex_facet,
    multiplex_facets,
    multiplex_g,
    multiplex_triangulation,
)


class TestFacets:
    def test_window_example(self):
        assert multiplex_facets(4, 5)[2] == (0, 1, 3, 4, 5)

    def test_count_and_distinct(self):
        for d, n in [(4, 4), (4, 7), (5, 8), (6, 9)]:
            facets = multiplex_facets(d, n)
            assert len(facets) == n + 1
            assert len(set(facets)) == n + 1

    def test_end_facets_are_simplices(self):
        facets = multiplex_facets(5, 9)
        assert facets[0] == (0, 1, 2, 3, 4)
        assert facets[-1] == (5, 6, 7, 8, 9)

    def test_middle_facets_omit_index(self):
        for d, n in [(4, 7), (5, 8)]:
            facets = multiplex_facets(d, n)
            for i in range(1, n):
                assert i not in facets[i]

    def test_single_facet_lookup_matches_list(self):
        facets = multiplex_facets(5, 8)
        for i, f in enumerate(facets):
            assert multiplex_facet(5, 8, i) == f

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            multiplex_facets(1, 5)
        with pytest.raises(ValueError):
            multiplex_facets(5, 4)


class TestSolidTriangulation:
    def test_window_list(self):
        assert multiplex_triangulation(5, 8) == [
            (0, 1, 2, 3, 4, 5),
            (1, 2, 3, 4, 5, 6),
            (2, 3, 4, 5, 6, 7),
            (3, 4, 5, 6, 7, 8),
        ]

    def test_simplex_case(self):
        assert multiplex_triangulation(4, 4) == [(0, 1, 2, 3, 4)]

    def test_counts(self):
        for d, n in [(4, 6), (5, 9), (6, 10)]:
            assert len(multiplex_triangulation(d, n)) == n - d + 1


class TestBoundaryTriangulation:
    def test_m58_order(self):
        steps = multiplex_boundary_triangulation(5, 8)
        assert len(steps) == 18
        assert steps[0].simplex == (0, 1, 2, 3, 4)
        assert (steps[0].tetra, steps[0].facet) == (0, 0)
        assert steps[-1].simplex == (4, 5, 6, 7, 8)
        assert (steps[-1].tetra, steps[-1].facet) == (3, 8)
        # walls between consecutive solid tetrahedra never appear
        for s in steps:
            assert s.simplex != (1, 2, 3, 4, 5)

    def test_simplex_boundary(self):
        # end walls are relabeled: position 0 drops vertex d, position n drops 0
        steps = multiplex_boundary_triangulation(4, 4)
        assert [s.simplex for s in steps] == [
            (0, 1, 2, 3),
            (0, 2, 3, 4),
            (0, 1, 3, 4),
            (0, 1, 2, 4),
            (1, 2, 3, 4),
        ]
        assert [s.facet for s in steps] == [0, 1, 2, 3, 4]

    def test_boundary_is_the_union_of_tetra_walls_minus_interior(self):
        d, n = 5, 9
        solid = multiplex_triangulation(d, n)
        walls = {}
        for idx, t in enumerate(solid):
            for v in t:
                wall = tuple(u for u in t if u != v)
                walls.setdefault(wall, []).append(idx)
        expected = {w for w, owners in walls.items() if len(owners) == 1}
        steps = multiplex_boundary_triangulation(d, n)
        assert {s.simplex for s in steps} == expected
        assert len(steps) == len(expected)


class TestG:
    def test_examples(self):
        assert multiplex_g(4, 7) == (1, 2)
        assert multiplex_g(4, 5) == (1,)
        assert multiplex_g(2, 5) == (1, 2)

    def test_simplex_g_trivial(self):
        for e in range(1, 7):
            assert multiplex_g(e, e + 1) == (1,)
