"""Four h-vector routes, the difference decomposition, and g polynomials."""

from math import comb

import pytest

from oracles import NOT_EULERIAN, SAME_RENUMBERED_COVERS, assert_toric_by_rows
from ordpoly.combinat import Params
from ordpoly.hvector import (
    contribution_total,
    h_closed_form,
    h_prime_from_f,
    multiplicial_h,
    new_face_counts,
    shelling_contributions,
    toric_tables,
)
from ordpoly.lattice import build_face_lattice
from ordpoly.verify import InstanceBundle, grid_instances


class TestClosedForm:
    def test_flagship(self):
        assert h_closed_form(Params(5, 6, 8)) == (1, 4, 7, 7, 4, 1)

    def test_larger(self):
        assert h_closed_form(Params(7, 9, 15)) == (1, 9, 24, 46, 46, 24, 9, 1)
        assert h_closed_form(Params(7, 10, 14)) == (1, 8, 26, 60, 60, 26, 8, 1)

    def test_cyclic(self):
        assert h_closed_form(Params(5, 6, 6)) == (1, 2, 3, 3, 2, 1)

    def test_formula_entries(self):
        d, k, n = 5, 7, 11
        h = h_closed_form(Params(d, k, n))
        for i in range((d + 1) // 2):
            expected = comb(k - d + i, i)
            if i >= 1:
                expected += (n - k) * comb(k - d + i - 1, i - 1)
            assert h[i] == expected

    def test_even_dimension_refused(self):
        with pytest.raises(ValueError):
            h_closed_form(Params(4, 4, 7))


class TestToric:
    def test_flagship(self, b568):
        assert b568.h == (1, 4, 7, 7, 4, 1)

    def test_agrees_with_closed_form(self, bundles):
        for dkn in [(5, 6, 6), (5, 6, 9), (5, 7, 9), (7, 9, 11)]:
            b = bundles(*dkn)
            assert b.h == h_closed_form(b.p)

    def test_multiplex_flat(self, m58):
        assert m58.h == (1, 4, 4, 4, 4, 1)

    def test_toric_g_of_whole_lattice(self, b568):
        assert b568.toric[1][-1] == (1, 3, 3)

    def test_toric_g_of_simplex_face(self, b568):
        lattice = b568.lattice
        assert b568.toric[1][lattice._class_of[lattice.index((0, 1, 2, 3, 4))]] == (1,)


class TestToricByClass:
    """The per-class sums against the row-by-row walk, row for row."""

    @pytest.mark.parametrize("p", [*grid_instances(), Params(7, 9, 20)], ids=str)
    def test_matches_rows_on_instances(self, p, bundles):
        assert_toric_by_rows(bundles(p.d, p.k, p.n).lattice)

    @pytest.mark.parametrize("name", NOT_EULERIAN)
    def test_matches_rows_off_eulerian(self, name):
        assert_toric_by_rows(build_face_lattice(*NOT_EULERIAN[name]))

    def test_matches_rows_where_the_covers_alone_are_not_exact(self):
        # a class key without the covers' classes would merge two facets
        # with 30 and 28 faces below and copy one's g onto the other
        assert_toric_by_rows(build_face_lattice(*SAME_RENUMBERED_COVERS))


class TestMultiplicial:
    def test_flagship(self, b568):
        lattice = b568.lattice
        h = multiplicial_h(lattice.f_vector(), lattice.flag_f0())
        assert h == (1, 4, 7, 7, 4, 1)

    def test_golden_input_shape(self):
        # the worked example's f-vector and vertex totals by themselves
        assert multiplicial_h((9, 31, 52, 44, 16), (62, 158, 184, 88)) == (
            1, 4, 7, 7, 4, 1,
        )


class TestHPrime:
    def test_from_shelling(self, b568):
        assert b568.h_prime == (1, 4, 5, 3, 2, 1)

    def test_from_f(self, b568):
        assert h_prime_from_f(b568.lattice.f_vector(), 5) == (1, 4, 5, 3, 2, 1)

    def test_multiplex(self, m58):
        assert m58.h_prime == (1, 4, 1, 1, 1, 1)

    def test_simplicial_case_equals_h(self, bundles):
        b = bundles(5, 6, 6)
        assert b.h_prime == b.h

    def test_f_recovered_from_h_prime(self, b568):
        # the inverse of the f-to-h' transform, f_l = sum C(d-i, l-i+1) h'_i
        hp, d = (1, 4, 5, 3, 2, 1), 5
        f = tuple(
            sum(comb(d - i, ell - i + 1) * hp[i] for i in range(ell + 2))
            for ell in range(d)
        )
        assert f == b568.lattice.f_vector() == (9, 31, 52, 44, 16)

    def test_simplex_all_ones(self):
        f = (6, 15, 20, 15, 6)
        assert h_prime_from_f(f, 5) == (1, 1, 1, 1, 1, 1)


class TestContributions:
    def test_flagship_nonzero_entries(self, b568):
        nonzero = {j: a for j, a in b568.contributions.items() if any(a)}
        assert nonzero == {
            6: (0, 0, 1, 0, 0, 0),
            7: (0, 0, 0, 1, 0, 0),
            11: (0, 0, 1, 0, 0, 0),
            12: (0, 0, 0, 1, 0, 0),
            13: (0, 0, 0, 2, 0, 0),
            15: (0, 0, 0, 0, 2, 0),
        }

    def test_difference_identity(self, b568):
        total = contribution_total(b568.contributions)
        assert total == (0, 0, 2, 4, 2, 0)
        assert total == tuple(x - y for x, y in zip(b568.h, b568.h_prime))

    def test_sum_rule(self, b568):
        # the entries of a_j total the vertex surplus of F_j
        for step, f in zip(b568.steps, b568.facets):
            assert sum(b568.contributions[step.index]) == len(f) - 5

    @pytest.mark.parametrize("dkn", [(5, 7, 9), (7, 9, 11), (5, 5, 9), (6, 6, 9)])
    def test_identity_on_other_instances(self, dkn, bundles):
        b = bundles(*dkn)
        total = contribution_total(b.contributions)
        assert total == tuple(x - y for x, y in zip(b.h, b.h_prime))

    def test_entries_nonnegative(self, bundles):
        for dkn in [(5, 6, 8), (5, 7, 9)]:
            b = bundles(*dkn)
            for a in b.contributions.values():
                assert len(a) == 6 and all(c >= 0 for c in a)


class TestStandalone:
    def test_shelling_contributions_builds_own_inputs(self):
        b = InstanceBundle(Params(5, 6, 8))
        contribs = shelling_contributions(
            b.p, b.lattice, b.steps, b.tri_steps, b.step_intervals
        )
        assert contribution_total(contribs) == (0, 0, 2, 4, 2, 0)

    def test_toric_h_via_bundle_free_call(self, b568):
        assert toric_tables(b568.lattice)[0][-1] == (1, 4, 7, 7, 4, 1)

    def test_h_prime_from_shelling_direct(self, b568):
        new_faces = (s.new_face for s in b568.steps)
        assert new_face_counts(new_faces, 5) == (1, 4, 5, 3, 2, 1)
