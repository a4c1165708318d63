"""Boundary triangulation: simplices, the window shelling, U faces, depth."""

import tracemalloc

import pytest

from oracles import (
    boundary_by_windows,
    lattice_carrier,
    restriction_faces_by_scans,
    shallowness_by_all_faces,
)
from ordpoly.combinat import Params, face_of
from ordpoly.lattice import FaceLattice
from ordpoly.triangulation import (
    boundary_triangulation,
    shallowness_check,
    shelling_restriction_faces,
    simplicial_h,
)
from ordpoly.verify import grid_instances

TABLE2_568 = [
    (1, 1, (0, 1, 2, 3, 4), ()),
    (2, 1, (0, 1, 2, 4, 5), (5,)),
    (3, 1, (0, 2, 3, 4, 5), (3, 5)),
    (4, 1, (0, 2, 3, 5, 6), (6,)),
    (5, 1, (0, 3, 4, 5, 6), (4, 6)),
    (6, 1, (0, 1, 3, 4, 6), (1, 6)),
    (6, 2, (1, 3, 4, 6, 7), (7,)),
    (7, 1, (0, 1, 4, 5, 6), (1, 5, 6)),
    (7, 2, (1, 4, 5, 6, 7), (5, 7)),
    (8, 1, (2, 3, 4, 5, 8), (8,)),
    (9, 1, (2, 3, 5, 6, 8), (6, 8)),
    (10, 1, (3, 4, 5, 6, 8), (4, 6, 8)),
    (11, 1, (1, 2, 3, 4, 7), (2, 7)),
    (11, 2, (2, 3, 4, 7, 8), (7, 8)),
    (12, 1, (1, 2, 4, 5, 7), (2, 5, 7)),
    (12, 2, (2, 4, 5, 7, 8), (5, 7, 8)),
    (13, 1, (0, 1, 2, 3, 6), (1, 2, 6)),
    (13, 2, (1, 2, 3, 6, 7), (2, 6, 7)),
    (13, 3, (2, 3, 6, 7, 8), (6, 7, 8)),
    (14, 1, (3, 4, 6, 7, 8), (4, 6, 7, 8)),
    (15, 1, (0, 1, 2, 5, 6), (1, 2, 5, 6)),
    (15, 2, (1, 2, 5, 6, 7), (2, 5, 6, 7)),
    (15, 3, (2, 5, 6, 7, 8), (5, 6, 7, 8)),
    (16, 1, (4, 5, 6, 7, 8), (4, 5, 6, 7, 8)),
]


class TestSteps:
    def test_flagship_table(self, b568):
        got = [
            (s.facet_index, s.window_index, s.simplex, s.new_face)
            for s in b568.tri_steps
        ]
        assert got == TABLE2_568

    def test_step_count_matches_h_sum(self, b568):
        assert len(b568.tri_steps) == sum(b568.h)

    def test_windows_have_span_k_except_last(self, b568):
        for s in b568.tri_steps:
            facet_size = len(b568.facets[s.facet_index - 1])
            last = facet_size - 5 + 1
            if s.window_index < last:
                assert s.simplex[-1] - s.simplex[0] == 6


class TestCover:
    @pytest.mark.parametrize("dkn", [(5, 6, 8), (5, 6, 6), (5, 5, 8), (7, 9, 11)])
    def test_steps_cover_the_boundary_triangulation(self, dkn, bundles):
        b = bundles(*dkn)
        assert {s.simplex for s in b.tri_steps} == set(boundary_triangulation(b.p))

    @pytest.mark.parametrize(
        "p",
        [*grid_instances(), Params(9, 11, 40), Params(5, 6, 120), Params(7, 8, 200)],
        ids=str,
    )
    def test_shifted_window_table_equals_the_per_window_test(self, p):
        assert boundary_triangulation(p) == boundary_by_windows(p)

    def test_cyclic_triangulation_is_the_facet_list(self, b566):
        assert set(boundary_triangulation(b566.p)) == set(b566.facets)

    def test_simplex_case(self):
        p = Params(5, 5, 5)
        tris = boundary_triangulation(p)
        assert len(tris) == 6


class TestRestrictionOracle:
    @pytest.mark.parametrize("dkn", [(5, 6, 8), (5, 5, 8), (5, 7, 9), (4, 4, 7)])
    def test_u_recursion_equals_wall_count(self, dkn, bundles):
        b = bundles(*dkn)
        simplices = [s.simplex for s in b.tri_steps]
        oracle = shelling_restriction_faces(simplices)
        for s, faces in zip(b.tri_steps, oracle):
            assert s.new_face == faces

    def test_rejects_step_without_covered_wall(self):
        with pytest.raises(ValueError, match="meets no earlier simplex in a wall"):
            shelling_restriction_faces([(0, 1, 2), (1, 2, 3), (0, 3, 4)])

    def test_wall_refusal_names_the_simplex(self):
        with pytest.raises(
            ValueError,
            match=r"^step 3: \(0, 3, 4\) meets no earlier simplex in a wall$",
        ):
            shelling_restriction_faces([(0, 1, 2), (1, 2, 3), (0, 3, 4)])

    def test_rejects_meet_outside_covered_walls(self):
        with pytest.raises(ValueError, match="outside every covered wall"):
            shelling_restriction_faces([(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4)])

    @pytest.mark.parametrize("dkn", [(5, 6, 40), (7, 10, 30)])
    def test_replay_by_scans(self, dkn, bundles):
        simplices = [s.simplex for s in bundles(*dkn).tri_steps]
        assert shelling_restriction_faces(simplices) == restriction_faces_by_scans(
            simplices
        )

    @pytest.mark.parametrize("dkn", [(5, 6, 40), (7, 10, 30)])
    def test_reversed_order_is_the_complement(self, dkn, bundles):
        # The boundary is a sphere, so the reversed shelling is one too, and
        # each of its restriction faces is the simplex minus the forward one.
        steps = bundles(*dkn).tri_steps
        reverse = [s.simplex for s in reversed(steps)]
        faces = shelling_restriction_faces(reverse)
        assert faces == restriction_faces_by_scans(reverse)
        assert faces == [
            tuple(v for v in s.simplex if v not in s.new_face) for s in reversed(steps)
        ]

    @pytest.mark.parametrize(
        "dkn, swap, reason",
        [
            ((5, 6, 40), 2, "meets no earlier simplex in a wall"),
            ((5, 6, 40), 4, "outside every covered wall"),
            ((7, 10, 30), 8, "outside every covered wall"),
            ((7, 10, 30), 30, "meets no earlier simplex in a wall"),
        ],
    )
    def test_swapped_neighbours_are_refused_like_the_scans(
        self, dkn, swap, reason, bundles
    ):
        order = [s.simplex for s in bundles(*dkn).tri_steps]
        order[swap], order[swap + 1] = order[swap + 1], order[swap]
        with pytest.raises(ValueError) as scans:
            restriction_faces_by_scans(order)
        with pytest.raises(ValueError) as rows:
            shelling_restriction_faces(order)
        assert str(rows.value) == str(scans.value)
        assert str(rows.value).startswith(f"step {swap + 1}: ")
        assert reason in str(rows.value)

    def test_multiplex_59_fourth_facet_ladder(self, bundles):
        b = bundles(5, 5, 9)
        sizes = [
            len(s.new_face) for s in b.tri_steps
            if b.facets[s.facet_index - 1] == (0, 1, 2, 3, 5, 6, 7, 8)
        ]
        assert sizes == [4, 3, 2, 1]


class TestSimplicialH:
    def test_flagship(self, b568):
        assert simplicial_h(b568.tri_steps, 5) == (1, 4, 7, 7, 4, 1)

    def test_multiplex(self, m58):
        assert simplicial_h(m58.tri_steps, 5) == (1, 4, 4, 4, 4, 1)


class TestShallow:
    @pytest.mark.parametrize("dkn", [(5, 6, 8), (5, 5, 8)])
    def test_carrier_depth_bound(self, dkn, bundles):
        b = bundles(*dkn)
        ok, witness = shallowness_check(
            [s.simplex for s in b.tri_steps], b.lattice
        )
        assert ok, witness

    def test_peak_memory_is_one_size_of_faces(self, bundles):
        # The 430 simplices of P^{9,11,20} have 6 592 distinct faces of
        # sizes 1..5, 3 711 of them of size 5.  The faces of one size are
        # held at a time: a warm check peaks at about 330 KB, and at about
        # 740 KB with the faces of every size in one set.
        b = bundles(9, 11, 20)
        simplices = [s.simplex for s in b.tri_steps]
        # a first call leaves the interpreter warm, so the peak is the check's
        shallowness_check(simplices, b.lattice)
        tracemalloc.start()
        try:
            assert shallowness_check(simplices, b.lattice) == (True, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024, f"the check peaks at {peak // 1024} KB"


class TestShallowOracle:
    """``shallowness_check`` lists the faces with 2 dim sigma < d only, and
    looks up a carrier only for those that are not faces of the polytope;
    ``oracles.shallowness_by_all_faces`` lists every face and looks up the
    carrier of each."""

    @staticmethod
    def assert_same_verdict(simplices, lattice):
        verdict = shallowness_check(simplices, lattice)
        assert verdict == shallowness_by_all_faces(simplices, lattice)
        return verdict

    def test_grid(self, bundles):
        for p in grid_instances():
            b = bundles(p.d, p.k, p.n)
            verdict = self.assert_same_verdict([s.simplex for s in b.tri_steps], b.lattice)
            assert verdict == (True, None), p

    def test_wide_d9(self, bundles):
        b = bundles(9, 11, 40)
        verdict = self.assert_same_verdict([s.simplex for s in b.tri_steps], b.lattice)
        assert verdict == (True, None)

    def test_same_witness_on_a_failing_list(self, b568):
        # Every vertex of P^{5,6,8} in one "simplex", whose faces of every
        # size are listed by the oracle.  The first failing face is a
        # triangle in no facet, of the largest size with 2 dim sigma < d:
        # a bound that skipped it would name another witness.
        simplices = [s.simplex for s in b568.tri_steps] + [tuple(range(9))]
        ok, witness = self.assert_same_verdict(simplices, b568.lattice)
        assert (ok, witness) == (False, (0, 4, 8))
        lattice = b568.lattice
        assert lattice.dims[lattice.index(lattice_carrier(lattice, witness))] == 5

    def test_polytope_faces_get_no_carrier(self, b568, monkeypatch):
        # No carrier is asked for a listed face that is a simplex face of
        # P^{5,6,8}; the witness, a triangle in no facet, gets one.
        asked = []
        carrier_dims = FaceLattice.carrier_dims

        def recorded(lattice, sigma_masks):
            asked.extend(sigma_masks)
            return carrier_dims(lattice, sigma_masks)

        monkeypatch.setattr(FaceLattice, "carrier_dims", recorded)
        lattice = b568.lattice
        simplices = [s.simplex for s in b568.tri_steps] + [tuple(range(9))]
        assert shallowness_check(simplices, lattice) == (False, (0, 4, 8))
        faces = {f for f in lattice.faces if len(f) == lattice.dims[lattice.index(f)] + 1}
        assert asked and not faces & set(map(face_of, asked))
        assert (0, 4, 8) in set(map(face_of, asked))

    def test_label_outside_the_lattice(self, b568):
        with pytest.raises(ValueError, match="outside the vertex set"):
            shallowness_check([(0, 1, 2, 3, 9)], b568.lattice)
