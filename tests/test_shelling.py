"""Colex shelling order, minimal new faces by three routes, topology checks."""

import tracemalloc
from itertools import combinations

import pytest

from oracles import (
    NOT_EULERIAN,
    antistar_new_faces,
    boolean_by_joins,
    partition_witness_by_counting,
)
from ordpoly import shelling
from ordpoly.combinat import Interval, Params, set_bits
from ordpoly.lattice import build_face_lattice
from ordpoly.shelling import (
    ShellingStep,
    StateBudgetError,
    boolean_interval_check,
    colex_shelling,
    decompose_facet,
    minimal_new_face_nonrecursive,
    minimal_new_face_recursive,
    step_intervals,
    verify_shelling_partition,
    verify_shelling_topological,
)

TABLE_568 = [
    ((0, 1, 2, 3, 4), ()),
    ((0, 1, 2, 4, 5), (5,)),
    ((0, 2, 3, 4, 5), (3, 5)),
    ((0, 2, 3, 5, 6), (6,)),
    ((0, 3, 4, 5, 6), (4, 6)),
    ((0, 1, 3, 4, 6, 7), (7,)),
    ((0, 1, 4, 5, 6, 7), (5, 7)),
    ((2, 3, 4, 5, 8), (8,)),
    ((2, 3, 5, 6, 8), (6, 8)),
    ((3, 4, 5, 6, 8), (4, 6, 8)),
    ((1, 2, 3, 4, 7, 8), (7, 8)),
    ((1, 2, 4, 5, 7, 8), (5, 7, 8)),
    ((0, 1, 2, 3, 6, 7, 8), (6, 7, 8)),
    ((3, 4, 6, 7, 8), (4, 6, 7, 8)),
    ((0, 1, 2, 5, 6, 7, 8), (5, 6, 7, 8)),
    ((4, 5, 6, 7, 8), (4, 5, 6, 7, 8)),
]


class TestTableGolden:
    def test_flagship_steps(self, b568):
        steps = b568.steps
        assert [(s.facet, s.new_face) for s in steps] == TABLE_568
        assert [s.index for s in steps] == list(range(1, 17))

    def test_cyclic_example(self):
        steps = colex_shelling(Params(5, 6, 6))
        by_facet = {s.facet: s.new_face for s in steps}
        assert by_facet[(0, 1, 4, 5, 6)] == (4, 5, 6)


class TestNewFaceRoutes:
    @pytest.mark.parametrize(
        "dkn",
        [
            (5, 6, 8), (5, 6, 6), (5, 7, 9), (7, 9, 11), (5, 5, 9), (4, 4, 7),
            (6, 6, 9), (5, 6, 120), (9, 11, 40), (5, 5, 60), (6, 6, 40),
        ],
    )
    def test_recursive_equals_nonrecursive(self, dkn, bundles):
        b = bundles(*dkn)
        for step in b.steps:
            assert minimal_new_face_recursive(step.facet, b.p) == step.new_face

    def test_recursion_skips_the_levels_a_facet_passes(self, bundles):
        # Walking down one n at a time costs 14 490 misses here; a facet
        # below the top two labels jumps to n = max(k, max F + 1) instead.
        b = bundles(5, 6, 120)
        minimal_new_face_recursive.cache_clear()
        for step in b.steps:
            minimal_new_face_recursive(step.facet, b.p)
        assert minimal_new_face_recursive.cache_info().misses < 3000

    @pytest.mark.parametrize("dkn", [(5, 6, 8), (5, 7, 9), (5, 5, 8), (4, 4, 7)])
    def test_antistar_oracle(self, dkn, bundles):
        b = bundles(*dkn)
        oracle = antistar_new_faces(b)
        for step, expected in zip(b.steps, oracle):
            if step.index == 1:
                assert step.new_face == ()
                assert expected is None or expected == ()
            else:
                assert step.new_face == expected

    def test_multiplex_patch_case(self):
        # k = d and k <= max F <= n-1: the new face is the top vertex alone
        p = Params(5, 5, 6)
        steps = colex_shelling(p)
        for s in steps:
            if s.facet[-1] == 5 and len(s.facet) == 6:
                assert s.new_face == (5,)


class TestDecompose:
    def test_table_rows(self):
        p = Params(5, 6, 8)
        dec = decompose_facet((0, 1, 2, 3, 6, 7, 8), p)
        assert dec.anchored == (0, 1, 2, 3)
        assert dec.evens == ()
        assert dec.tail == Interval(6, 8)

        dec = decompose_facet((0, 1, 3, 4, 6, 7), p)
        assert dec.anchored == (0, 1, 3, 4)
        assert dec.evens == (Interval(6, 7),)
        assert dec.tail is None

        dec = decompose_facet((4, 5, 6, 7, 8), p)
        assert dec.anchored == ()
        assert dec.evens == ()
        assert dec.tail == Interval(4, 8)

    def test_minimal_new_face_from_parts(self):
        p = Params(5, 6, 8)
        assert minimal_new_face_nonrecursive((0, 1, 3, 4, 6, 7), p) == (7,)
        assert minimal_new_face_nonrecursive((0, 1, 4, 5, 6, 7), p) == (5, 7)


class TestPartition:
    @pytest.mark.parametrize("dkn", [(5, 6, 8), (5, 6, 9), (5, 5, 9), (7, 8, 10)])
    def test_faces_partition_into_intervals(self, dkn, bundles):
        b = bundles(*dkn)
        ok, witness = verify_shelling_partition(b.lattice, b.step_intervals)
        assert ok, witness

    @pytest.mark.parametrize("dkn", [(5, 6, 8), (5, 5, 8)])
    def test_a_dropped_or_repeated_step_names_the_counted_witness(self, dkn, bundles):
        # The one pass must name the first row covered a wrong number of
        # times, as the oracle's count does.
        b = bundles(*dkn)
        steps = b.steps
        for j in range(len(steps)):
            for bad in (steps[:j] + steps[j + 1:], steps[:j + 1] + steps[j:]):
                witness = partition_witness_by_counting(b.lattice, bad)
                assert witness is not None
                got = verify_shelling_partition(b.lattice, step_intervals(b.lattice, bad))
                assert got == (False, witness), (j, len(bad))
        # The last step's interval [F, F] widened to [F, top] = {F, top}
        # meets every other row once, so the top is that row.
        last, top = steps[-1], b.lattice.faces[-1]
        assert last.new_face == last.facet
        bad = [*steps[:-1], ShellingStep(last.index, top, last.facet)]
        assert partition_witness_by_counting(b.lattice, bad) == top
        got = verify_shelling_partition(b.lattice, step_intervals(b.lattice, bad))
        assert got == (False, top)


class TestBooleanIntervals:
    def test_atom_sets_agree_with_joins_on_every_pair(self, bundles):
        # Every colex step interval of the grid is Boolean, so the steps
        # alone never reach a refusal; across every comparable pair of
        # these lattices, 572 of the 11 666 intervals are refused.
        instances = [(5, 6, 8), (4, 4, 7), (5, 5, 8), (6, 6, 9), (5, 7, 9)]
        lattices = [bundles(*dkn).lattice for dkn in instances]
        lattices += [build_face_lattice(*case) for case in NOT_EULERIAN.values()]
        verdicts = []
        for lattice in lattices:
            for y, top in enumerate(lattice.faces):
                for x in set_bits(lattice._below(y)):
                    bottom = lattice.faces[x]
                    got = boolean_interval_check(lattice, lattice.interval(bottom, top))
                    assert got == boolean_by_joins(lattice, bottom, top), (bottom, top)
                    verdicts.append(got)
        assert (len(verdicts), verdicts.count(False)) == (11_666, 572)

    def test_bottom_outside_the_top_is_no_interval(self, b568):
        lattice = b568.lattice
        assert lattice.interval((0, 1), (6, 7, 8)) == 0
        assert not boolean_interval_check(lattice, lattice.interval((0, 1), (6, 7, 8)))
        assert boolean_interval_check(lattice, lattice.interval((6, 7, 8), (6, 7, 8)))
        # c = 0 at the top, which has no dimension block above it
        top = lattice.top()
        assert boolean_interval_check(lattice, lattice.interval(top, top))

    def test_counts_alone_do_not_pass_an_interval(self, b568):
        # P^{5,6,8} less one facet still closes to a graded lattice; there
        # this interval has 2^3 faces and 3 atoms, yet two of its faces lie
        # above the same atoms, so it is not Boolean.
        lattice = build_face_lattice([f for f in b568.facets if f != (0, 1, 3, 4, 6, 7)], 5)
        bottom, top = (3, 6), (0, 1, 2, 3, 6, 7, 8)
        rows = set_bits(lattice.interval(bottom, top))
        assert len(rows) == 8
        assert [lattice.dims[r] for r in rows].count(lattice.dims[lattice.index(bottom)] + 1) == 3
        assert not boolean_by_joins(lattice, bottom, top)
        assert not boolean_interval_check(lattice, lattice.interval(bottom, top))

    def test_peak_memory_is_linear_in_the_rows(self):
        # [(), facet] in the boundary of the simplex on 14 vertices is a
        # Boolean interval of rank 13: 8 192 of the 16 384 faces.  The
        # check may hold a few small objects per row of the interval, but
        # no int as wide as the lattice per subset of its atoms.
        lattice = build_face_lattice(list(combinations(range(14), 13)), 13)
        interval = lattice.interval((), tuple(range(13)))
        assert interval.bit_count() == 8192
        tracemalloc.start()
        try:
            assert boolean_interval_check(lattice, interval)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 8192


class TestTopological:
    def test_colex_order_is_a_shelling(self, b568):
        order = [s.facet for s in b568.steps]
        ok, witness = verify_shelling_topological(order, b568.p.d)
        assert ok, witness

    def test_reversed_colex_recorded(self, b568):
        # the reversed colex order of P^{5,6,8} is a shelling too
        order = [s.facet for s in reversed(b568.steps)]
        assert verify_shelling_topological(order, b568.p.d) == (True, None)

    @pytest.mark.parametrize(
        "first",
        [
            (1, 2, 4),  # step 4 meets steps 1 and 2 in no common ridge
            (1, 13, 14),  # step 14 meets step 1 outside its covered ridges
        ],
    )
    def test_bad_prefix_is_refused(self, b568, first):
        facets = [s.facet for s in b568.steps]
        head = [facets[j - 1] for j in first]
        order = head + [f for f in facets if f not in head]
        ok, witness = verify_shelling_topological(order, b568.p.d)
        assert not ok
        assert witness == facets[first[-1] - 1]

    def test_state_budget_is_per_call(self, bundles, monkeypatch):
        # From a cold start P^{5,6,8} spends 123 states and P^{7,8,10} 470.
        # A budget between the two gives each the same verdict alone and
        # after the other has run in the same process.
        monkeypatch.setattr(shelling, "_STATE_BUDGET", 400)
        small, large = bundles(5, 6, 8), bundles(7, 8, 10)

        def check(b):
            return verify_shelling_topological([s.facet for s in b.steps], b.p.d)

        for _ in range(2):
            with pytest.raises(StateBudgetError, match="state budget"):
                check(large)
            assert check(small) == (True, None)

    def test_state_budget_raises_its_own_type(self, bundles, monkeypatch):
        monkeypatch.setattr(shelling, "_STATE_BUDGET", 3)
        b = bundles(5, 6, 8)
        with pytest.raises(StateBudgetError) as caught:
            verify_shelling_topological(b.facets, b.p.d)
        assert str(caught.value) == "topological shelling search exceeded its state budget"
        assert isinstance(caught.value, RuntimeError)

    @pytest.mark.parametrize("budget, fits", [(2390, True), (2389, False)])
    def test_state_count_at_9_12_25(self, budget, fits, bundles, monkeypatch):
        # The colex order of P^{9,12,25} needs exactly 2 390 states; the
        # count pins the search space, not only the verdict.
        monkeypatch.setattr(shelling, "_STATE_BUDGET", budget)
        b = bundles(9, 12, 25)
        if fits:
            assert verify_shelling_topological(b.facets, b.p.d) == (True, None)
        else:
            with pytest.raises(StateBudgetError, match="state budget"):
                verify_shelling_topological(b.facets, b.p.d)
