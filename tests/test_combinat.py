"""Ground-layer combinatorics: retraction, runs, pairing, Gale evenness,
and the contract of the record types."""

import re
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import retract_by_clamping, shelling_walls_by_scans, simplex_walls
from ordpoly.combinat import (
    Interval,
    Params,
    _maximal,
    colex_key,
    colex_sorted,
    even_positions,
    face_of,
    is_gale,
    mask_of,
    maximal_runs,
    paired_subsets,
    retract,
    run_containing,
    set_bits,
    shelling_walls,
)
from ordpoly.bijection import BijectionRecord
from ordpoly.multiplex import BoundarySimplex, multiplex_facets
from ordpoly.shelling import FaceDecomposition, ShellingStep, _multiplex_walls
from ordpoly.triangulation import TriangulationStep, _simplex_walls
from ordpoly.verify import CheckResult


def all_even_run_subsets(window: Interval, size: int) -> list[tuple[int, ...]]:
    """Brute oracle: filter every subset for the all-runs-even property."""
    members = window.members()
    out = [
        subset
        for subset in combinations(members, size)
        if all(r.size % 2 == 0 for r in maximal_runs(subset))
    ]
    return colex_sorted(out)


# Each refused triple with the exact message it raises.
REFUSALS = [
    ((5, 6, 5), "need n >= k >= d, got d=5, k=6, n=5"),
    ((5, 4, 6), "need n >= k >= d, got d=5, k=4, n=6"),
    ((4, 5, 6), "k > d requires odd d >= 5, got d=4, k=5"),
    ((6, 7, 8), "k > d requires odd d >= 5, got d=6, k=7"),
    ((1, 1, 3), "multiplex mode needs d >= 2, got d=1"),
    ((3, 4, 5), "k > d requires odd d >= 5, got d=3, k=4"),
    ((5.0, 6, 8), "d, k, n must be integers"),
    ((5, "6", 8), "d, k, n must be integers"),
    ((5, 6, None), "d, k, n must be integers"),
]


class TestParams:
    def test_accepts_classic_shapes(self):
        assert Params(5, 6, 8).m == 2
        assert Params(7, 10, 14).m == 3
        assert Params(4, 4, 9).is_multiplex
        assert Params(5, 6, 6).is_cyclic

    @pytest.mark.parametrize(
        "args,message", REFUSALS, ids=["-".join(map(repr, a)) for a, _ in REFUSALS]
    )
    def test_rejects_bad_shapes(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Params(*args)

    def test_str(self):
        assert str(Params(5, 6, 8)) == "P^{5,6,8}"

    def test_repr_names_the_fields(self):
        assert repr(Params(d=5, k=6, n=8)) == "Params(d=5, k=6, n=8)"

    def test_keywords_are_validated_too(self):
        with pytest.raises(ValueError, match="^d, k, n must be integers$"):
            Params(d=5, k=6, n=8.0)

    def test_orders_as_its_fields(self):
        assert sorted([Params(7, 9, 15), Params(5, 6, 9), Params(5, 6, 8)]) == [
            (5, 6, 8),
            (5, 6, 9),
            (7, 9, 15),
        ]


# Every record with its fields in order; one sample value per field.
RECORDS = [
    (Params, "d k n", (5, 6, 8)),
    (ShellingStep, "index facet new_face", (1, (0, 1), ())),
    (FaceDecomposition, "anchored evens tail", ((0,), (Interval(2, 3),), None)),
    (TriangulationStep, "facet_index window_index simplex new_face", (1, 0, (0, 1), (1,))),
    (BoundarySimplex, "simplex tetra facet", ((0, 1), 0, 0)),
    (
        BijectionRecord,
        "simplex new_face b c e Y a1 x_values y_counts A i",
        ((0, 1), (1,), 0, 1, 2, (), 1, (), (), (), 1),
    ),
    (CheckResult, "name ok detail", ("eulerian", True, "")),
]


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecords:
    def test_fields_in_order(self, cls, fields, values):
        assert cls._fields == tuple(fields.split())

    def test_fields_cannot_be_set(self, cls, fields, values):
        record = cls(*values)
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], values[0])

    def test_equal_and_hashed_as_its_field_tuple(self, cls, fields, values):
        record = cls(*values)
        assert record == cls(**dict(zip(cls._fields, values))) == values
        assert hash(record) == hash(values)


def test_check_result_detail_defaults_to_empty():
    assert CheckResult("eulerian", True).detail == ""
    assert CheckResult._field_defaults == {"detail": ""}


class TestRetract:
    def test_clamps_both_ends(self):
        assert retract([-1, 0, 2, 3, 5, 6], 8) == (0, 2, 3, 5, 6)

    def test_collapses_overflow(self):
        assert retract([9, 10, 11], 8) == (8,)

    @given(
        st.lists(st.integers(-30, 30), min_size=1, max_size=12),
        st.integers(0, 20),
    )
    def test_idempotent_and_bounded(self, values, n):
        once = retract(values, n)
        assert once == retract(once, n)
        assert all(0 <= v <= n for v in once)
        assert list(once) == sorted(set(once))

    @given(st.lists(st.integers(-100, 100), max_size=16), st.integers(0, 40))
    def test_matches_clamping_each_element(self, values, n):
        # Unsorted lists with duplicates, empty lists, values far outside
        # [0, n], and n = 0, where both clamped ends are one label.
        assert retract(values, n) == retract_by_clamping(values, n)

    @pytest.mark.parametrize(
        "values,n,expected",
        [
            ([0], 0, (0,)),
            ([-5, 7], 0, (0,)),
            ([], 0, ()),
            ([], 5, ()),
            ([3, -1, 3, 9, 0], 5, (0, 3, 5)),
        ],
    )
    def test_edge_cases(self, values, n, expected):
        assert retract(values, n) == expected == retract_by_clamping(values, n)


class TestRuns:
    def test_example(self):
        runs = maximal_runs((0, 1, 2, 4, 5, 7, 8))
        assert runs == [Interval(0, 2), Interval(4, 5), Interval(7, 8)]

    def test_run_containing(self):
        assert run_containing((0, 1, 2, 4, 5), 4) == Interval(4, 5)
        with pytest.raises(ValueError):
            run_containing((0, 1), 5)

    @given(st.sets(st.integers(0, 40), max_size=15))
    def test_partition(self, face):
        face = tuple(sorted(face))
        runs = maximal_runs(face)
        covered = [v for r in runs for v in r.members()]
        assert tuple(sorted(covered)) == face
        for left, right in zip(runs, runs[1:]):
            assert right.lo > left.hi + 1


class TestEvenPositions:
    def test_examples(self):
        assert even_positions(Interval(4, 5)) == (5,)
        assert even_positions(Interval(3, 8)) == (4, 6, 8)
        assert even_positions(Interval(3, 2)) == ()

    @given(st.integers(0, 30), st.integers(-1, 12))
    def test_takes_alternate_members(self, lo, length):
        iv = Interval(lo, lo + length)
        picked = even_positions(iv)
        assert picked == tuple(iv.members()[1::2])


class TestPairedSubsets:
    def test_examples(self):
        assert paired_subsets(Interval(2, 4), 2) == [(2, 3), (3, 4)]
        assert paired_subsets(Interval(1, 4), 4) == [(1, 2, 3, 4)]
        assert paired_subsets(Interval(1, 4), 0) == [()]
        assert paired_subsets(Interval(1, 4), 3) == []

    @given(st.integers(0, 12), st.integers(0, 9), st.integers(0, 8))
    def test_matches_brute_filter(self, lo, length, size):
        window = Interval(lo, lo + length - 1)
        assert paired_subsets(window, size) == all_even_run_subsets(window, size)


class TestGale:
    def test_rejects_non_subset(self):
        with pytest.raises(ValueError):
            is_gale((9,), Interval(0, 2))

    def test_prefix_run_free(self):
        assert is_gale((0, 1, 2, 3, 4), Interval(0, 8))

    def test_even_interior_run(self):
        assert is_gale((1, 2), Interval(0, 3))

    def test_odd_interior_run(self):
        assert not is_gale((1, 2, 3), Interval(0, 5))

    def test_even_run_pair_interior(self):
        assert is_gale((3, 4, 5, 6), Interval(0, 10))
        assert not is_gale((3, 4, 5, 6, 7), Interval(0, 10))

    @given(st.integers(4, 9), st.data())
    def test_matches_interior_run_parity(self, n, data):
        subset = tuple(
            sorted(data.draw(st.sets(st.integers(0, n), min_size=1)))
        )
        runs = [[subset[0]]]
        for v in subset[1:]:
            if v == runs[-1][-1] + 1:
                runs[-1].append(v)
            else:
                runs.append([v])
        expected = all(
            len(r) % 2 == 0 for r in runs if r[0] != 0 and r[-1] != n
        )
        assert is_gale(subset, Interval(0, n)) == expected


class TestColex:
    def test_orders_by_reversed_tuple(self):
        faces = [(0, 1, 2), (0, 3), (1, 2), (4,)]
        assert colex_sorted(faces) == [(1, 2), (0, 1, 2), (0, 3), (4,)]

    @given(
        st.lists(
            st.sets(st.integers(0, 10), min_size=1, max_size=4).map(
                lambda s: tuple(sorted(s))
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_colex_key_is_strict_on_distinct_faces(self, faces):
        ordered = colex_sorted(set(faces))
        keys = [colex_key(f) for f in ordered]
        assert keys == sorted(keys)
        for a, b in zip(keys, keys[1:]):
            assert a < b


@st.composite
def wall_cases(draw):
    """A cell on labels 0..9, walls inside it and earlier cells on 0..15.

    The walls are the simplex walls of the cell or arbitrary proper
    sub-masks, the empty one included.  The earlier cells are none, cells
    disjoint from the cell, or cells that hold a wall or another part of
    the cell plus labels outside it.
    """
    labels = draw(st.sets(st.integers(0, 9), min_size=1, max_size=7))
    cell = mask_of(labels)
    inside = sorted(labels)
    if draw(st.booleans()):
        walls = simplex_walls(cell)
    else:
        proper = st.sets(st.sampled_from(inside), max_size=len(inside) - 1)
        walls = draw(st.lists(proper.map(mask_of), max_size=6))
    outside = st.sets(st.sampled_from([v for v in range(16) if v not in labels])).map(mask_of)
    kind = draw(st.sampled_from(["empty", "disjoint", "overlapping"]))
    if kind == "empty":
        return cell, walls, []
    if kind == "disjoint":
        return cell, walls, draw(st.lists(outside, min_size=1, max_size=6))
    parts = st.sets(st.sampled_from(inside)).map(mask_of)
    if walls:
        parts = st.one_of(st.sampled_from(walls), parts)
    overlapping = st.builds(int.__or__, parts, outside)
    return cell, walls, draw(st.lists(overlapping, min_size=1, max_size=6))


class TestMasks:
    @given(st.sets(st.integers(min_value=0, max_value=200), max_size=12))
    def test_round_trip(self, labels):
        assert face_of(mask_of(labels)) == tuple(sorted(labels))

    @given(wall_cases())
    def test_shelling_walls_matches_two_scans(self, case):
        cell, walls, earlier = case
        rows = [0] * 16
        for i, e in enumerate(earlier):
            for v in set_bits(e):
                rows[v] |= 1 << i
        placed = (1 << len(earlier)) - 1
        labels = face_of(cell)
        table = [
            (
                tuple(t for t, v in enumerate(labels) if w >> v & 1),
                tuple(t for t, v in enumerate(labels) if not w >> v & 1),
            )
            for w in walls
        ]
        covered, stray = shelling_walls(labels, table, rows, placed)
        holds = (covered or not placed) and not stray
        assert (covered if holds else None) == shelling_walls_by_scans(cell, walls, earlier)
        # the stray cells, scanned: a nonempty meet inside no covered wall
        scanned = [i for i, w in enumerate(walls) if any(w & ~e == 0 for e in earlier)]
        assert covered == scanned
        assert stray == mask_of(
            i
            for i, e in enumerate(earlier)
            if cell & e and not any(cell & e & ~walls[c] == 0 for c in scanned)
        )


def splits(entry, size):
    inside, outside = entry
    return sorted(inside + outside) == list(range(size)) and not set(inside) & set(outside)


class TestWallTables:
    @pytest.mark.parametrize("e", range(1, 7))
    def test_multiplex_table_rebuilds_its_facets(self, e):
        sizes = [2] if e == 1 else range(e + 1, e + 9)
        for size in sizes:
            table, rows = _multiplex_walls(e, size)
            facets = [(0,), (1,)] if e == 1 else multiplex_facets(e, size - 1)
            assert [inside for inside, _ in table] == facets
            assert all(splits(entry, size) for entry in table)
            assert len(rows) == size
            for t, row in enumerate(rows):
                assert all((row >> q & 1) == (t in f) for q, f in enumerate(facets))
                assert row >> len(facets) == 0

    @pytest.mark.parametrize("size", [1, 3, 4])
    def test_edge_table_refuses_other_sizes(self, size):
        with pytest.raises(ValueError, match="exactly 2 vertices"):
            _multiplex_walls(1, size)

    @pytest.mark.parametrize("size", range(1, 13))
    def test_simplex_table_rebuilds_the_simplex_walls(self, size):
        table = _simplex_walls(size)
        assert [mask_of(inside) for inside, _ in table] == simplex_walls((1 << size) - 1)
        assert [outside for _, outside in table] == [(i,) for i in range(size)]
        assert all(splits(entry, size) for entry in table)


@given(st.sets(st.integers(0, 255), max_size=12))
def test_maximal_keeps_the_members_no_other_contains(masks):
    brute = {m for m in masks if not any(m != o and m & o == m for o in masks)}
    kept = _maximal(masks)
    assert len(kept) == len(brute) and set(kept) == brute
