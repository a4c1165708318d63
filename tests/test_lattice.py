"""Face lattice construction: closure, grading, Euler relation, carriers."""

import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    NOT_EULERIAN,
    PRISMS_SHARING_AN_EDGE_AND_A_VERTEX,
    SAME_NARROW_COVERS,
    SAME_RENUMBERED_COVERS,
    assert_toric_by_rows,
    carrier_by_facets,
    classes_by_full_key,
    closure_by_levels,
    euler_by_pairs,
    euler_witness_by_containment,
    interval_by_containment,
    lattice_carrier,
    order_by_containment,
    walk_covers_and_depths,
)
from ordpoly.combinat import Params, colex_key, face_of, mask_of, set_bits
from ordpoly.hvector import toric_tables
from ordpoly.lattice import (
    DEFAULT_MAX_FACES,
    FaceCapError,
    FaceLattice,
    _closure_masks,
    build_face_lattice,
    euler_check,
    euler_witness,
)
from ordpoly.ordinary import enumerate_facets
from ordpoly.verify import grid_instances

# Facet lists of small polytopes on at most 8 vertices, the cube last.
SMALL_POLYTOPES = [
    enumerate_facets(Params(*dkn))
    for dkn in [(2, 2, 3), (2, 2, 7), (3, 3, 4), (3, 3, 5), (3, 3, 7),
                (4, 4, 5), (4, 4, 7), (5, 5, 7), (5, 6, 6), (5, 6, 7)]
] + [[(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 4, 5), (2, 3, 6, 7), (0, 2, 4, 6), (1, 3, 5, 7)]]


@st.composite
def facet_lists(draw):
    """A small polytope's facets relabelled onto 0..7, with up to three
    dropped and perhaps one arbitrary facet added."""
    facets = draw(st.sampled_from(SMALL_POLYTOPES))
    perm = draw(st.permutations(range(8)))
    dropped = draw(st.sets(st.integers(0, len(facets) - 1), max_size=3))
    out = {tuple(sorted(perm[v] for v in f)) for i, f in enumerate(facets) if i not in dropped}
    extra = draw(st.none() | st.sets(st.integers(0, 7), min_size=2, max_size=5))
    if extra:
        out.add(tuple(sorted(extra)))
    return sorted(out)


def closure_lattice(facets):
    """The lattice of a drawn facet list, with d read off the closure as
    the height of the top above the empty face, less one; draws whose
    closure is refused are discarded."""
    top = mask_of(set().union(*facets))
    try:
        height, _ = _closure_masks(sorted(map(mask_of, facets)), top, 256)
        return build_face_lattice(facets, height[top] - 1)
    except ValueError:
        assume(False)


def renumbered_lower_set(lattice, row):
    """The faces below ``row``, each as the positions of its vertices in
    the face of ``row``."""
    face = lattice.faces[row]
    return frozenset(
        tuple(face.index(v) for v in lattice.faces[r]) for r in set_bits(lattice._below(row))
    )


class TestSimplex:
    def test_boolean_lattice(self):
        facets = [tuple(sorted(set(range(6)) - {v})) for v in range(6)]
        lattice = build_face_lattice(facets, 5)
        assert len(lattice) == 64
        assert lattice.dims[lattice.index(lattice.top())] == 5
        assert lattice.f_vector() == (6, 15, 20, 15, 6)

    def test_every_subset_is_a_face(self):
        facets = [tuple(sorted(set(range(5)) - {v})) for v in range(5)]
        lattice = build_face_lattice(facets, 4)
        rows = [lattice.index(sub) for r in range(5) for sub in combinations(range(5), r)]
        assert sorted(rows) == list(range(31))


class TestFlagship:
    def test_counts(self, b568):
        lattice = b568.lattice
        assert len(lattice) == 154
        assert lattice.f_vector() == (9, 31, 52, 44, 16)
        # vertex totals over the 1-, 2-, 3-, 4-faces; the last entry is
        # the facet-size sum 24 + 16*4 fixed by the shelling step sizes
        assert lattice.flag_f0() == (62, 158, 184, 88)

    def test_carrier_example(self, b568):
        lattice = b568.lattice
        assert lattice_carrier(lattice, (0, 8)) == (0, 1, 2, 6, 7, 8)

    def test_carrier_of_face_is_itself(self, b568):
        lattice = b568.lattice
        for face in lattice.faces:
            if face and lattice.dims[lattice.index(face)] >= 0:
                assert lattice_carrier(lattice, face) == face

    def test_carrier_dims_vector(self, bundles):
        for b in (bundles(5, 6, 8), bundles(5, 5, 8)):
            lattice = b.lattice
            sigmas = sorted(
                {
                    sub
                    for step in b.tri_steps
                    for size in range(1, len(step.simplex) + 1)
                    for sub in combinations(step.simplex, size)
                }
            )
            expected = [carrier_by_facets(b, s) for s in sigmas]
            assert [lattice_carrier(lattice, s) for s in sigmas] == expected
            dims = lattice.carrier_dims([mask_of(s) for s in sigmas])
            assert dims == [lattice.dims[lattice.index(c)] for c in expected]

    def test_carrier_in_no_facet_is_the_top(self, b568):
        lattice = b568.lattice
        assert lattice_carrier(lattice, (0, 4, 8)) == lattice.top()
        assert lattice.carrier_dims([mask_of((0, 4, 8))]) == [5]

    def test_carrier_of_empty_set(self, b568):
        assert lattice_carrier(b568.lattice, ()) == ()

    def test_carrier_dims_refuses_outside_labels(self, b568):
        with pytest.raises(ValueError, match="outside the vertex set"):
            b568.lattice.carrier_dims([mask_of((0, 9))])

    def test_eulerian(self, b568):
        assert euler_check(b568.lattice)

    def test_row_order_is_dim_then_colex(self, b568):
        lattice = b568.lattice
        keys = [(lattice.dims[i], colex_key(f)) for i, f in enumerate(lattice.faces)]
        assert keys == sorted(keys)


class TestNotEulerian:
    def test_k4_edges(self):
        # graded, with the six edges as facets of rank 2, but the whole
        # interval holds 5 faces of even dimension and 7 of odd
        lattice = build_face_lattice(*NOT_EULERIAN["k4_edges"])
        assert lattice.f_vector() == (4, 6)
        assert not euler_check(lattice)

    def test_seven_vertex_torus(self):
        lattice = build_face_lattice(*NOT_EULERIAN["seven_vertex_torus"])
        assert lattice.f_vector() == (7, 21, 14)
        # every interval of length two is a diamond, so only a test over
        # all intervals sees that the Euler characteristic is 0, not 2
        for x, y in combinations(lattice.faces, 2):
            rank = lattice.dims[lattice.index(y)] - lattice.dims[lattice.index(x)]
            if set(x) < set(y) and rank == 2:
                assert len(set_bits(lattice.interval(x, y))) == 4
        assert not euler_check(lattice)

    def test_octahedron_minus_a_triangle(self):
        # a disk: the three edges of the missing triangle (1, 2, 5) lie in
        # one facet each, so they are not meets; intervals below the three
        # facets around the hole fail, not only intervals ending at the top
        lattice = build_face_lattice(*NOT_EULERIAN["octahedron_minus_a_triangle"])
        assert lattice.f_vector() == (6, 9, 7)
        assert not euler_check(lattice)

    def test_edge_with_three_vertices(self):
        # a 2-sphere whose facets (0, 1, 3, 4) and (1, 2, 3, 4, 5) meet in
        # the path 3-1-4: every interval ending at the top holds, but the
        # edge (1, 3, 4) and the intervals from vertex 1 to both facets fail
        lattice = build_face_lattice(*NOT_EULERIAN["edge_with_three_vertices"])
        assert lattice.f_vector() == (7, 12, 7)
        for face in lattice.faces[:-1]:
            rows = set_bits(lattice.interval(face, lattice.top()))
            even = sum(1 for r in rows if lattice.dims[r] % 2 == 0)
            assert 2 * even == len(rows)
        assert not euler_check(lattice)

    def test_prisms_sharing_an_edge_and_a_vertex(self):
        # every interval from the empty face holds, and vertices 0, 1 and 2
        # pass, so the witness pins the scan past the empty face
        lattice = build_face_lattice(*PRISMS_SHARING_AN_EDGE_AND_A_VERTEX)
        assert lattice.f_vector() == (17, 29, 14)
        assert euler_by_pairs(lattice) is False
        assert euler_witness(lattice) == ((3,), lattice.top())

    @pytest.mark.parametrize("name", NOT_EULERIAN)
    def test_toric_recursion_leaves_the_verdict_to_euler_check(self, name):
        # h_0 = 1 on every lattice: only the empty face reaches degree e
        lattice = build_face_lattice(*NOT_EULERIAN[name])
        h_list, _ = toric_tables(lattice)
        assert all(h[0] == 1 for h in h_list)
        assert not euler_check(lattice)


class TestClosureWalk:
    """``_closure_masks`` walks up from the empty face, depth-first, over
    facet bitsets grouped by the face's parent; ``oracles.closure_by_levels``
    walks down from the top, breadth-first, over all facets.  Both give the
    same covers and depths, or the same refusal, once the upward walk's
    heights and wide covers are expanded by
    ``oracles.walk_covers_and_depths``."""

    @staticmethod
    def assert_same_walk(facets):
        top = mask_of(set().union(*facets))
        masks = sorted(map(mask_of, facets))
        outcomes = []
        for walk in (_closure_masks, closure_by_levels):
            try:
                covers, depth = walk(masks, top, DEFAULT_MAX_FACES)
                if walk is _closure_masks:
                    covers, depth = walk_covers_and_depths(covers, depth)
            except ValueError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append(({m: sorted(c) for m, c in covers.items()}, depth))
        assert outcomes[0] == outcomes[1]

    def test_grid(self, bundles):
        for p in grid_instances():
            self.assert_same_walk(bundles(p.d, p.k, p.n).facets)

    def test_ladder_rung(self, bundles):
        self.assert_same_walk(bundles(7, 9, 20).facets)

    def test_larger_ladder_rung(self, bundles):
        self.assert_same_walk(bundles(7, 10, 30).facets)

    def test_facets_sharing_a_vertex(self, b568):
        # The star of vertex 0: every facet holds 0, so the empty face is
        # added below the face {0}.
        star = [f for f in b568.facets if 0 in f]
        self.assert_same_walk(star)
        covers, depth = walk_covers_and_depths(
            *_closure_masks(
                sorted(map(mask_of, star)), mask_of(set().union(*star)), DEFAULT_MAX_FACES
            )
        )
        assert covers[1] == [0] and depth[0] == depth[1] + 1

    @pytest.mark.parametrize("walk", [_closure_masks, closure_by_levels])
    def test_cap_boundary(self, walk, b568):
        # The top is not counted against the cap.  Each walk's first dict
        # has one entry per face.
        masks = sorted(map(mask_of, b568.facets))
        top = mask_of(b568.lattice.top())
        faces, _ = walk(masks, top, len(b568.lattice) - 1)
        assert len(faces) == len(b568.lattice)
        with pytest.raises(FaceCapError, match=f"cap of {len(b568.lattice) - 2} faces"):
            walk(masks, top, len(b568.lattice) - 2)

    @pytest.mark.parametrize("name", NOT_EULERIAN)
    def test_off_eulerian(self, name):
        self.assert_same_walk(NOT_EULERIAN[name][0])

    def test_where_the_covers_alone_are_not_exact(self):
        self.assert_same_walk(SAME_RENUMBERED_COVERS[0])

    @settings(max_examples=100, deadline=None)
    @given(facet_lists())
    def test_random_facet_lists(self, facets):
        self.assert_same_walk(facets)


class TestEulerByClasses:
    """``euler_check`` tests the intervals ending at class representatives;
    ``oracles.euler_by_pairs`` tests every comparable pair."""

    def test_agrees_with_pairs_on_the_grid(self, bundles):
        for p in grid_instances():
            lattice = bundles(p.d, p.k, p.n).lattice
            assert euler_check(lattice) is euler_by_pairs(lattice) is True, p

    def test_agrees_with_pairs_on_a_ladder_rung(self, bundles):
        lattice = bundles(7, 9, 20).lattice
        assert euler_check(lattice) is euler_by_pairs(lattice) is True

    @pytest.mark.parametrize("name", NOT_EULERIAN)
    def test_agrees_with_pairs_off_eulerian(self, name):
        lattice = build_face_lattice(*NOT_EULERIAN[name])
        assert euler_check(lattice) is euler_by_pairs(lattice) is False

    @settings(max_examples=200, deadline=None)
    @given(facet_lists())
    def test_agrees_with_pairs_on_random_facet_lists(self, facets):
        lattice = closure_lattice(facets)
        assert euler_check(lattice) is euler_by_pairs(lattice)

    @pytest.mark.parametrize("name", NOT_EULERIAN)
    def test_witness_breaks_the_condition(self, name):
        lattice = build_face_lattice(*NOT_EULERIAN[name])
        bottom, top = euler_witness(lattice)
        assert set(bottom) < set(top)
        inside = [f for f in lattice.faces if set(bottom) <= set(f) <= set(top)]
        even = sum(1 for f in inside if lattice.dims[lattice.index(f)] % 2 == 0)
        assert 2 * even != len(inside)

    def test_no_witness_on_a_polytope(self, b568):
        assert euler_witness(b568.lattice) is None

    @pytest.mark.parametrize(
        "case", [*NOT_EULERIAN.values(), PRISMS_SHARING_AN_EDGE_AND_A_VERTEX],
        ids=[*NOT_EULERIAN, "prisms_sharing_an_edge_and_a_vertex"],
    )
    def test_witness_is_the_first_failure_off_eulerian(self, case):
        lattice = build_face_lattice(*case)
        assert euler_witness(lattice) == euler_witness_by_containment(lattice)

    @settings(max_examples=100, deadline=None)
    @given(facet_lists())
    def test_witness_is_the_first_failure_on_random_facet_lists(self, facets):
        lattice = closure_lattice(facets)
        assert euler_witness(lattice) == euler_witness_by_containment(lattice)


class TestClassKey:
    @staticmethod
    def assert_exact(lattice):
        # Representatives have pairwise distinct renumbered down-sets, and
        # every face shares its down-set with a representative at or
        # below its own row.
        reps = {renumbered_lower_set(lattice, y): y for y in lattice._class_reps}
        assert len(reps) == len(lattice._class_reps)
        for row in range(len(lattice)):
            assert reps[renumbered_lower_set(lattice, row)] <= row

    def test_exact_on_the_grid(self, bundles):
        for p in grid_instances():
            self.assert_exact(bundles(p.d, p.k, p.n).lattice)

    def test_exact_on_a_ladder_rung(self, bundles):
        self.assert_exact(bundles(7, 9, 20).lattice)

    def test_exact_where_the_covers_alone_are_not(self):
        lattice = build_face_lattice(*SAME_RENUMBERED_COVERS)
        rows = [lattice.index(f) for f in [(0, 2, 3, 5, 6), (0, 1, 4, 5, 6)]]
        assert [lattice._below(r).bit_count() for r in rows] == [30, 28]
        self.assert_exact(lattice)

    @pytest.mark.parametrize("dkn", [(7, 9, 20), (7, 10, 30)])
    def test_class_count(self, bundles, dkn):
        assert len(bundles(*dkn).lattice._class_reps) == 24

    def test_simplex_faces_share_a_class_per_size(self):
        # every subset of the 5-simplex is a face, and all subsets of one
        # size have the Boolean down-set
        facets = [tuple(sorted(set(range(6)) - {v})) for v in range(6)]
        lattice = build_face_lattice(facets, 5)
        assert [len(lattice.faces[y]) for y in lattice._class_reps] == list(range(7))


class TestClassPass:
    """The class pass keys a face by the classes of its one-vertex
    deletions, read by position, and its sorted wide covers;
    ``oracles.classes_by_full_key`` keys every face by its size and the set
    of all its renumbered covers."""

    @staticmethod
    def assert_same_classes(lattice):
        assert (lattice._class_of, lattice._class_reps) == classes_by_full_key(lattice)
        # the empty face is alone in class 0 and the top alone in the last
        # class, where ``InstanceBundle.h`` reads the polytope's h
        top = len(lattice._class_reps) - 1
        assert lattice._class_of[0] == 0 and lattice._class_of.count(0) == 1
        assert lattice._class_of[-1] == top and lattice._class_of.count(top) == 1

    def test_grid(self, bundles):
        for p in grid_instances():
            self.assert_same_classes(bundles(p.d, p.k, p.n).lattice)

    @pytest.mark.parametrize("dkn", [(7, 9, 20), (7, 10, 30), (9, 12, 25)])
    def test_larger_lattices(self, bundles, dkn):
        self.assert_same_classes(bundles(*dkn).lattice)

    @pytest.mark.parametrize("name", NOT_EULERIAN)
    def test_off_eulerian(self, name):
        self.assert_same_classes(build_face_lattice(*NOT_EULERIAN[name]))

    def test_where_the_covers_alone_are_not_exact(self):
        self.assert_same_classes(build_face_lattice(*SAME_RENUMBERED_COVERS))

    @settings(max_examples=100, deadline=None)
    @given(facet_lists())
    @example(SAME_NARROW_COVERS)
    def test_random_facet_lists(self, facets):
        self.assert_same_classes(closure_lattice(facets))


class TestToricOnRandomClosures:
    """``toric_tables`` adds up g by class, ``oracles.toric_by_rows`` row
    by row.  Random closures include lattices that are not Eulerian and
    lattices whose classes are told apart by wide covers."""

    @settings(max_examples=100, deadline=None)
    @given(facet_lists())
    @example(SAME_NARROW_COVERS)
    def test_random_facet_lists(self, facets):
        assert_toric_by_rows(closure_lattice(facets))


class TestDerivedOrder:
    """``_below`` and ``_above``, read off the vertex up-sets, against
    containment tested face by face."""

    @staticmethod
    def assert_containment(lattice):
        below, above = order_by_containment(lattice)
        for row, mask in enumerate(lattice._masks):
            assert lattice._below(row) == below[row], lattice.faces[row]
            assert lattice._above(mask) == above[row], lattice.faces[row]
        # vertex pairs that span no face too, as carriers ask
        for pair in map(mask_of, combinations(lattice.top(), 2)):
            rows = [r for r, m in enumerate(lattice._masks) if pair & ~m == 0]
            assert set_bits(lattice._above(pair)) == rows, face_of(pair)

    @pytest.mark.parametrize("p", grid_instances(), ids=str)
    def test_grid(self, p, bundles):
        self.assert_containment(bundles(p.d, p.k, p.n).lattice)

    @pytest.mark.parametrize("name", NOT_EULERIAN)
    def test_off_eulerian(self, name):
        self.assert_containment(build_face_lattice(*NOT_EULERIAN[name]))

    def test_where_the_covers_alone_are_not_exact(self):
        self.assert_containment(build_face_lattice(*SAME_RENUMBERED_COVERS))

    @settings(max_examples=100, deadline=None)
    @given(facet_lists())
    def test_random_facet_lists(self, facets):
        self.assert_containment(closure_lattice(facets))


class TestRowAccessors:
    """``faces`` builds each row's vertex tuple from its mask, and
    ``index`` finds a row by bisection inside a dimension block, which
    ``_row`` searches alone."""

    @staticmethod
    def assert_rows(lattice):
        faces = lattice.faces
        assert len(faces) == len(lattice)
        for row, mask in enumerate(lattice._masks):
            assert faces[row] == face_of(mask)
            assert lattice.index(faces[row]) == row
            e = lattice.dims[row]
            assert lattice._row(mask, e) == row
            assert e < 0 or lattice._row(mask, e - 1) == -1
        assert faces[-1] == lattice.top()
        assert faces[1:4] == tuple(map(face_of, lattice._masks[1:4]))
        assert list(faces) == [faces[r] for r in range(len(lattice))]

    @pytest.mark.parametrize("p", grid_instances(), ids=str)
    def test_grid(self, p, bundles):
        self.assert_rows(bundles(p.d, p.k, p.n).lattice)

    @pytest.mark.parametrize("dkn", [(7, 9, 20), (7, 10, 30)])
    def test_ladder_rungs(self, bundles, dkn):
        self.assert_rows(bundles(*dkn).lattice)

    @pytest.mark.parametrize(
        "face",
        [
            (0, 4, 8),  # a vertex set in no facet
            (0, 8),  # inside a facet, but no face
            (1, 0),  # the edge (0, 1), unsorted
            (0, 0, 1),  # a repeated label
            (0, 9),  # a label above n
            (-1, 0),  # a negative label
        ],
    )
    def test_index_refuses_a_non_face(self, b568, face):
        with pytest.raises(ValueError, match="is not a face of this lattice"):
            b568.lattice.index(face)


def stored_bytes(lattice) -> int:
    """``sys.getsizeof`` summed over every object the lattice's slots
    hold: the values themselves and, inside tuples, lists, sets and dicts,
    their items, keys and values, each object counted once."""
    seen: set[int] = set()
    stack = [getattr(lattice, name) for name in FaceLattice.__slots__]
    total = 0
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        total += sys.getsizeof(value)
        if isinstance(value, dict):
            stack += value.keys()
            stack += value.values()
        elif isinstance(value, (tuple, list, set, frozenset)):
            stack += value
    return total


class TestMemory:
    @pytest.mark.parametrize("dkn", [(7, 10, 30), (9, 11, 20)])
    def test_stored_objects_are_linear_in_the_faces(self, bundles, dkn):
        # no bitset, tuple or dict entry per face: n+1 vertex up-sets of F
        # bits each, and a mask, a dimension and a class id per face
        lattice = bundles(*dkn).lattice
        assert stored_bytes(lattice) <= 128 * len(lattice)

    def test_build_peak_is_linear_in_the_faces(self, bundles):
        # The walk keeps one dict entry per face, its height, and a cover
        # list only under the faces with a cover that misses two or more of
        # their vertices; the class pass finds the other covers by
        # membership.  A cover list per face and a second dict of depths
        # peaked at about 255 bytes per face here.
        facets = bundles(7, 10, 30).facets
        tracemalloc.start()
        try:
            lattice = build_face_lattice(facets, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_face = peak / len(lattice)
        assert per_face <= 200, f"the build peaks at {per_face:.0f} bytes per face"


class TestIntervalAndDownset:
    @staticmethod
    def assert_intervals(lattice):
        # every comparable pair against a containment scan; an
        # incomparable pair has no rows
        masks = lattice._masks
        for top in masks:
            for bottom in masks:
                got = lattice.interval(face_of(bottom), face_of(top))
                if bottom & ~top:
                    assert got == 0
                else:
                    assert got == interval_by_containment(lattice, bottom, top)

    def test_every_pair_of_p568(self, b568):
        self.assert_intervals(b568.lattice)

    def test_every_pair_off_eulerian(self):
        self.assert_intervals(build_face_lattice(*NOT_EULERIAN["edge_with_three_vertices"]))

    def test_interval_refuses_a_non_face(self, b568):
        with pytest.raises(ValueError, match="is not a face of this lattice"):
            b568.lattice.interval((0, 8), b568.lattice.top())
        with pytest.raises(ValueError, match="is not a face of this lattice"):
            b568.lattice.interval((), (0, 4, 8))

    def test_boolean_interval_of_step_13(self, b568):
        lattice = b568.lattice
        rows = set_bits(lattice.interval((6, 7, 8), (0, 1, 2, 3, 6, 7, 8)))
        faces = {lattice.faces[r] for r in rows}
        assert faces == {
            (6, 7, 8),
            (3, 6, 7, 8),
            (0, 1, 2, 6, 7, 8),
            (0, 1, 2, 3, 6, 7, 8),
        }


class TestRowsOf:
    """``set_bits`` lists the rows of a row bitset as a plain bit-by-bit
    scan does, on either side of the width where it changes its reader."""

    @staticmethod
    def bit_by_bit(bits):
        return [i for i in range(bits.bit_length()) if bits >> i & 1]

    def test_no_row_and_the_top_row_alone(self, bundles):
        top = len(bundles(7, 9, 20).lattice) - 1
        assert set_bits(0) == []
        assert set_bits(1 << top) == [top]
        for width in (255, 256, 257):
            for bits in ((1 << width) - 1, 1 << width - 1, 0b1011 << width - 4):
                assert bits.bit_length() == width
                assert set_bits(bits) == self.bit_by_bit(bits), (width, bits)

    def test_every_step_interval(self, bundles):
        for bits in bundles(7, 9, 20).step_intervals:
            assert set_bits(bits) == self.bit_by_bit(bits)


class TestValidation:
    def test_rejects_missing_facet_overlap(self):
        # one facet holds every vertex of the other, so it is no facet
        with pytest.raises(ValueError, match="a facet equals the whole vertex set"):
            build_face_lattice([(0, 1, 2), (0, 1, 2, 3)], 2)

    @pytest.mark.parametrize(
        "facets, d, message",
        [
            ([], 2, "facet list is empty"),
            ([(-1, 0), (0, 1), (-1, 1)], 2, "negative vertex labels"),
            ([(0, 1), (0, 1), (1, 2)], 2, "duplicate facets"),
            ([(0, 1, 2), (0, 1, 2, 3)], 2, "a facet equals the whole vertex set"),
            # the facet (0, 1, 2, 3, 4) covers both the edge (0, 1) and
            # the vertex (3,), so no rank function fits its lower covers
            ([(0, 1, 2, 3, 4), (0, 1, 5), (1, 2, 5), (3, 5)], 3, "face closure is not graded"),
            (list(combinations(range(5), 4)), 3, r"top face has rank 5, expected 4"),
            ([(0, 1), (1, 2), (0, 2), (0,)], 2, r"facet \(0,\) has dimension 0 != 1"),
            ([(0, 1, 2), (0, 1, 3), (2, 3)], 2, "atoms of the closure are not the vertex singletons"),
        ],
    )
    def test_refusals(self, facets, d, message):
        with pytest.raises(ValueError, match=message):
            build_face_lattice(facets, d)

    def test_cyclic_cell_count(self):
        p = Params(5, 6, 6)
        lattice = build_face_lattice(enumerate_facets(p), 5)
        # simplicial: every facet contributes its full Boolean lower set
        f = lattice.f_vector()
        assert f[-1] == 12
        assert f[0] == 7


class TestFaceCap:
    @pytest.mark.parametrize("raw", ["abc", "-5", "0"])
    def test_rejects_bad_cap(self, monkeypatch, raw):
        monkeypatch.setenv("ORDPOLY_MAX_FACES", raw)
        with pytest.raises(ValueError, match="ORDPOLY_MAX_FACES"):
            build_face_lattice(enumerate_facets(Params(5, 6, 8)), 5)

    def test_small_cap_stops_the_closure(self, monkeypatch):
        monkeypatch.setenv("ORDPOLY_MAX_FACES", "100")
        with pytest.raises(RuntimeError, match="cap of 100 faces"):
            build_face_lattice(enumerate_facets(Params(7, 9, 12)), 7)
