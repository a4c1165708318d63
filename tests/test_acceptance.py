"""Acceptance gate: eight criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
without ``-s`` pytest captures them but the pass/fail result is the same.
"""

from math import comb

import pytest

from oracles import antistar_new_faces, brute_cyclic_facets
from ordpoly.bijection import bijection_records, count_by_size, subset_to_facet
from ordpoly.cli import main
from ordpoly.combinat import Params
from ordpoly.multiplex import multiplex_facets, multiplex_triangulation
from ordpoly.shelling import minimal_new_face_nonrecursive
from ordpoly.triangulation import shelling_restriction_faces
from ordpoly.verify import InstanceBundle, grid_instances, verify_instance


@pytest.fixture(scope="module")
def grid_results():
    return {p: verify_instance(p) for p in grid_instances()}


@pytest.fixture(scope="module")
def bundle_cache():
    cache: dict[tuple[int, int, int], InstanceBundle] = {}

    def get(d, k, n):
        key = (d, k, n)
        if key not in cache:
            cache[key] = InstanceBundle(Params(d, k, n))
        return cache[key]

    return get


def _verdict(num: int, label: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "FAIL" if exc_type else "PASS"
            print(f"[{status}] criterion {num}: {label}")
            return False

    return _Ctx()


def _named(results, name):
    return next(r for r in results if r.name == name)


TABLE1 = [
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

TABLE2 = [
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

TABLE3 = [
    ((4, 5, 7, 8, 10, 11, 13), 4, 8, 13, (10, 11), 2, (9, 12), (0, 1), (2, 4)),
    ((5, 8, 9, 10, 11, 13, 14), 5, 6, 13, (8, 9, 10, 11), 1, (7, 12), (0, 2), (1, 4)),
    ((3, 4, 5, 7, 8, 11, 12), 3, 8, 11, (), 3, (9, 10), (0, 0), (3, 4)),
    ((4, 5, 7, 8, 11, 12, 13), 4, 8, 13, (11, 12), 2, (9, 10), (0, 0), (2, 3)),
    ((5, 8, 9, 11, 12, 13, 14), 5, 6, 13, (8, 9, 11, 12), 1, (7, 10), (0, 1), (1, 3)),
    ((5, 9, 10, 11, 12, 13, 14), 5, 6, 13, (9, 10, 11, 12), 1, (7, 8), (0, 0), (1, 2)),
]


TABLE2_TEXT = """\
  j  l  012345678  U
  1  1  01234      -
  2  1  012 45     5
  3  1  0 2345     35
  4  1  0 23 56    6
  5  1  0  3456    46
  6  1  01 34 6    16
  6  2   1 34 67   7
  7  1  01  456    156
  7  2   1  4567   57
  8  1    2345  8  8
  9  1    23 56 8  68
 10  1     3456 8  468
 11  1   1234  7   27
 11  2    234  78  78
 12  1   12 45 7   257
 12  2    2 45 78  578
 13  1  0123  6    126
 13  2   123  67   267
 13  3    23  678  678
 14  1     34 678  4678
 15  1  012  56    1256
 15  2   12  567   2567
 15  3    2  5678  5678
 16  1      45678  45678
"""

TABLE3_TEXT = """\
  #  T (new-face vertices starred)      b   c   e  Y           a1  x     y    A
  1          4 5*  7 8   0 1*  3*       4   8  13  10,11        2  9,12  0,1  2,4
  2            5     8 9*0 1*  3 4*     5   6  13  8,9,10,11    1  7,12  0,2  1,4
  3        3 4*5*  7 8     1 2*         3   8  11  -            3  9,10  0,0  3,4
  4          4 5*  7 8     1 2*3*       4   8  13  11,12        2  9,10  0,0  2,3
  5            5     8 9*  1 2*3 4*     5   6  13  8,9,11,12    1  7,10  0,1  1,3
  6            5       9 0*1 2*3 4*     5   6  13  9,10,11,12   1  7,8   0,0  1,2
"""


def test_criterion_1_table1(capsys, bundle_cache):
    with _verdict(1, "shell 5 6 8 reproduces all 16 shelling rows"):
        code = main(["shell", "5", "6", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip("\n").split("\n")) == 17
        steps = bundle_cache(5, 6, 8).steps
        assert [(s.facet, s.new_face) for s in steps] == TABLE1


def test_criterion_2_table2(capsys, bundle_cache):
    with _verdict(2, "triangulate 5 6 8 reproduces all 24 window rows"):
        code = main(["triangulate", "5", "6", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == TABLE2_TEXT
        steps = bundle_cache(5, 6, 8).tri_steps
        got = [
            (s.facet_index, s.window_index, s.simplex, s.new_face) for s in steps
        ]
        assert got == TABLE2


def test_criterion_3_table3(capsys):
    with _verdict(3, "bijection 7 9 15 --i 3 reproduces all 6 rows and round-trips"):
        code = main(["bijection", "7", "9", "15", "--i", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == TABLE3_TEXT
        p = Params(7, 9, 15)
        records = bijection_records(p, 3)
        got = [
            (r.simplex, r.b, r.c, r.e, r.Y, r.a1, r.x_values, r.y_counts, r.A)
            for r in records
        ]
        assert got == TABLE3
        for r in records:
            assert subset_to_facet(r.A, p, 3) == r.simplex


def test_criterion_4_four_way_h(grid_results, bundle_cache):
    with _verdict(4, "four h-vector routes agree on all 50 grid instances"):
        for p, results in grid_results.items():
            check = _named(results, "four_way_h")
            assert check.ok, f"{p}: {check.detail}"
        b = bundle_cache(5, 6, 8)
        assert b.h == (1, 4, 7, 7, 4, 1)
        assert b.h_prime == (1, 4, 5, 3, 2, 1)
        assert b.lattice.f_vector() == (9, 31, 52, 44, 16)


def test_criterion_5_property_suite(grid_results):
    names = (
        "eulerian",
        "h_symmetric",
        "h_vs_h_prime",
        "shelling_partition",
        "boolean_intervals",
        "new_face_routes",
        "shallow",
        "topological_shelling",
        "contributions",
        "sum_h",
    )
    with _verdict(5, "per-instance property suite holds on the whole grid"):
        for p, results in grid_results.items():
            for name in names:
                check = _named(results, name)
                assert check.ok, f"{p} {name}: {check.detail}"


def test_criterion_6_h_increment(bundle_cache):
    with _verdict(6, "h growth in n matches the size-counted bijection"):
        stable = [
            p
            for p in grid_instances()
            if p.n >= p.d + p.k - 1 and p.n > p.k
        ]
        assert stable, "no stable instances in the grid"
        for p in stable:
            here = bundle_cache(p.d, p.k, p.n).h
            prev = bundle_cache(p.d, p.k, p.n - 1).h
            for i in range(1, p.d):
                expected = here[i] - prev[i]
                assert count_by_size(p, i) == expected, (p, i)
                if 1 <= i <= (p.d - 1) // 2:
                    assert expected == comb(p.k - p.d + i - 1, i - 1), (p, i)
        assert count_by_size(Params(7, 9, 15), 3) == 6


def test_criterion_7_oracle_equivalence(bundle_cache):
    with _verdict(7, "cyclic facets and new faces match brute-force oracles"):
        cyclic = [p for p in grid_instances() if p.n == p.k]
        assert cyclic
        for p in cyclic:
            b = bundle_cache(p.d, p.k, p.n)
            assert b.facets == brute_cyclic_facets(p.d, p.n)
            oracle = antistar_new_faces(b)
            for step, expected in zip(b.steps, oracle):
                if step.index == 1:
                    assert step.new_face == ()
                else:
                    assert step.new_face == expected
                assert (
                    minimal_new_face_nonrecursive(step.facet, p) == step.new_face
                )


def test_criterion_8_multiplex_suite(bundle_cache):
    with _verdict(8, "multiplex h-vectors and shelling order for d in {4,5,6}"):
        targets = [p for p in grid_instances() if p.is_multiplex]
        assert {4, 5, 6} <= {p.d for p in targets}
        for p in targets:
            d, n = p.d, p.n
            b = bundle_cache(d, d, n)
            r = n - d
            assert b.h == (1,) + (r + 1,) * (d - 1) + (1,)
            assert b.h_prime == (1, r + 1) + (1,) * (d - 1)

            solid = multiplex_triangulation(d, n)
            counts = [0] * (d + 2)
            for faces in shelling_restriction_faces(solid):
                counts[len(faces)] += 1
            assert tuple(counts[: d + 1]) == (1, r) + (0,) * (d - 1)

            facets = multiplex_facets(d, n)
            expected_order = (
                [facets[i] for i in range(r + 1)]
                + [facets[i] for i in range(n - 1, r, -1)]
                + [facets[n]]
            )
            assert [s.facet for s in b.steps] == expected_order
