"""The cross-check harness itself: grid composition and failure reporting."""

from itertools import combinations
from types import SimpleNamespace

import pytest

from oracles import NOT_EULERIAN
from ordpoly import bijection, lattice, shelling, triangulation, verify
from ordpoly.combinat import Interval, Params, is_gale
from ordpoly.hvector import toric_tables
from ordpoly.verify import CHECK_NAMES, grid_instances, verify_instance


def cube_bundle(facets):
    """The checks' view of a cube with the given square facets."""
    cube = lattice.build_face_lattice(facets, 3)
    return SimpleNamespace(
        p=SimpleNamespace(d=3), facets=facets, lattice=cube, toric=toric_tables(cube)
    )


class TestGrid:
    def test_size_and_membership(self):
        grid = grid_instances()
        assert len(grid) == 50
        assert Params(5, 6, 8) in grid
        assert Params(7, 10, 14) in grid
        assert Params(4, 4, 8) in grid
        assert Params(6, 6, 10) in grid
        assert len(set(grid)) == len(grid)

    def test_shapes(self):
        for p in grid_instances():
            assert p.n >= p.k >= p.d
            if p.k > p.d:
                assert p.d % 2 == 1 and p.d >= 5


class TestVerifyInstance:
    def test_all_checks_reported(self):
        results = verify_instance(Params(5, 6, 7))
        assert [r.name for r in results] == list(CHECK_NAMES)
        assert all(r.ok for r in results), [
            (r.name, r.detail) for r in results if not r.ok
        ]

    def test_skips_are_marked(self):
        results = verify_instance(Params(5, 6, 7))
        by_name = {r.name: r for r in results}
        assert by_name["multiplex_suite"].detail.startswith("skipped")
        assert by_name["bijection_counts"].detail.startswith("skipped")

    def test_multiplex_instance_runs_multiplex_suite(self):
        results = verify_instance(Params(4, 4, 6))
        by_name = {r.name: r for r in results}
        assert by_name["multiplex_suite"].ok
        assert not by_name["multiplex_suite"].detail

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_polygons_pass_every_check(self, n):
        # At d = 2 the topological search's cells are edges, whose walls
        # come from the e = 1 table.
        results = verify_instance(Params(2, 2, n))
        assert [r.name for r in results] == list(CHECK_NAMES)
        assert all(r.ok for r in results), [(r.name, r.detail) for r in results if not r.ok]

    def test_topological_shelling_runs_on_large_n(self):
        by_name = {r.name: r for r in verify_instance(Params(5, 6, 11))}
        assert by_name["topological_shelling"].ok
        assert by_name["topological_shelling"].detail == ""

    def test_topological_failure_names_the_facet(self, b568):
        steps = b568.steps
        swapped = [*steps[:2], steps[3], steps[2], *steps[4:]]
        bad = SimpleNamespace(p=b568.p, steps=swapped)
        assert verify._check_topological(bad) == (
            "facet (0, 2, 3, 5, 6) breaks the definition-level shelling test"
        )

    def test_multiplex_order_failure_names_the_step(self, m58):
        facets = m58.facets
        swapped = [*facets[:2], facets[3], facets[2], *facets[4:]]
        bad = SimpleNamespace(p=m58.p, facets=swapped)
        assert verify._check_multiplex_suite(bad) == (
            f"colex order is not the window pattern: step 3 is {facets[3]}, "
            f"the pattern has {facets[2]}"
        )

    def test_multiplex_boundary_failure_names_the_simplices(self, m58):
        bad = SimpleNamespace(
            p=m58.p,
            facets=m58.facets,
            h=m58.h,
            h_prime=m58.h_prime,
            tri_steps=m58.tri_steps[:-1],
        )
        assert verify._check_multiplex_suite(bad) == (
            f"boundary triangulations disagree on [{m58.tri_steps[-1].simplex}]"
        )

    def test_failed_lattice_is_built_once(self, monkeypatch):
        monkeypatch.setenv("ORDPOLY_MAX_FACES", "100")
        calls = []
        closure = lattice._closure_masks

        def counted(*args):
            calls.append(args)
            return closure(*args)

        monkeypatch.setattr(lattice, "_closure_masks", counted)
        results = verify_instance(Params(7, 9, 12))
        failed = [r for r in results if not r.ok]
        assert [r.name for r in failed] == [
            "lattice_build",
            "eulerian",
            "facet_g",
            "shelling_partition",
            "boolean_intervals",
            "four_way_h",
            "h_symmetric",
            "h_vs_h_prime",
            "h_prime_routes",
            "sum_h",
            "contributions",
            "shallow",
        ]
        assert all("exceeds the cap of 100 faces" in r.detail for r in failed)
        assert len(calls) == 1

    def test_capped_lattice_fails_every_interval_reader_alike(self, monkeypatch):
        # A cached property caches no raise: each read of the step
        # intervals raises the lattice's kept FaceCapError again, and
        # every check that reads them reports the build's own detail,
        # on a first and on a second pass over the same bundle.
        monkeypatch.setenv("ORDPOLY_MAX_FACES", "100")
        b = verify.InstanceBundle(Params(7, 9, 12))
        checks = [
            verify._check_lattice_build,
            verify._check_shelling_partition,
            verify._check_boolean_intervals,
            verify._check_contributions,
        ]
        details = []
        for _ in range(2):
            for check in checks:
                with pytest.raises(lattice.FaceCapError) as caught:
                    check(b)
                details.append(f"{type(caught.value).__name__}: {caught.value}")
        assert details == [
            "FaceCapError: face closure exceeds the cap of 100 faces; "
            "raise ORDPOLY_MAX_FACES to allow more"
        ] * 8
        failed = {r.name: r.detail for r in verify_instance(b.p) if not r.ok}
        names = ("lattice_build", "shelling_partition", "boolean_intervals", "contributions")
        assert [failed[name] for name in names] == details[:4]

    def test_step_intervals_and_shelling_are_computed_once(self, monkeypatch):
        # P^{5,6,9} lies below the bijection's stability threshold, so the
        # bijection checks build no triangulation of their own; the
        # bundle's shelling feeds the intervals and the triangulation.
        reads = []
        interval = lattice.FaceLattice.interval

        def counted_interval(self, bottom, top):
            reads.append((bottom, top))
            return interval(self, bottom, top)

        shellings = []
        colex = shelling.colex_shelling

        def counted_colex(p):
            shellings.append(p)
            return colex(p)

        monkeypatch.setattr(lattice.FaceLattice, "interval", counted_interval)
        for module in (shelling, triangulation, verify):
            monkeypatch.setattr(module, "colex_shelling", counted_colex)
        p = Params(5, 6, 9)
        results = verify_instance(p)
        assert all(r.ok for r in results)
        assert shellings == [p]
        assert reads == [(s.new_face, s.facet) for s in colex(p)]

    def test_triangulation_is_built_at_most_twice(self, monkeypatch):
        # once for the bundle, once for the bijection's increment steps,
        # which every size of both bijection checks reads from one cache
        calls = []
        build = triangulation.triangulation_shelling

        def counted(p, *args, **kwargs):
            calls.append(p)
            return build(p, *args, **kwargs)

        for module in (triangulation, bijection, verify):
            monkeypatch.setattr(module, "triangulation_shelling", counted)
        bijection.increment_steps.cache_clear()
        results = verify_instance(Params(7, 9, 15))
        assert all(r.ok for r in results)
        assert not any(r.detail for r in results if r.name.startswith("bijection"))
        assert len(calls) <= 2


class TestWitnesses:
    def test_eulerian_failure_names_the_interval(self):
        bad = SimpleNamespace(lattice=lattice.build_face_lattice(*NOT_EULERIAN["k4_edges"]))
        assert verify._check_eulerian(bad) == (
            "Moebius condition fails: [(), (0, 1, 2, 3)] holds 5 faces "
            "of even dimension and 7 of odd"
        )

    def test_eulerian_failure_scans_the_lattice_once(self, monkeypatch):
        # euler_check scans through lattice.euler_witness, so patching both
        # modules counts every scan whichever entry point runs it.
        scans = []
        scan = lattice.euler_witness

        def counted(lat):
            scans.append(lat)
            return scan(lat)

        for module in (lattice, verify):
            monkeypatch.setattr(module, "euler_witness", counted)
        for name, case in NOT_EULERIAN.items():
            bad = SimpleNamespace(lattice=lattice.build_face_lattice(*case))
            scans.clear()
            assert verify._check_eulerian(bad).startswith("Moebius condition fails"), name
            assert scans == [bad.lattice], name

    def test_facet_g_passes_a_cube_in_multiplex_order(self):
        # binary labels: every square is 0-1-3-2 in its vertex order, whose
        # edges 01, 02, 13 and 23 are those of the 2-multiplex
        squares = [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 4, 5), (2, 3, 6, 7),
                   (0, 2, 4, 6), (1, 3, 5, 7)]
        assert verify._check_facet_g(cube_bundle(squares)) == ""

    def test_facet_g_refuses_a_square_in_cyclic_order(self):
        # the square 0-1-2-3 has the edges 01, 12, 23 and 03; its g is the
        # multiplex g, so only the walls tell the two apart
        squares = [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 4, 5), (1, 2, 5, 6),
                   (2, 3, 6, 7), (0, 3, 4, 7)]
        assert verify._check_facet_g(cube_bundle(squares)) == (
            "face (0, 1, 2, 3): the 2-multiplex wall (0, 2) is not a wall of the face"
        )

    def test_facet_g_refuses_a_pyramid_over_a_cyclic_polytope(self):
        # the pyramid over C(4,7) is Eulerian, but its base, a facet with
        # seven vertices, has the g of C(4,7), not that of the 4-multiplex
        base = tuple(range(7))
        gale = [f for f in combinations(base, 4) if is_gale(f, Interval(0, 6))]
        facets = [base] + [f + (7,) for f in gale]
        pyramid = lattice.build_face_lattice(facets, 5)
        assert (len(facets), len(pyramid)) == (15, 144)
        assert lattice.euler_check(pyramid)
        bad = SimpleNamespace(
            p=SimpleNamespace(d=5), facets=facets, lattice=pyramid, toric=toric_tables(pyramid)
        )
        assert verify._check_facet_g(bad) == (
            "facet (0, 1, 2, 3, 4, 5, 6): g is (1, 2, 3), multiplex form says (1, 2)"
        )
