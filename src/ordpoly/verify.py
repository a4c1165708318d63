"""Cross-verification suite: every structural claim, checked per instance.

Each check is independent and returns a pass/fail verdict with a witness
on failure.  The suite is deliberately redundant: the same quantity is
computed along unrelated routes (facet enumeration vs recursion, four
h-vector routes, new-face rule vs lattice oracle, interval counting vs
window counting) and any disagreement is a failure, never a warning.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, zip_longest
from typing import NamedTuple

from .bijection import bijection_records, count_by_size, subset_to_facet
from .combinat import Params, VertexSet, colex_key, face_of, set_bits
from .hvector import (
    HVector,
    contribution_total,
    h_closed_form,
    h_prime_from_f,
    modified_f,
    multiplicial_h,
    new_face_counts,
    shelling_contributions,
    toric_tables,
)
from .lattice import FaceLattice, build_face_lattice, euler_witness
from .multiplex import (
    multiplex_boundary_triangulation,
    multiplex_facet,
    multiplex_g,
    multiplex_triangulation,
)
from .ordinary import (
    _gale_facets,
    enumerate_facets,
    facets_by_recursion,
    lsh,
)
from .shelling import (
    _walls,
    boolean_interval_check,
    colex_shelling,
    minimal_new_face_recursive,
    step_intervals,
    verify_shelling_partition,
    verify_shelling_topological,
)
from .triangulation import (
    boundary_triangulation,
    shelling_restriction_faces,
    simplicial_h,
    shallowness_check,
    triangulation_shelling,
)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class InstanceBundle:
    """Shared computations for one parameter triple.

    Everything is computed lazily and at most once; the check functions
    below and the CLI verbs only read from here.
    """

    def __init__(self, p: Params):
        self.p = p

    @cached_property
    def facets(self) -> list[VertexSet]:
        return enumerate_facets(self.p)

    @cached_property
    def _lattice(self) -> FaceLattice | Exception:
        try:
            return build_face_lattice(self.facets, self.p.d)
        except (ValueError, RuntimeError) as exc:
            return exc

    @property
    def lattice(self) -> FaceLattice:
        """The face lattice.  A failed build (a closure over the face cap,
        say) is kept and raised again, so it runs once, not per reader."""
        if isinstance(self._lattice, Exception):
            raise self._lattice
        return self._lattice

    @cached_property
    def steps(self):
        return colex_shelling(self.p)

    @cached_property
    def step_intervals(self) -> list[int]:
        """Row bitset of each step interval [G_j, F_j], in step order."""
        return step_intervals(self.lattice, self.steps)

    @cached_property
    def tri_steps(self):
        return triangulation_shelling(self.p, self.steps)

    @cached_property
    def toric(self) -> tuple[list[HVector], list[tuple[int, ...]]]:  # h, g per class
        return toric_tables(self.lattice)

    @property
    def h(self) -> HVector:
        return self.toric[0][-1]

    @cached_property
    def h_prime(self) -> HVector:
        return new_face_counts((s.new_face for s in self.steps), self.p.d)

    @cached_property
    def contributions(self):
        return shelling_contributions(
            self.p, self.lattice, self.steps, self.tri_steps, self.step_intervals
        )


H_ROUTES = ("toric", "closed", "multiplicial", "triangulation")

_H_ROUTE = {
    "toric": lambda b: b.h,
    "closed": lambda b: h_closed_form(b.p),
    "multiplicial": lambda b: multiplicial_h(b.lattice.f_vector(), b.lattice.flag_f0()),
    "triangulation": lambda b: simplicial_h(b.tri_steps, b.p.d),
    "shelling": lambda b: b.h_prime,
}


def h_routes(b: InstanceBundle, method: str = "all") -> dict[str, HVector]:
    """The h-vector of ``b`` by one route, or by all four of ``H_ROUTES``.

    ``"all"`` leaves out the closed form in even dimension, where it does
    not apply; asking for that route alone there raises ValueError.
    ``"shelling"`` is the fake-simplicial h' of the colex shelling.
    """
    routes: dict[str, HVector] = {}
    for name in H_ROUTES if method == "all" else (method,):
        if name == "closed" and b.p.d % 2 == 0:
            if method == "all":
                continue
            raise ValueError("the closed form needs odd dimension")
        routes[name] = _H_ROUTE[name](b)
    return routes


def _check_facet_routes(b: InstanceBundle) -> str:
    direct = b.facets
    recursed = facets_by_recursion(b.p)
    if direct != recursed:
        return f"direct list has {len(direct)} facets, recursion {len(recursed)}"
    if b.p.is_cyclic and direct != _gale_facets(b.p):
        return "cyclic facet list disagrees with the Gale brute force"
    return ""


def _check_lattice_build(b: InstanceBundle) -> str:
    lattice = b.lattice
    if lattice.top() != tuple(range(b.p.n + 1)):
        return f"vertex set is {lattice.top()}, expected 0..{b.p.n}"
    return ""


def _check_eulerian(b: InstanceBundle) -> str:
    witness = euler_witness(b.lattice)
    if witness is None:
        return ""
    bottom, top = witness
    dims = [b.lattice.dims[r] for r in set_bits(b.lattice.interval(bottom, top))]
    even = sum(1 for e in dims if e % 2 == 0)
    return (
        f"Moebius condition fails: [{bottom}, {top}] holds {even} faces "
        f"of even dimension and {len(dims) - even} of odd"
    )


def _check_facet_g(b: InstanceBundle) -> str:
    _, g_list = b.toric
    lattice = b.lattice
    # A class shares its g and its size, and facet rows are in colex order
    # as ``b.facets`` is, so the first failing representative is the first
    # failing facet.
    for c, y in enumerate(lattice._class_reps):
        if lattice.dims[y] == b.p.d - 1:
            got = g_list[c]
            want = multiplex_g(b.p.d - 1, lattice._masks[y].bit_count())
            if got != want:
                return f"facet {lattice.faces[y]}: g is {got}, multiplex form says {want}"
    # The topological shelling search takes every face's walls from the
    # multiplex formula; certify that premise on the faces of dimension
    # 2..d-1.  A class shares its renumbered down-set, hence its walls,
    # so its representative decides it.
    masks, blocks = lattice._masks, lattice._blocks
    for y in lattice._class_reps:
        e = lattice.dims[y]
        if not 2 <= e <= b.p.d - 1:
            continue
        face = lattice.faces[y]
        # rows of dimension e-1 are blocks[e]:blocks[e+1]
        block = (1 << blocks[e + 1]) - (1 << blocks[e])
        covers = {masks[r] for r in set_bits(lattice._below(y) & block)}
        walls = set(_walls(face, e))
        if covers != walls:
            wall = min(covers ^ walls)
            if wall in covers:
                return f"face {face}: wall {face_of(wall)} is not a wall of the {e}-multiplex"
            return f"face {face}: the {e}-multiplex wall {face_of(wall)} is not a wall of the face"
    return ""


def _check_new_face_routes(b: InstanceBundle) -> str:
    for step in b.steps:
        other = minimal_new_face_recursive(step.facet, b.p)
        if other != step.new_face:
            return (
                f"facet {step.facet}: direct rule {step.new_face}, "
                f"recursion {other}"
            )
    return ""


def _check_shelling_partition(b: InstanceBundle) -> str:
    ok, witness = verify_shelling_partition(b.lattice, b.step_intervals)
    return "" if ok else f"face {witness} is not covered exactly once"


def _check_boolean_intervals(b: InstanceBundle) -> str:
    for step, interval in zip(b.steps, b.step_intervals):
        if not boolean_interval_check(b.lattice, interval):
            return f"interval [{step.new_face}, {step.facet}] is not Boolean"
    return ""


def _check_topological(b: InstanceBundle) -> str:
    ok, witness = verify_shelling_topological([s.facet for s in b.steps], b.p.d)
    return "" if ok else f"facet {witness} breaks the definition-level shelling test"


def _check_four_way_h(b: InstanceBundle) -> str:
    routes = h_routes(b)
    agree = all(v == b.h for v in routes.values())
    return "" if agree else f"routes disagree: {routes}"


def _check_h_symmetric(b: InstanceBundle) -> str:
    h = b.h
    if h != tuple(reversed(h)):
        return f"h = {h} is not symmetric"
    if h[0] != 1:
        return f"h_0 = {h[0]}"
    return ""


def _cyclic_reference(p: Params) -> HVector:
    if p.d % 2 == 1:
        return h_closed_form(Params(p.d, p.k, p.k))
    # Even dimension only occurs in multiplex mode, where the n = k case
    # is the simplex.
    return (1,) * (p.d + 1)


def _check_h_vs_h_prime(b: InstanceBundle) -> str:
    p = b.p
    h, hp = b.h, b.h_prime
    if any(x < y for x, y in zip(h, hp)):
        return f"h = {h} is not >= h' = {hp}"
    ref = _cyclic_reference(p)
    for i in range(p.d + 1):
        if hp[i] < ref[i]:
            return f"h'_{i} = {hp[i]} below the cyclic value {ref[i]}"
        if 2 * i > p.d and hp[i] != ref[i]:
            return f"h'_{i} = {hp[i]} != cyclic value {ref[i]} above d/2"
    return ""


def _check_h_prime_routes(b: InstanceBundle) -> str:
    via_f = h_prime_from_f(b.lattice.f_vector(), b.p.d)
    if via_f != b.h_prime:
        return f"shelling count {b.h_prime}, f-transform {via_f}"
    return ""


def _check_sum_h(b: InstanceBundle) -> str:
    expected = modified_f(b.lattice.f_vector(), b.lattice.flag_f0())[-1]
    if sum(b.h) != expected:
        return f"sum h = {sum(b.h)}, modified top count = {expected}"
    return ""


def _check_contributions(b: InstanceBundle) -> str:
    gap = tuple(x - y for x, y in zip(b.h, b.h_prime))
    acc = contribution_total(b.contributions)
    if acc != gap:
        return f"sum of contributions {acc} != h - h' {gap}"
    by_index = {s.index: s for s in b.steps}
    for j, a in b.contributions.items():
        if any(c < 0 for c in a):
            return f"step {j}: negative contribution {a}"
        expected = len(by_index[j].facet) - b.p.d
        if sum(a) != expected:
            return f"step {j}: contributions sum to {sum(a)}, not {expected}"
    return ""


def _check_triangulation_cover(b: InstanceBundle) -> str:
    from_steps = {s.simplex for s in b.tri_steps}
    direct = set(boundary_triangulation(b.p))
    if from_steps != direct:
        extra = from_steps ^ direct
        return f"window and Gale-subset routes differ on {sorted(extra)[:3]}"
    return ""


def _check_triangulation_oracle(b: InstanceBundle) -> str:
    simplices = [s.simplex for s in b.tri_steps]
    oracle = shelling_restriction_faces(simplices)
    for s, u in zip(b.tri_steps, oracle):
        if s.new_face != u:
            return (
                f"step ({s.facet_index},{s.window_index}): recursion "
                f"{s.new_face}, wall oracle {u}"
            )
    return ""


def _check_shallow(b: InstanceBundle) -> str:
    ok, witness = shallowness_check([s.simplex for s in b.tri_steps], b.lattice)
    return "" if ok else f"face {witness} has a too-deep carrier"


def _check_lsh(b: InstanceBundle) -> str:
    p = b.p
    if p.is_cyclic:
        return "skipped: no smaller instance"
    smaller = set(enumerate_facets(Params(p.d, p.k, p.n - 1)))
    shifted = [lsh(f, p) for f in b.facets if f[-1] >= p.k]
    for f in shifted:
        if f not in smaller:
            return f"left shift {f} is not a facet one size down"
    for a, c in zip(shifted, shifted[1:]):
        if colex_key(a) > colex_key(c):
            return f"left shift breaks colex order at {a} > {c}"
    return ""


def _check_multiplex_suite(b: InstanceBundle) -> str:
    p = b.p
    if not p.is_multiplex:
        return "skipped: k > d"
    d, n = p.d, p.n
    r = n - d
    expected_order = (
        [multiplex_facet(d, n, i) for i in range(r + 1)]
        + [multiplex_facet(d, n, i) for i in range(n - 1, r, -1)]
        + [multiplex_facet(d, n, n)]
    )
    if b.facets != expected_order:
        j, got, want = next(
            (j, f, g)
            for j, (f, g) in enumerate(zip_longest(b.facets, expected_order), 1)
            if f != g
        )
        return (
            f"colex order is not the window pattern: step {j} is {got}, "
            f"the pattern has {want}"
        )
    if b.h != (1,) + (r + 1,) * (d - 1) + (1,):
        return f"toric h = {b.h}, expected flat {r + 1}"
    if b.h_prime != (1, r + 1) + (1,) * (d - 1):
        return f"h' = {b.h_prime}"
    solid_new = shelling_restriction_faces(multiplex_triangulation(d, n))
    solid_h = new_face_counts(solid_new, d + 1)
    if solid_h != (1, r) + (0,) * d:
        return f"solid subdivision h = {list(solid_h)}"
    boundary = multiplex_boundary_triangulation(d, n)
    extra = {bs.simplex for bs in boundary} ^ {s.simplex for s in b.tri_steps}
    if extra:
        return f"boundary triangulations disagree on {sorted(extra)[:3]}"
    boundary_new = shelling_restriction_faces([bs.simplex for bs in boundary])
    counts = new_face_counts(boundary_new, d)
    if counts != b.h:
        return f"boundary walk h = {list(counts)} != toric {b.h}"
    mine = b.toric[1][-1]
    if mine != multiplex_g(d, n + 1):
        return f"polytope g = {mine}, window form {multiplex_g(d, n + 1)}"
    return ""


def _expected_increment(p: Params) -> HVector:
    if p.d % 2 == 1:
        high = h_closed_form(p)
        low = h_closed_form(Params(p.d, p.k, p.n - 1))
        return tuple(a - c for a, c in zip(high, low))
    return (0,) + (1,) * (p.d - 1) + (0,)


def _check_bijection_counts(b: InstanceBundle) -> str:
    p = b.p
    if p.n < p.d + p.k - 1:
        return "skipped: below the stability threshold"
    incr = _expected_increment(p)
    for i in range(1, p.d):
        got = count_by_size(p, i)
        if got != incr[i]:
            return f"size {i}: counted {got}, h increment {incr[i]}"
    return ""


def _check_bijection_roundtrip(b: InstanceBundle) -> str:
    p = b.p
    if p.n < p.d + p.k - 1:
        return "skipped: below the stability threshold"
    size = p.k - p.d
    for i in range(1, (p.d - 1) // 2 + 1):
        records = bijection_records(p, i)
        subsets = [r.A for r in records]
        if len(set(subsets)) != len(subsets):
            return f"size {i}: subset map is not injective"
        universe = range(1, size + i)
        wanted = {tuple(c) for c in combinations(universe, size)}
        if set(subsets) != wanted:
            return f"size {i}: image has {len(set(subsets))} of {len(wanted)}"
        for r in records:
            if len(r.Y) != 2 * i - 2 * r.a1:
                return f"|Y| = {len(r.Y)} != 2i - 2a1 for {r.simplex}"
            if subset_to_facet(r.A, p, i) != r.simplex:
                return f"round trip fails at {r.A}"
    return ""


_CHECKS = [
    ("facet_routes", _check_facet_routes),
    ("lattice_build", _check_lattice_build),
    ("eulerian", _check_eulerian),
    ("facet_g", _check_facet_g),
    ("new_face_routes", _check_new_face_routes),
    ("shelling_partition", _check_shelling_partition),
    ("boolean_intervals", _check_boolean_intervals),
    ("topological_shelling", _check_topological),
    ("four_way_h", _check_four_way_h),
    ("h_symmetric", _check_h_symmetric),
    ("h_vs_h_prime", _check_h_vs_h_prime),
    ("h_prime_routes", _check_h_prime_routes),
    ("sum_h", _check_sum_h),
    ("contributions", _check_contributions),
    ("triangulation_cover", _check_triangulation_cover),
    ("triangulation_oracle", _check_triangulation_oracle),
    ("shallow", _check_shallow),
    ("lsh_monotone", _check_lsh),
    ("multiplex_suite", _check_multiplex_suite),
    ("bijection_counts", _check_bijection_counts),
    ("bijection_roundtrip", _check_bijection_roundtrip),
]

CHECK_NAMES = [name for name, _ in _CHECKS]


def verify_instance(p: Params) -> list[CheckResult]:
    """Run every check on one instance; exceptions count as failures."""
    bundle = InstanceBundle(p)
    results: list[CheckResult] = []
    for name, fn in _CHECKS:
        try:
            detail = fn(bundle)
        except Exception as exc:  # noqa: BLE001 - verdicts must not abort
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
            continue
        if detail.startswith("skipped"):
            results.append(CheckResult(name, True, detail))
        else:
            results.append(CheckResult(name, detail == "", detail))
    return results


def grid_instances() -> list[Params]:
    """The standard verification grid, multiplex family included."""
    out: list[Params] = []
    for d in (5, 7):
        for k in range(d, d + 4):
            for n in range(k, k + 5):
                out.append(Params(d, k, n))
    for d in (4, 5, 6):
        for n in range(d, d + 5):
            p = Params(d, d, n)
            if p not in out:
                out.append(p)
    return out
