"""Colex shellings with minimal new faces, plus shelling verification.

Listing the facets of P^{d,k,n} in colexicographic order is a shelling,
and the minimal new face G_j of each step has two independent
descriptions: a direct run-parity rule on the facet (nonrecursive) and a
reduction through the left-shift map to the cyclic case n = k
(recursive).  Both are implemented; their agreement on every instance is
one of the standing cross-checks.

The verifiers at the bottom certify shellings from first principles:
interval partition of the face lattice, Booleanness of each step
interval, and the topological definition (each facet meets the earlier
ones in an initial segment of a shelling of its own boundary, checked
recursively).  The first two read the step intervals as row bitsets,
computed once by ``step_intervals``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .combinat import (
    Params,
    VertexSet,
    WallTable,
    mask_of,
    maximal_runs,
    set_bits,
    shelling_walls,
)
from .lattice import FaceLattice
from .multiplex import multiplex_facets
from .ordinary import enumerate_facets, lsh


class ShellingStep(NamedTuple):
    """Step j of a shelling: facet F_j with its minimal new face G_j."""

    index: int
    facet: VertexSet
    new_face: VertexSet


class FaceDecomposition(NamedTuple):
    """Run decomposition of a facet driving the new-face rule.

    ``anchored`` collects the vertices glued to colex-earlier facets (the
    exceptional left part), ``evens`` the even-length interior runs, and
    ``tail`` the trailing run of unconditionally new vertices: the run
    containing n when n is in the facet, or the singleton {max F} in
    multiplex mode with k <= max F <= n-1.
    """

    anchored: VertexSet
    evens: tuple[range, ...]
    tail: range | None


def decompose_facet(face: VertexSet, p: Params) -> FaceDecomposition:
    """Split a facet into anchored part, even interior runs, and tail.

    Raises ValueError when the leftover runs are not all of even length,
    which signals that the input is not a facet of p.
    """
    if not face:
        raise ValueError("empty face")
    k, n = p.k, p.n
    mx = face[-1]
    if p.is_multiplex and k <= mx <= n - 1:
        # The general rule below assumes k > d here; in multiplex mode
        # every vertex but the maximum is anchored and the maximum alone
        # is new.
        return FaceDecomposition(face[:-1], (), range(mx, mx + 1))

    runs = maximal_runs(face)
    run_of = {v: run for run in runs for v in run}
    tail = runs[-1] if mx == n else None
    anchored_runs: list[range] = []
    if mx <= k - 1:
        if 0 not in run_of:
            raise ValueError(f"{face}: low facet must contain 0")
        anchored_runs.append(run_of[0])
    elif mx <= n - 1:
        if mx - k not in run_of:
            raise ValueError(f"{face}: expected {mx - k} in a middle facet")
        anchored_runs.append(run_of[mx - k])
        second = run_of.get(mx - k + 2)
        if second is not None and second not in anchored_runs:
            anchored_runs.append(second)
    else:
        if n - k in run_of:
            anchored_runs.append(run_of[n - k])
    if tail is not None and tail in anchored_runs:
        raise ValueError(f"{face}: anchored run collides with the tail run")

    evens: list[range] = []
    for run in runs:
        if run in anchored_runs or run == tail:
            continue
        if len(run) % 2 != 0:
            raise ValueError(f"{face}: leftover run {run} has odd length")
        evens.append(run)
    anchored = tuple(v for run in anchored_runs for v in run)
    return FaceDecomposition(tuple(sorted(anchored)), tuple(evens), tail)


def minimal_new_face_nonrecursive(face: VertexSet, p: Params) -> VertexSet:
    """G_j by the direct rule: even positions of the even runs, plus tail."""
    dec = decompose_facet(face, p)
    out: list[int] = []
    for run in dec.evens:
        out.extend(run[1::2])
    if dec.tail is not None:
        out.extend(dec.tail)
    return tuple(sorted(out))


def _cyclic_new_face(face: VertexSet, p: Params) -> VertexSet:
    """Base case n = k: runs touching k are new, runs touching 0 anchored,
    interior runs contribute their even positions."""
    out: list[int] = []
    for run in maximal_runs(face):
        if p.k in run:
            out.extend(run)
        elif 0 in run:
            continue
        else:
            if len(run) % 2 != 0:
                raise ValueError(f"{face}: interior run {run} has odd length")
            out.extend(run[1::2])
    return tuple(sorted(out))


@lru_cache(maxsize=1)
def _recursive_memo(p: Params) -> dict[tuple[VertexSet, int], VertexSet]:
    """The recursive route's G_j by (facet, level), for the instance p of
    the latest call alone.  A shelling asks once per facet and its facets
    share their chains, so the memo lives as long as the instance does; a
    call for another instance starts an empty one."""
    return {}


def minimal_new_face_recursive(face: VertexSet, p: Params) -> VertexSet:
    """G_j by reduction to the cyclic base through left shifts.

    A facet not touching the top two labels is already a facet of the
    polytope one size down, so the walk starts at level
    max(k, max F + 1) when that is below n.  From there each left shift
    gives a facet one level down that touches the top two labels again;
    the walk goes down until a level memoised for this instance or the
    cyclic base n = k, then climbs back, shifting the new face up by one
    per level.
    """
    d, k = p.d, p.k
    memo = _recursive_memo(p)
    level = max(k, min(p.n, face[-1] + 1))
    chain: list[VertexSet] = []
    while (face, level) not in memo and level > k:
        chain.append(face)
        face = lsh(face, Params(d, k, level))
        level -= 1
    if (face, level) not in memo:
        memo[face, level] = _cyclic_new_face(face, Params(d, k, k))
    new = memo[face, level]
    for face in reversed(chain):
        level += 1
        # An empty face below means the left shift hit the colex-first
        # facet; this only happens in multiplex mode at n = d+1, where
        # the correct new face is the top vertex alone.
        new = tuple(v + 1 for v in new) if new else (face[-1],)
        memo[face, level] = new
    return new


def colex_shelling(p: Params) -> list[ShellingStep]:
    """The colex facet order with each step's minimal new face."""
    facets = enumerate_facets(p)
    steps = [
        ShellingStep(j, f, minimal_new_face_nonrecursive(f, p))
        for j, f in enumerate(facets, 1)
    ]
    if steps[0].new_face != ():
        raise AssertionError("first shelling step must introduce no new face")
    if steps[-1].new_face != steps[-1].facet:
        raise AssertionError("last shelling step must be entirely new")
    return steps


# -- verification ---------------------------------------------------------


def step_intervals(lattice: FaceLattice, steps: Sequence[ShellingStep]) -> list[int]:
    """The rows of each step interval [G_j, F_j] as a bitset, in step
    order: the one reading of the intervals that the partition, Boolean
    and contribution certificates share."""
    return [lattice.interval(step.new_face, step.facet) for step in steps]


def verify_shelling_partition(
    lattice: FaceLattice, intervals: Sequence[int]
) -> tuple[bool, VertexSet | None]:
    """Every face except the top must lie in exactly one step interval.

    ``intervals`` are the row bitsets of ``step_intervals``; the empty
    face belongs to step 1.  One pass collects the rows met at all and
    the rows met twice.  The wrong rows are those met twice, those
    missed, and the top if it was met; the lowest of them is the
    witness.  Returns (ok, witness).
    """
    union = twice = 0
    for bits in intervals:
        twice |= union & bits
        union |= bits
    # the top is the highest row and lies in no step interval
    wrong = twice | (union ^ (lattice._all >> 1))
    if not wrong:
        return True, None
    return False, lattice.faces[(wrong & -wrong).bit_length() - 1]


def boolean_interval_check(lattice: FaceLattice, interval: int) -> bool:
    """Certify that an interval, given as its row bitset (see
    ``FaceLattice.interval``), is a Boolean lattice.

    Checks the element count 2^c, the atom count c, and that no two
    elements lie above the same set of atoms, so each subset of atoms is
    the atom set of exactly one element; faces are ordered by containment,
    so those are the atoms whose vertices it holds.  An atom lies below a
    meet iff it lies below both sides, and face-lattice intervals are
    closed under intersection, so that bijection is an order isomorphism.
    The rows are listed once and each gets its atom set as a c-bit int.
    An empty interval (a bottom outside the top) is no lattice.
    """
    if not interval:
        return False
    rows = set_bits(interval)
    dims, masks = lattice.dims, lattice._masks
    # the interval's lowest row is its bottom and its highest its top
    bottom_dim = dims[rows[0]]
    c = dims[rows[-1]] - bottom_dim
    if len(rows) != 1 << c:
        return False
    atoms = [masks[r] for r in rows if dims[r] == bottom_dim + 1]
    if len(atoms) != c:
        return False
    atom_bits = [(1 << i, atom) for i, atom in enumerate(atoms)]
    atom_sets = set()
    for r in rows:
        face, atom_set = masks[r], 0
        for bit, atom in atom_bits:
            if atom & face == atom:
                atom_set |= bit
        atom_sets.add(atom_set)
    return len(atom_sets) == len(rows)


# -- topological shelling (Definition-level certification) ----------------

_STATE_BUDGET = 500_000


class StateBudgetError(RuntimeError):
    """The topological shelling search outgrew its state budget."""


@lru_cache(maxsize=None)
def _multiplex_walls(e: int, size: int) -> tuple[WallTable, tuple[int, ...]]:
    """Walls of the e-multiplex on ``size`` vertices, by position: per
    facet, (positions inside it, positions outside it); and per position
    t the bitset of the facets holding t.  For e = 1 the facets are the
    two ends of an edge, and e = 0 has one empty wall.  With size = e+1
    the multiplex is a simplex: F_i omits position i for 0 < i < e, F_0
    omits e and F_e omits 0."""
    if e == 1 and size != 2:
        raise ValueError(f"a 1-face has exactly 2 vertices, got {size}")
    facets = [()] if e == 0 else [(0,), (1,)] if e == 1 else multiplex_facets(e, size - 1)
    table = tuple((f, tuple(t for t in range(size) if t not in f)) for f in facets)
    rows = tuple(mask_of(q for q, f in enumerate(facets) if t in f) for t in range(size))
    return table, rows


def _walls(face: VertexSet, e: int) -> list[int]:
    """Wall masks of an e-face, seen as an e-multiplex on its own vertices:
    its ridges carried from position space to the face's labels."""
    return [mask_of(face[t] for t in wall) for wall, _ in _multiplex_walls(e, len(face))[0]]


def verify_shelling_topological(
    facet_order: list[VertexSet], d: int
) -> tuple[bool, VertexSet | None]:
    """Certify a facet order as a shelling straight from the definition.

    Each facet past the first must meet the earlier facets in the start
    of a shelling of its own boundary (Ziegler, Lectures on Polytopes,
    Def. 8.1): some ridge of the facet lies in an earlier facet, every
    meet with an earlier facet lies in such a covered ridge, and the
    covered ridges can be ordered as the first steps of a shelling of
    the facet's boundary, which is decided by the same test one
    dimension down.  Ridges come from the facet's own multiplex
    structure in position space, so only the vertex sets and the
    dimension ``d`` of the polytope are needed; no face lattice is read.

    Returns (ok, witness), the witness being the first facet of the
    order that breaks the rule.  The search memo and its state budget
    belong to this call alone, so the verdict never depends on what ran
    earlier in the process; a search that outgrows the budget raises
    StateBudgetError.
    """
    memo: dict[tuple[int, int, int, int | None], bool] = {}

    def fits(e: int, cell: Sequence[int], rows: Sequence[int], earlier: int) -> bool:
        # The step rule for an (e-1)-cell placed after the cells of
        # ``earlier``: its covered walls must start a shelling of its own
        # boundary.
        if not earlier:
            return True
        table, _ = _multiplex_walls(e - 1, len(cell))
        covered, stray = shelling_walls(cell, table, rows, earlier)
        if not covered or stray:
            return False
        return extendable(e - 1, len(cell) - 1, 0, mask_of(covered))

    def extendable(e: int, p: int, placed: int, chosen: int) -> bool:
        # Can the ridges of ``placed`` (a bitmask of ridge indices) grow
        # into a shelling of the boundary of the e-multiplex with p+1
        # vertices, placing the rest of ``chosen`` first?  Once ``chosen``
        # is placed the answer no longer depends on it, so those keys are
        # shared.
        if e <= 1:
            return True
        rest = chosen & ~placed
        key = (e, p, placed, chosen if rest else None)
        if key in memo:
            return memo[key]
        table, rows = _multiplex_walls(e, p + 1)
        candidates = set_bits(rest) if rest else range(len(table))
        ok = placed.bit_count() == len(table) or any(
            not placed >> f & 1
            and fits(e, table[f][0], rows, placed)
            and extendable(e, p, placed | 1 << f, chosen)
            for f in candidates
        )
        memo[key] = ok
        if len(memo) > _STATE_BUDGET:
            raise StateBudgetError("topological shelling search exceeded its state budget")
        return ok

    rows = [0] * (max((v for f in facet_order for v in f), default=-1) + 1)
    for j, face in enumerate(facet_order):
        if not fits(d, face, rows, (1 << j) - 1):
            return False, face
        for v in face:
            rows[v] |= 1 << j
    return True, None
