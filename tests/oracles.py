"""Independent reference computations used by several test modules.

These are deliberately written against the definitions only, with none of
the library's run/shift machinery in the loop, so they can arbitrate.  The
one exception is ``rsh``, the right shift of one facet, which the tests of
the shift itself call and no library code does.  ``assert_toric_by_rows``
holds the library's per-class toric tables against ``toric_by_rows``.
"""

from itertools import combinations

from ordpoly.combinat import (
    Interval,
    Params,
    _maximal,
    colex_key,
    colex_sorted,
    face_of,
    is_gale,
    mask_of,
    set_bits,
)
from ordpoly.hvector import expand_x_minus_one, toric_tables
from ordpoly.lattice import FaceCapError
from ordpoly.multiplex import multiplex_facet, multiplex_facets
from ordpoly.ordinary import _facet_generator_map, _shift_generators

# Graded closures that are not Eulerian, as (facets, d): each breaks the
# Moebius condition in a different place (see TestNotEulerian).
NOT_EULERIAN = {
    "k4_edges": (list(combinations(range(4), 2)), 2),
    "seven_vertex_torus": (
        sorted(
            tuple(sorted((i + a) % 7 for a in offsets))
            for i in range(7)
            for offsets in ((0, 1, 3), (0, 2, 3))
        ),
        3,
    ),
    "octahedron_minus_a_triangle": (
        [(0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 4), (1, 3, 4), (1, 3, 5)],
        3,
    ),
    "edge_with_three_vertices": (
        [(0, 1, 3, 4), (0, 2, 4, 6), (0, 3, 6), (1, 2, 3, 4, 5), (1, 2, 6), (1, 5, 6), (3, 5, 6)],
        3,
    ),
}

# A graded closure that is not Eulerian, as (facets, d), although every
# interval from the empty face is: two pentagonal prisms glued at the edge
# (3, 4) and at the vertex 8, which lies on no face of either prism
# through 3 or 4.  The link of vertex 3 is two circles sharing a point, so
# the first failing interval starts above the empty face.
PRISMS_SHARING_AN_EDGE_AND_A_VERTEX = (
    [(0, 1, 2, 3, 4), (0, 1, 7, 8), (0, 4, 6, 7), (1, 2, 8, 9), (2, 3, 5, 9),
     (3, 4, 5, 6), (3, 4, 10, 11, 12), (3, 4, 13, 14), (3, 12, 13, 16),
     (4, 10, 14, 15), (5, 6, 7, 8, 9), (8, 10, 11, 15), (8, 11, 12, 16),
     (8, 13, 14, 15, 16)],
    3,
)

# A graded closure that is no polytope, as (facets, d): its facets
# (0, 2, 3, 5, 6) and (0, 1, 4, 5, 6) have the same renumbered lower
# covers but 30 and 28 faces below, so only the covers' classes tell
# them apart.
SAME_RENUMBERED_COVERS = (
    [(0, 1, 2, 4, 5), (0, 1, 2, 4, 6), (0, 1, 4, 5, 6), (0, 2, 3, 4, 5),
     (0, 2, 3, 4, 6), (0, 2, 3, 5, 6), (0, 3, 4, 5, 6), (1, 2, 3, 4, 5),
     (1, 2, 3, 4, 6), (1, 2, 3, 5, 6), (1, 3, 4, 5, 6)],
    5,
)

# The facets of a graded closure on 0..7 where the square pyramid
# (0, 1, 2, 6, 7) and the face (0, 1, 3, 6, 7) share their one lower cover
# that misses a single vertex, the square (0, 1, 6, 7), at the same
# position, and differ only in the covers that miss two vertices: four
# triangles under the pyramid, three under the other face.
SAME_NARROW_COVERS = [
    (0, 1, 2, 3, 6, 7), (0, 1, 2, 4, 5), (0, 1, 2, 5, 6, 7), (0, 1, 3, 4, 6, 7),
    (0, 1, 4, 5, 6, 7), (0, 2, 3, 4, 5), (0, 2, 3, 5, 6), (0, 3, 4, 5, 6),
    (1, 2, 3, 4, 7), (1, 2, 4, 5, 7), (2, 3, 4, 5, 7), (2, 3, 5, 6, 7), (3, 4, 5, 6, 7),
]


def order_by_containment(lattice) -> tuple[list[int], list[int]]:
    """For each row y, the bitsets of the rows below and above y, from the
    definition: row r lies below y iff face r is a subset of face y.

    Column y of that containment matrix is y's down-set and row y its
    up-set, so each pair is tested once, the columns are kept as strings
    of digits, and the rows are read off by transposing them.
    """
    masks = lattice._masks
    # each column runs from the last row to row 0, the leading digit first
    columns = ["".join(["0" if m & ~y else "1" for m in reversed(masks)]) for y in masks]
    below = [int(column, 2) for column in columns]
    above = [int("".join(row), 2) for row in zip(*reversed(columns))][::-1]
    return below, above


def retract_by_clamping(values, n: int) -> tuple[int, ...]:
    """Retraction by its definition: clamp every element into [0, n] on
    its own, then deduplicate and sort."""
    return tuple(sorted({min(max(v, 0), n) for v in values}))


def brute_cyclic_facets(d: int, n: int) -> list[tuple[int, ...]]:
    """Scan every d-subset of [0,n] for Gale evenness directly.

    A maximal run of chosen elements that touches neither 0 nor n must
    have even length.
    """
    out = []
    for subset in combinations(range(n + 1), d):
        runs = [[subset[0]]]
        for v in subset[1:]:
            if v == runs[-1][-1] + 1:
                runs[-1].append(v)
            else:
                runs.append([v])
        if all(len(r) % 2 == 0 for r in runs if r[0] != 0 and r[-1] != n):
            out.append(subset)
    return sorted(out, key=colex_key)


def rsh(face, p):
    """Right shift: maps a facet of P^{d,k,n-1} to a facet of p.

    The shift acts on generators, not vertex sets, so every generator of
    the facet is shifted and the images are required to agree.  A multiplex
    has clamped windows in their place, shifted by index: the facet
    omitting i becomes the facet omitting i+1, and F_0 of the source maps
    onto F_0 again only through its generator; index lookup keeps this
    exact.
    """
    d, k, n = p.d, p.k, p.n
    source = Params(d, k, n - 1)
    if p.is_multiplex:
        indices = {f: i for i, f in enumerate(multiplex_facets(d, n - 1))}
        if face not in indices:
            raise ValueError(f"{face} is not a facet of {source}")
        return multiplex_facet(d, n, indices[face] + 1)
    gens = _facet_generator_map(source).get(face)
    if gens is None:
        raise ValueError(f"{face} is not a facet of {source}")
    return _shift_generators(face, gens, n)[0]


def antistar_new_faces(bundle) -> list[tuple[int, ...] | None]:
    """The minimal face of each facet missed by all earlier facets.

    Works purely over the face lattice; ``None`` marks a first step whose
    every face is new (its minimal new face is the empty face).
    """
    lattice = bundle.lattice
    facets = bundle.facets
    masks = [sum(1 << v for v in f) for f in facets]
    out = []
    for j, f in enumerate(facets):
        rows = set_bits(lattice.interval((), f))
        fresh = []
        for r in rows:
            face = lattice.faces[r]
            if lattice.dims[r] > lattice.d - 1:
                continue
            m = sum(1 << v for v in face)
            if not any(m & ~masks[i] == 0 for i in range(j)):
                fresh.append((len(face), face, m))
        if not fresh:
            out.append(None)
            continue
        fresh.sort()
        _, face, m = fresh[0]
        assert all(m & other_m == m for _, _, other_m in fresh), (
            f"no unique minimum under facet {f}"
        )
        out.append(face)
    return out


def boolean_by_joins(lattice, bottom, top) -> bool:
    """Booleanness of [bottom, top] by the joins of atom subsets.

    Checks the element count 2^c and the atom count c, then forms the
    join of every one of the 2^c atom subsets by scanning the whole
    interval for the faces above it, and asks that the joins be pairwise
    distinct.
    """
    rows = set_bits(lattice.interval(bottom, top))
    bottom_dim = lattice.dims[lattice.index(bottom)]
    c = lattice.dims[lattice.index(top)] - bottom_dim
    if len(rows) != 2**c:
        return False
    atom_rows = [r for r in rows if lattice.dims[r] == bottom_dim + 1]
    if len(atom_rows) != c:
        return False
    interval_masks = [lattice._masks[r] for r in rows]
    atom_masks = [lattice._masks[r] for r in atom_rows]
    bottom_mask, top_mask = interval_masks[0], interval_masks[-1]
    joins: set[int] = set()
    for bits in range(2**c):
        union = bottom_mask
        for t in range(c):
            if bits >> t & 1:
                union |= atom_masks[t]
        join = top_mask
        for m in interval_masks:
            if m & union == union:
                join &= m
        joins.add(join)
    return len(joins) == 2**c


def carrier_by_facets(bundle, sigma) -> tuple[int, ...]:
    """Smallest face holding ``sigma``, as the meet of the facets that do.

    When no facet holds sigma the carrier is the whole vertex set; the
    empty set's carrier is the empty face.
    """
    sig = set(sigma)
    if not sig:
        return ()
    holding = [set(f) for f in bundle.facets if sig <= set(f)]
    if not holding:
        return tuple(sorted(set().union(*bundle.facets)))
    return tuple(sorted(set.intersection(*holding)))


def lattice_carrier(lattice, sigma) -> tuple[int, ...]:
    """The carrier of ``sigma`` as the lattice finds it: the face of the
    lowest row holding all of sigma's vertices."""
    return face_of(lattice._masks[lattice._carrier_row(mask_of(sigma))])


def boundary_by_windows(p):
    """The shallow triangulation window by window: every d-subset of each
    window [i, i+k] that contains 0, or n, or both window ends and is
    Gale in that window, colex-sorted."""
    d, k, n = p.d, p.k, p.n
    out = set()
    for i in range(n - k + 1):
        window = Interval(i, i + k)
        for sub in combinations(window.members(), d):
            picked = set(sub)
            if not (0 in picked or n in picked or {i, i + k} <= picked):
                continue
            if is_gale(sub, window):
                out.add(sub)
    return colex_sorted(out)


def simplex_walls(cell: int) -> list[int]:
    """Walls of a simplex mask: the cell minus one vertex, by increasing
    removed vertex."""
    return [cell ^ (1 << v) for v in set_bits(cell)]


def shelling_walls_by_scans(cell: int, walls, earlier) -> list[int] | None:
    """The shelling step rule on bitmasks, scanning ``earlier`` twice.

    One scan per wall finds the walls inside some earlier cell; a second
    scan checks that every nonempty meet with an earlier cell lies in one
    of them.  Past the first step a covered wall must exist.
    """
    covered = [i for i, w in enumerate(walls) if any(w & ~e == 0 for e in earlier)]
    if earlier and not covered:
        return None
    for e in earlier:
        meet = cell & e
        if meet and not any(meet & ~walls[i] == 0 for i in covered):
            return None
    return covered


def restriction_faces_by_scans(simplices) -> list[tuple[int, ...]]:
    """Restriction faces of an ordered simplicial complex, replayed through
    ``shelling_walls_by_scans`` with the list of earlier simplex masks.

    Refuses a step with the same two messages as the library's wall
    oracle: no wall lies in an earlier simplex, or some earlier simplex
    meets the step outside every covered wall.
    """
    earlier: list[int] = []
    out = []
    for idx, simplex in enumerate(simplices):
        cell = mask_of(simplex)
        walls = simplex_walls(cell)
        covered = shelling_walls_by_scans(cell, walls, earlier)
        if covered is None:
            if not any(w & ~e == 0 for w in walls for e in earlier):
                raise ValueError(
                    f"step {idx + 1}: {simplex} meets no earlier simplex in a wall"
                )
            raise ValueError(
                f"step {idx + 1}: {simplex} meets an earlier simplex "
                "outside every covered wall"
            )
        vertices = sorted(simplex)
        out.append(tuple(vertices[i] for i in covered))
        earlier.append(cell)
    return out


def shallowness_by_all_faces(simplices, lattice):
    """Shallowness over every face of every simplex, whatever its size:
    (True, None), or (False, the first face in sorted order whose carrier
    has dimension above 2 dim sigma)."""
    faces = set()
    for simplex in simplices:
        for size in range(1, len(simplex) + 1):
            faces.update(combinations(simplex, size))
    ordered = sorted(faces)
    carrier_dims = lattice.carrier_dims([mask_of(f) for f in ordered])
    for face, cdim in zip(ordered, carrier_dims):
        if cdim > 2 * (len(face) - 1):
            return False, face
    return True, None


def euler_by_pairs(lattice) -> bool:
    """Eulerian test over every comparable pair, two popcounts each.

    Every interval [x, y] with x < y must hold as many faces of even
    dimension as of odd (Stanley, EC1 3.16).  Only the down-set of the
    current y and the up-set of the current x are held.
    """
    even = 0
    for row, fd in enumerate(lattice.dims):
        if fd % 2 == 0:
            even |= 1 << row
    for y in range(len(lattice)):
        below = lattice._below(y)
        below_even = below & even
        for x in set_bits(below ^ (1 << y)):
            above = lattice._above(lattice._masks[x])
            if 2 * (above & below_even).bit_count() != (above & below).bit_count():
                return False
    return True


def euler_witness_by_containment(lattice):
    """The first interval [x, y] with unequal even and odd face counts, y a
    class representative, as a pair of faces, or None: x ascending, then
    y ascending, each interval counted by testing every row's face for
    containment between x and y."""
    masks, dims = lattice._masks, lattice.dims
    for x, bottom in enumerate(masks):
        for y in lattice._class_reps:
            top = masks[y]
            if y == x or bottom & ~top:
                continue
            inside = [dims[r] for r, m in enumerate(masks) if bottom & ~m == 0 and m & ~top == 0]
            even = sum(1 for e in inside if e % 2 == 0)
            if 2 * even != len(inside):
                return face_of(bottom), face_of(top)
    return None


def toric_by_rows(lattice) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The toric h and g of every face, summing g row by row.

    Expands each down-set into its rows and adds up, per dimension, the
    g of every face strictly below, with no grouping of equal terms.
    """
    dims = lattice.dims
    h_list: list[tuple[int, ...]] = [()] * len(dims)
    g_list: list[tuple[int, ...]] = [(1,)] * len(dims)
    for row, e in enumerate(dims):
        if e == -1:
            h_list[row] = (1,)
            continue
        g_sums: dict[int, list[int]] = {}
        for r in set_bits(lattice._below(row))[:-1]:
            acc = g_sums.setdefault(dims[r], [0] * (e // 2 + 1))
            for i, gi in enumerate(g_list[r]):
                acc[i] += gi
        h = expand_x_minus_one(
            (
                (gi, i, e - 1 - t)
                for t, g_sum in g_sums.items()
                for i, gi in enumerate(g_sum)
                if gi
            ),
            e,
        )
        g = [1] + [h[i] - h[i - 1] for i in range(1, e // 2 + 1)]
        while g[-1] == 0:
            g.pop()
        h_list[row], g_list[row] = h, tuple(g)
    return h_list, g_list


def assert_toric_by_rows(lattice) -> None:
    """``toric_tables`` holds one h and one g per class, and read through
    each row's class they are ``toric_by_rows`` row for row."""
    tables = toric_tables(lattice)
    assert [len(t) for t in tables] == [len(lattice._class_reps)] * 2
    by_class = tuple([t[c] for c in lattice._class_of] for t in tables)
    assert by_class == toric_by_rows(lattice)


def closure_by_levels(
    facet_masks: list[int], top_mask: int, cap: int
) -> tuple[dict[int, list[int]], dict[int, int]]:
    """Every face of the closure, mapped to the masks of its lower covers
    and to its depth below the top, walked breadth-first.

    A face below H is inside some facet that misses H, hence inside a
    meet H & F; so the maximal meets are the lower covers, and walking
    them down from the top, one level at a time, reaches every face.  A
    face is first reached from its shallowest cover, and the closure is
    graded iff every lower cover lies exactly one level below its face.
    The top is not counted against the cap.
    """
    covers: dict[int, list[int]] = {}
    depth = {top_mask: 0}
    frontier = [top_mask]
    while frontier:
        next_frontier = []
        for face in frontier:
            meets = {m for f in facet_masks if (m := face & f) != face}
            if not meets and face:  # inside every facet: covers only the empty face
                meets = {0}
            below = _maximal(meets)
            covers[face] = below
            level = depth[face] + 1
            for meet in below:
                if meet not in depth:
                    depth[meet] = level
                    next_frontier.append(meet)
                    if len(depth) > cap + 1:
                        raise FaceCapError(
                            f"face closure exceeds the cap of {cap} faces; "
                            "raise ORDPOLY_MAX_FACES to allow more"
                        )
                elif depth[meet] != level:
                    raise ValueError("face closure is not graded")
        frontier = next_frontier
    return covers, depth


def walk_covers_and_depths(
    height: dict[int, int], wide: dict[int, list[int]]
) -> tuple[dict[int, list[int]], dict[int, int]]:
    """The lower covers and the depth below the top of every face, read
    back from the heights and wide covers that ``lattice._closure_masks``
    returns: a face's lower covers are its wide ones and every face of the
    closure that misses exactly one of its vertices."""
    rank = max(height.values())
    covers = {
        face: [face ^ (1 << v) for v in set_bits(face) if face ^ (1 << v) in height]
        + wide.get(face, [])
        for face in height
    }
    return covers, {face: rank - h for face, h in height.items()}


def classes_by_full_key(lattice) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The class id of every row and the first row of every class, with
    every face keyed in full: its size and, per lower cover, the cover
    renumbered into the face's vertex positions with the cover's class.

    The lower covers are read off the lattice as the faces one dimension
    down that lie inside the face; ids count classes in order of first
    appearance.
    """
    masks, dims, blocks = lattice._masks, lattice.dims, lattice._blocks
    classes: dict[tuple[int, frozenset[tuple[int, int]]], int] = {}
    class_of: list[int] = []
    reps: list[int] = []
    for row, mask in enumerate(masks):
        e = dims[row]
        # rows of dimension e-1 are blocks[e]:blocks[e+1]
        below = lattice._below(row) & ((1 << blocks[e + 1]) - (1 << blocks[e])) if e >= 0 else 0
        positions = {v: i for i, v in enumerate(set_bits(mask))}
        key = frozenset(
            (sum(1 << positions[v] for v in set_bits(masks[c])), class_of[c])
            for c in set_bits(below)
        )
        cls = classes.setdefault((mask.bit_count(), key), len(reps))
        if cls == len(reps):
            reps.append(row)
        class_of.append(cls)
    return tuple(class_of), tuple(reps)


def interval_by_containment(lattice, bottom: int, top: int) -> int:
    """The rows of the faces between the vertex bitmasks ``bottom`` and
    ``top``, as a bitset, testing every row's face for containment."""
    return mask_of(
        r for r, m in enumerate(lattice._masks) if bottom & ~m == 0 and m & ~top == 0
    )


def partition_witness_by_counting(lattice, steps):
    """The first face not covered exactly once by the step intervals
    [G_j, F_j] (the top: not at all), or None, counting each row's
    intervals by containment."""
    counts = [0] * len(lattice)
    counts[-1] = 1  # the top lies in no interval
    for step in steps:
        rows = interval_by_containment(lattice, mask_of(step.new_face), mask_of(step.facet))
        for r in set_bits(rows):
            counts[r] += 1
    for row, got in enumerate(counts):
        if got != 1:
            return lattice.faces[row]
    return None
