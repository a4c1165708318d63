"""Independent reference computations used by several test modules.

These are deliberately written against the definitions only, with none of
the library's run/shift machinery in the loop, so they can arbitrate.
"""

from itertools import combinations

from ordpoly.combinat import colex_key


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
        rows = lattice.downset(lattice.index(f))
        fresh = []
        for r in rows:
            face = lattice.faces[r]
            if lattice.dim(face) > lattice.d - 1:
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
