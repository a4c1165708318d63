"""Walk through the colex shelling of one ordinary polytope.

Builds P^{5,6,8}, prints its facets in shelling order, then takes two
facets apart to show where each minimal new face comes from, and closes
by certifying the order three independent ways.
"""

from ordpoly import InstanceBundle, Params, cli
from ordpoly.shelling import (
    decompose_facet,
    minimal_new_face_nonrecursive,
    minimal_new_face_recursive,
    verify_shelling_partition,
    verify_shelling_topological,
)


def span(run) -> str:
    return f"{run.lo}..{run.hi}"


def describe(face, p: Params) -> None:
    dec = decompose_facet(face, p)
    print(f"  facet {face}")
    print(f"    anchored (glued to earlier facets): {dec.anchored or '()'}")
    print(f"    even interior runs: {', '.join(span(r) for r in dec.evens) or '-'}")
    print(f"    tail run: {span(dec.tail) if dec.tail is not None else '-'}")
    g = minimal_new_face_nonrecursive(face, p)
    print(f"    new face = second vertex of each even run + whole tail = {g}")
    assert g == minimal_new_face_recursive(face, p)


def main() -> None:
    p = Params(5, 6, 8)
    b = InstanceBundle(p)

    print(f"P^{{{p.d},{p.k},{p.n}}} has {len(b.facets)} facets.")
    print("Colex order with each step's minimal new face G:")
    print()
    assert cli.main(["shell", "5", "6", "8"]) == 0
    print()
    print()

    print("Reading two steps off the table:")
    describe(b.facets[5], p)   # middle facet, even runs only
    describe(b.facets[12], p)  # facet touching n, tail run
    print()

    print("Certifying the order:")
    ok, witness = verify_shelling_partition(b.lattice, b.step_intervals)
    print(f"  intervals [G_j, F_j] partition the proper faces: {ok}")
    assert ok, witness

    print("  recursive and nonrecursive new-face rules agree on every step:", end=" ")
    for step in b.steps:
        assert step.new_face == minimal_new_face_recursive(step.facet, p)
    print("True")

    ok, witness = verify_shelling_topological(b.facets, p.d)
    print(f"  order passes the from-scratch shelling definition: {ok}")
    assert ok, witness


if __name__ == "__main__":
    main()
