"""Tour the multiplex, the k = d end of the ordinary family.

The multiplex M^{d,n} generalizes the simplex to any number of vertices
while keeping exactly n+1 facets, every one of them a lower multiplex.
Unlike the rest of the family it exists in every dimension d >= 2. The
demo builds M^{5,8}, triangulates it solid and on the boundary, and
shows its toric data.
"""

from ordpoly import (
    InstanceBundle,
    Params,
    enumerate_facets,
    multiplex_boundary_triangulation,
    multiplex_facets,
    multiplex_g,
    multiplex_triangulation,
)


def grid(face, n: int) -> str:
    return "".join(str(v) if v in set(face) else " " for v in range(n + 1))


def main() -> None:
    d, n = 5, 8
    facets = multiplex_facets(d, n)
    print(f"M^{{{d},{n}}}: vertices 0..{n}, {len(facets)} facets (always n+1).")
    print("Facet i is the width-(2d-1) window centered at i with i itself")
    print("removed, clamped to the vertex range; the end facets 0 and n")
    print("degenerate to plain d-windows:")
    for i, f in enumerate(facets):
        print(f"  {i}  {grid(f, n)}")
    print()

    same = enumerate_facets(Params(d, d, n))
    assert set(same) == set(facets)
    print("The general ordinary-polytope enumeration at k = d returns the")
    print("same facet list, so the window rule is a true specialization.")
    print()

    solid = multiplex_triangulation(d, n)
    print(f"Solid triangulation into {len(solid)} simplices (one per window):")
    for t in solid:
        print(f"  {grid(t, n)}")
    print()

    boundary = multiplex_boundary_triangulation(d, n)
    print(f"Boundary triangulation: {len(boundary)} simplices. Each is a")
    print("wall of one solid simplex lying inside one facet; walls shared")
    print("by two solid simplices are interior and never appear.")
    print("  simplex     from tetra  in facet")
    for s in boundary[:4]:
        print(f"  {grid(s.simplex, n)}  {s.tetra:>9}  {s.facet:>8}")
    print(f"  ... {len(boundary) - 8} more ...")
    for s in boundary[-4:]:
        print(f"  {grid(s.simplex, n)}  {s.tetra:>9}  {s.facet:>8}")
    print()

    h = InstanceBundle(Params(d, d, n)).h
    print(f"Toric h-vector: {' '.join(str(x) for x in h)}")
    assert h[0] == h[-1] == 1
    assert set(h[1:-1]) == {n - d + 1}
    print("Flat middle: every interior entry equals n - d + 1.")
    g = multiplex_g(d, n + 1)
    print(f"Equivalently the g-polynomial stops at degree 1: "
          f"g = 1 + {g[1]}x.")
    print()

    print("The window rule needs no parity conditions, so even dimensions")
    print("work too, where no other ordinary polytope exists:")
    print(f"  M^{{4,7}} facets: {multiplex_facets(4, 7)[:3]} ...")
    try:
        Params(4, 5, 6)
    except ValueError as exc:
        print(f"  Params(4, 5, 6) raises: {exc}")


if __name__ == "__main__":
    main()
