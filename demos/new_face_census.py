"""Count the new faces of each size in a stable instance.

For n >= d + k - 1 the shallow triangulation of P^{d,k,n} settles into a
steady state, and the simplices carrying a new face of size i can be
counted in closed form. The demo decomposes each counted simplex into
its labelled blocks, checks the census against two other quantities,
and round-trips the bijection behind the count.
"""

from itertools import combinations
from math import comb

from ordpoly import (
    InstanceBundle,
    Params,
    bijection_records,
    cli,
    count_by_size,
    facet_to_subset,
    subset_to_facet,
)


def main() -> None:
    p = Params(7, 9, 15)
    b = InstanceBundle(p)
    h = b.h
    h_prev = InstanceBundle(Params(p.d, p.k, p.n - 1)).h
    print(f"P^{{{p.d},{p.k},{p.n}}} is stable (n >= d + k - 1 = {p.d + p.k - 1}).")
    print()

    print("Growing n by one adds simplices to the triangulation; counting the")
    print("added new faces by size recovers the h-vector increment slot by slot:")
    print(f"  {'i':>2}  {'count':>6}  {'h_i(n) - h_i(n-1)':>18}  {'C(k-d+i-1, i-1)':>16}")
    for i in range(1, p.d):
        c = count_by_size(p, i)
        slot = h[i] - h_prev[i]
        closed = comb(p.k - p.d + i - 1, i - 1)
        mark = str(closed) if i <= (p.d - 1) // 2 else "-"
        print(f"  {i:>2}  {c:>6}  {slot:>18}  {mark:>16}")
        assert c == slot
        if i <= (p.d - 1) // 2:
            assert c == closed
    print("  counts match the slot increments on every row, and the binomial")
    print("  form up to the symmetry midpoint.")
    print()

    i = 3
    print(f"The {count_by_size(p, i)} simplices with a size-{i} new face, decomposed:")
    print()
    assert cli.main(["bijection", "7", "9", "15", "--i", str(i)]) == 0
    print()
    print()

    print("Round-tripping the bijection for i = 3:")
    records = bijection_records(p, i)
    size = p.k - p.d
    subsets = sorted(facet_to_subset(r.simplex, p, i) for r in records)
    expected = sorted(combinations(range(1, size + i), size))
    assert subsets == [tuple(s) for s in expected]
    print(f"  the {len(records)} simplices map onto all {size}-subsets of "
          f"[1, {size + i - 1}], each exactly once")
    for r in records:
        back = subset_to_facet(facet_to_subset(r.simplex, p, i), p, i)
        assert back == r.simplex
    print("  subset_to_facet inverts facet_to_subset on every record")


if __name__ == "__main__":
    main()
