"""Compute one toric h-vector four independent ways.

Past the facet list the routes share one piece of plumbing: the toric
and multiplicial routes both expand sums of c x^s (x-1)^t with
``hvector.expand_x_minus_one``.  Otherwise they share no code, so
agreement is a strong consistency check on the whole library:

  toric          g-recursion over the full face lattice
  closed         binomial formula in (d, k, n)
  multiplicial   transform of the f-vector and flag counts
  triangulation  simplicial h of the shallow triangulation, corrected
                 step by step with contribution vectors

The last route is shown in detail: the shelling h-vector h' differs
from h, and the per-step contributions account for exactly the gap.
"""

from ordpoly import (
    InstanceBundle,
    Params,
    h_closed_form,
    multiplicial_h,
    simplicial_h,
)
from ordpoly.hvector import contribution_total


def fmt(vec) -> str:
    """An h-aligned vector (entry i at x^{d-i}) as a polynomial in x."""
    terms = []
    for e, c in enumerate(reversed(vec)):
        if not c:
            continue
        power = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        lead = str(c) if not power or abs(c) != 1 else ("-" if c == -1 else "")
        terms.append(lead + power)
    return " + ".join(terms) if terms else "0"


def show(p: Params) -> None:
    b = InstanceBundle(p)
    routes = {
        "toric": b.h,
        "closed": h_closed_form(p),
        "multiplicial": multiplicial_h(b.lattice.f_vector(), b.lattice.flag_f0()),
        "triangulation": simplicial_h(b.tri_steps, p.d),
    }
    print(f"P^{{{p.d},{p.k},{p.n}}}:")
    for name, h in routes.items():
        print(f"  {name:<14}{' '.join(str(x) for x in h)}")
    assert len(set(routes.values())) == 1
    print("  all four routes agree")
    print()


def main() -> None:
    show(Params(5, 6, 8))
    show(Params(7, 9, 15))

    # The triangulation route under the hood, on the smaller instance.
    p = Params(5, 6, 8)
    b = InstanceBundle(p)
    h = b.h
    print(f"Behind the triangulation route for P^{{{p.d},{p.k},{p.n}}}:")
    print(f"  shelling h-vector h' = {b.h_prime}")
    print(f"  toric h-vector    h  = {h}")

    diff = tuple(x - y for x, y in zip(h, b.h_prime))
    print(f"  gap h - h' as a polynomial in x: {fmt(diff)}")

    print("  nonzero per-step contributions:")
    for j, a in sorted(b.contributions.items()):
        if any(a):
            print(f"    step {j:>2}  facet {b.steps[j - 1].facet}  a_j = {fmt(a)}")
    total = contribution_total(b.contributions)
    print(f"  their sum: {fmt(total)}")
    assert total == diff
    print("  sum of contributions == h - h', as it must be")


if __name__ == "__main__":
    main()
