"""The one (x-1)-power expansion underneath the toric, multiplicial and
contribution routes, on h-aligned coefficient tuples."""

from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ordpoly.hvector import expand_x_minus_one

D = 6
# (c, s, t) terms of degree s + t <= D
terms_lists = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(0, D), st.integers(0, D)).filter(
        lambda term: term[1] + term[2] <= D
    ),
    max_size=6,
)


def at(vec, x):
    """Evaluate an h-aligned vector: entry i is the coefficient of x^{d-i}."""
    d = len(vec) - 1
    return sum(c * x ** (d - i) for i, c in enumerate(vec))


class TestBasics:
    def test_zero_and_one(self):
        assert expand_x_minus_one([], 3) == (0, 0, 0, 0)
        assert expand_x_minus_one([(1, 0, 0)], 3) == (0, 0, 0, 1)

    def test_monomial(self):
        m = expand_x_minus_one([(3, 2, 0)], 2)
        assert m == (3, 0, 0)
        assert at(m, 5) == 75

    def test_coefficient_out_of_range(self):
        with pytest.raises(ValueError):
            expand_x_minus_one([(1, 2, 2)], 3)
        with pytest.raises(ValueError):
            expand_x_minus_one([(1, 0, -1)], 3)

    def test_immutable(self):
        assert isinstance(expand_x_minus_one([(1, 1, 1)], 2), tuple)


class TestRingLaws:
    @given(terms_lists, terms_lists)
    def test_addition_commutes(self, a, b):
        left = expand_x_minus_one(a + b, D)
        assert left == expand_x_minus_one(b + a, D)
        parts = zip(expand_x_minus_one(a, D), expand_x_minus_one(b, D))
        assert left == tuple(x + y for x, y in parts)

    @given(st.integers(-9, 9), st.integers(0, D - 1), st.integers(0, D - 1))
    def test_multiplication_distributes(self, c, s, t):
        # c x^s (x-1)^{t+1} = c x^{s+1} (x-1)^t - c x^s (x-1)^t
        assume(s + t + 1 <= D)
        merged = expand_x_minus_one([(c, s, t + 1)], D)
        assert merged == expand_x_minus_one([(c, s + 1, t), (-c, s, t)], D)

    @given(terms_lists, st.integers(-4, 4))
    def test_evaluation_is_a_homomorphism(self, terms, x):
        direct = sum(c * x**s * (x - 1) ** t for c, s, t in terms)
        assert at(expand_x_minus_one(terms, D), x) == direct

    @given(terms_lists, st.integers(-3, 3))
    def test_scalar_multiplication(self, terms, c):
        scaled = [(c * a, s, t) for a, s, t in terms]
        expected = tuple(c * v for v in expand_x_minus_one(terms, D))
        assert expand_x_minus_one(scaled, D) == expected


class TestTaylorShift:
    @given(st.integers(0, D), st.integers(-4, 4))
    def test_shift_evaluates_shifted(self, t, x):
        # (x-1)^t is x^t shifted by -1
        assert at(expand_x_minus_one([(1, 0, t)], t), x) == (x - 1) ** t

    @given(st.integers(0, D))
    def test_shift_inverts(self, n):
        # shifting back by +1: sum of C(n, t) (x-1)^t is x^n
        terms = [(comb(n, t), 0, t) for t in range(n + 1)]
        assert expand_x_minus_one(terms, n) == (1,) + (0,) * n

    def test_binomial_expansion(self):
        assert expand_x_minus_one([(1, 0, 3)], 3) == (1, -3, 3, -1)
