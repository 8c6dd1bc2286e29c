"""Unit tests for integer polynomials and reduced rational functions."""

import random
import re
from fractions import Fraction

import pytest

from polycf.errors import PoleAtArgument, ZeroFunction
from polycf.poly import (
    MINUS_INFINITY,
    IntPolynomial,
    RationalFunction,
    degree,
    eventually_nonnegative,
    eventually_positive,
    has_integer_root_at_or_after,
    leading_coefficient,
    poly_from_string,
    ratfn_from_string,
)


def test_polynomial_basic_arithmetic():
    x = IntPolynomial.variable()
    p = 3 * x**2 - x + 1
    assert p(0) == 1
    assert p(2) == 11
    assert (p + p)(5) == 2 * p(5)
    assert (p * p)(7) == p(7) ** 2
    assert (-p)(4) == -p(4)
    assert (p - p).is_zero


def test_polynomial_shift():
    x = IntPolynomial.variable()
    p = x**3 - 2 * x
    q = p.shift(5)
    for n in range(-3, 4):
        assert q(n) == p(n + 5)


def test_polynomial_pow_and_degree():
    x = IntPolynomial.variable()
    assert (x + 1) ** 0 == IntPolynomial((1,))
    assert ((x + 1) ** 4).degree == 4
    assert IntPolynomial().degree is MINUS_INFINITY
    assert IntPolynomial((7,)).degree == 0


def test_polynomial_trailing_zero_normalization():
    assert IntPolynomial((1, 2, 0, 0)) == IntPolynomial((1, 2))


def test_root_bound_contains_integer_roots():
    rng = random.Random(20240817)
    x = IntPolynomial.variable()
    for _ in range(50):
        roots = [rng.randint(-30, 30) for _ in range(rng.randint(1, 6))]
        lead = rng.choice([1, 2, 5, -3])
        p = IntPolynomial((lead,))
        for r in roots:
            p = p * (x - r)
        bound = p.root_bound()
        assert all(abs(r) < bound for r in roots)


def test_root_bound_small_for_factored_high_degree():
    # expanded middle coefficients are astronomically larger than the
    # leading one; the bound must stay near the actual roots
    x = IntPolynomial.variable()
    p = x * (x - 1) ** 21 * ((x - 1) - (x - 2) ** 10) * ((x + 1) - x**10)
    assert p.root_bound() < 1000


def test_rational_function_reduction():
    x = IntPolynomial.variable()
    r = RationalFunction((x**2 - 1) * 6, (x - 1) * 4)
    assert r.num == 3 * (x + 1)
    assert r.den == IntPolynomial((2,))
    assert r(3) == Fraction(12, 2)


def test_rational_function_denominator_sign():
    x = IntPolynomial.variable()
    r = RationalFunction(x, -x + 2)
    assert r.den.leading_coefficient > 0
    assert r(1) == 1


def test_rational_function_from_fraction_scalar():
    r = RationalFunction(Fraction(3, 4))
    assert r.is_constant
    assert r.constant_value() == Fraction(3, 4)
    s = RationalFunction.variable() + Fraction(1, 2)
    assert s(1) == Fraction(3, 2)


def test_rational_function_arithmetic_matches_pointwise():
    rng = random.Random(99)
    x = RationalFunction.variable()
    r = (x**2 + 1) / (x + 3)
    s = (2 * x - 1) / (x**2 + 2)
    for _ in range(20):
        n = rng.randint(-20, 20)
        if n == -3:
            continue
        assert (r + s)(n) == r(n) + s(n)
        assert (r - s)(n) == r(n) - s(n)
        assert (r * s)(n) == r(n) * s(n)


def test_rational_function_zero_denominator_rejected():
    with pytest.raises(ZeroFunction):
        RationalFunction(1, IntPolynomial())


def test_pole_raises():
    x = IntPolynomial.variable()
    r = RationalFunction(1, x - 4)
    with pytest.raises(PoleAtArgument):
        r(4)
    assert r(5) == 1


def test_degree_and_leading_coefficient():
    x = IntPolynomial.variable()
    r = RationalFunction(6 * x**3, 2 * x)
    assert degree(r) == 2
    assert leading_coefficient(r) == 3
    assert degree(RationalFunction(0)) is MINUS_INFINITY


def test_eventually_positive():
    x = IntPolynomial.variable()
    assert eventually_positive(RationalFunction(x - 10), 11)
    assert not eventually_positive(RationalFunction(x - 10), 5)
    assert eventually_positive(RationalFunction(x**2 + 1, x + 1), 0)
    assert not eventually_positive(RationalFunction(-x), 1)


def test_eventually_nonnegative():
    x = IntPolynomial.variable()
    assert eventually_nonnegative(RationalFunction(x - 10), 10)
    assert not eventually_nonnegative(RationalFunction(x - 10), 9)
    assert eventually_nonnegative(RationalFunction(0), 1)


def test_has_integer_root_at_or_after():
    x = IntPolynomial.variable()
    p = RationalFunction((x - 7) * (x + 2))
    assert has_integer_root_at_or_after(p, 0)
    assert has_integer_root_at_or_after(p, 7)
    assert not has_integer_root_at_or_after(p, 8)
    assert not has_integer_root_at_or_after(RationalFunction(x**2 + 1), -100)


def test_poly_from_string():
    x = IntPolynomial.variable()
    assert poly_from_string("3n^2 - n + 1") == 3 * x**2 - x + 1
    assert poly_from_string("n") == x
    assert poly_from_string("-2n") == -2 * x
    assert poly_from_string("5") == IntPolynomial((5,))
    assert poly_from_string("2n+3n") == 5 * x
    with pytest.raises(ValueError):
        poly_from_string("n^")


def test_ratfn_from_string():
    x = IntPolynomial.variable()
    r = ratfn_from_string("(n+1)/(n+2)")
    assert r.num == x + 1
    assert r.den == x + 2
    assert ratfn_from_string("n^2").den == IntPolynomial((1,))
    assert ratfn_from_string("3/4")(10) == Fraction(3, 4)


def test_json_round_trip():
    x = IntPolynomial.variable()
    r = RationalFunction(x**2 - 3, 2 * x + 5)
    back = RationalFunction.from_json(r.to_json())
    assert back == r


@pytest.mark.parametrize(
    "data, where",
    [
        ({"num": ["1"], "den": []}, "$.den"),
        ({"num": ["1"], "den": ["0"]}, "$.den"),
        ({"num": [1.5], "den": ["1"]}, "$.num[0]"),
        ({"num": ["1"], "den": [True]}, "$.den[0]"),
        ({"num": ["1"]}, "$.den"),
        (["1"], "$"),
    ],
)
def test_json_rejects_malformed(data, where):
    with pytest.raises(ValueError, match="^" + re.escape(where) + ":"):
        RationalFunction.from_json(data)


def test_values_from_matches_direct_evaluation():
    rng = random.Random(5)
    polys = [IntPolynomial(), IntPolynomial((7,)), poly_from_string("3n^2 - n + 1")]
    polys += [IntPolynomial(rng.randint(-50, 50) for _ in range(d + 1)) for d in range(1, 9)]
    for p in polys:
        for x0 in (-7, 0, 3):
            values = p.values_from(x0)
            assert [next(values) for _ in range(40)] == [p(x0 + k) for k in range(40)]
