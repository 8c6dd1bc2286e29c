"""Unit tests for integer polynomials and reduced rational functions."""

import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polycf.errors import PoleAtArgument, ZeroFunction
from polycf.poly import (
    _MAX_DECIMAL_EXPONENT,
    _MAX_JSON_DIGITS,
    _MAX_POLY_DIGITS,
    _MAX_POLY_EXPONENT,
    MINUS_INFINITY,
    IntPolynomial,
    RationalFunction,
    _ceil_nth_root,
    _floor_nth_root,
    _poly_gcd,
    _scan_bound,
    degree,
    eventually_nonnegative,
    eventually_positive,
    has_integer_root_at_or_after,
    json_value,
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


def _check_roots(d, m):
    r = _floor_nth_root(m, d)
    assert r >= 0 and r**d <= m < (r + 1) ** d, (d, m)
    t = _ceil_nth_root(m, d)
    assert t >= 0 and t**d >= m and (t == 0 or (t - 1) ** d < m), (d, m)


@st.composite
def _root_cases(draw):
    # m up to 21,000 bits, or an exact d-th power r^d or one of its neighbours
    d = draw(st.integers(1, 9))
    if draw(st.booleans()):
        return d, draw(st.integers(0, 2 ** draw(st.integers(0, 21000))))
    r = draw(st.integers(0, 2 ** draw(st.integers(0, 21000 // d))))
    return d, max(r**d + draw(st.sampled_from([-1, 0, 1])), 0)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=_root_cases())
@example(case=(3, 2**3999))
@example(case=(9, 3**2520 - 1))
@example(case=(5, (2**800 + 1) ** 5 + 1))
@example(case=(5, (12 << 5 * (4096 + 32)) // 7))  # the oracle Root(12,7,1,5) at 4096 bits
def test_nth_roots_bracket_m(case):
    # r^d <= m < (r+1)^d for the floor root r, and the ceiling root above it
    _check_roots(*case)


def test_nth_roots_at_exact_powers():
    for d in range(1, 10):
        for r in [0, 1, 2, 3, 7, 2**64 - 1, 3**100, 10 ** (1000 // d)]:
            assert _floor_nth_root(r**d, d) == r == _ceil_nth_root(r**d, d)
            for m in (r**d - 1, r**d + 1):
                _check_roots(d, max(m, 0))


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
    assert r == Fraction(3, 4)
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


def test_integral_fractions_are_integer_coefficients():
    x = IntPolynomial.variable()
    assert IntPolynomial([Fraction(4, 2), Fraction(-3)]).coeffs == (2, -3)
    assert x == x + Fraction(0) and IntPolynomial((5,)) == Fraction(10, 2)
    assert (x + Fraction(3)).coeffs == (3, 1)


def test_operands_of_other_types_are_not_implemented():
    p = IntPolynomial((1, 1))
    with pytest.raises(TypeError):
        1.5 - p
    with pytest.raises(TypeError):
        p - 1.5
    assert p != 1.5 and p != "n+1"


@pytest.mark.parametrize("exponent", [-1, 1.0, Fraction(2)])
def test_exponents_must_be_non_negative_ints(exponent):
    with pytest.raises(ValueError, match="exponent must be a non-negative integer"):
        IntPolynomial((1, 1)) ** exponent
    with pytest.raises(ValueError, match="exponent must be a non-negative integer"):
        RationalFunction(IntPolynomial((1, 1)), 2) ** exponent


def test_zero_has_no_leading_coefficient():
    with pytest.raises(ZeroFunction):
        IntPolynomial().leading_coefficient
    with pytest.raises(ZeroFunction):
        leading_coefficient(RationalFunction(0))


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


@st.composite
def _scanned_functions(draw):
    """Products of integer-root factors, perhaps plus a small polynomial; as
    an IntPolynomial, a quotient of two such, or the zero function."""

    def poly():
        p = IntPolynomial((draw(st.sampled_from([-3, -1, 1, 2])),))
        for k in draw(st.lists(st.integers(-8, 10), max_size=3)):
            p = p * IntPolynomial((-k, 1))
        return p + IntPolynomial(draw(st.lists(st.integers(-6, 6), max_size=4)))

    kind = draw(st.sampled_from(["poly", "ratfn", "ratfn", "zero"]))
    if kind == "zero":
        return draw(st.sampled_from([RationalFunction(0), IntPolynomial()]))
    num = poly()
    if kind == "poly":
        return num
    den = poly()
    return RationalFunction(num, den if not den.is_zero else 1)


def _outcome(predicate, r, from_n):
    try:
        return predicate(r, from_n)
    except PoleAtArgument as exc:
        return PoleAtArgument, exc.argument


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(r=_scanned_functions(), from_n=st.integers(-5, 8))
@example(r=IntPolynomial((-3, 1)), from_n=3)  # a root at from_n, no sign change after
@example(r=RationalFunction(1, IntPolynomial((-4, 1))), from_n=2)  # a pole after from_n
def test_sign_predicates_match_a_fraction_scan(r, from_n):
    # reference: r(n) as Fractions over [from_n, _scan_bound]; past the bound
    # r has the sign of its leading coefficient, and no pole lies there
    f = r if isinstance(r, RationalFunction) else RationalFunction(r)
    values, poles = [], []
    for n in range(from_n, _scan_bound(f, from_n) + 1):
        if f.den(n) == 0:
            poles.append(n)
        else:
            values.append(Fraction(f.num(n), f.den(n)))
    lead = 0 if f.is_zero else f.num.leading_coefficient
    pole = (PoleAtArgument, poles[0]) if poles else None
    assert _outcome(eventually_positive, r, from_n) == (
        pole or (all(v > 0 for v in values) and lead > 0))
    assert _outcome(eventually_nonnegative, r, from_n) == (
        f.is_zero or pole or (all(v >= 0 for v in values) and lead > 0))
    assert _outcome(has_integer_root_at_or_after, r, from_n) == (f.is_zero or 0 in values)


def test_poly_from_string():
    x = IntPolynomial.variable()
    assert poly_from_string("3n^2 - n + 1") == 3 * x**2 - x + 1
    assert poly_from_string("n") == x
    assert poly_from_string("-2n") == -2 * x
    assert poly_from_string("5") == IntPolynomial((5,))
    assert poly_from_string("2n+3n") == 5 * x
    with pytest.raises(ValueError):
        poly_from_string("n^")


def test_poly_from_string_bounds_exponents():
    x = IntPolynomial.variable()
    assert poly_from_string(f"n^{_MAX_POLY_EXPONENT}+2") == x**_MAX_POLY_EXPONENT + 2
    assert poly_from_string("n^007") == x**7
    # refused before a coefficient list of that length exists
    for text in (f"n^{_MAX_POLY_EXPONENT + 1}", "3n^100000+1", "n^" + "9" * 30):
        with pytest.raises(ValueError, match=f"above {_MAX_POLY_EXPONENT}"):
            poly_from_string(text)
    with pytest.raises(ValueError, match=f"above {_MAX_POLY_EXPONENT}"):
        ratfn_from_string(f"1/(n^{_MAX_POLY_EXPONENT + 1})")


def test_coefficient_digits_are_bounded_before_the_gcd():
    top = 10**_MAX_POLY_DIGITS - 1
    assert poly_from_string(f"{top}n-{top}") == IntPolynomial((-top, top))
    assert ratfn_from_string(f"(n+1)/{top}").den == IntPolynomial((top,))
    # the bound is on each summed coefficient, not on each written term
    for text in (f"{top + 1}n", f"n-{top + 1}", f"{top}n+{top}n", "2n+" + "9" * 100):
        with pytest.raises(ValueError, match=f"coefficient above {_MAX_POLY_DIGITS} digits"):
            poly_from_string(text)
    top = 10**_MAX_JSON_DIGITS - 1
    r = RationalFunction.from_json({"num": [str(-top), "1"], "den": ["2", str(top)]})
    assert r.num.coeffs == (-top, 1)
    for num in ([str(top + 1), "1"], [1, -top - 1]):
        with pytest.raises(ValueError, match=rf"^\$: a coefficient above {_MAX_JSON_DIGITS} digits"):
            RationalFunction.from_json({"num": num, "den": ["2", "3"]})
    with pytest.raises(ValueError, match="above"):
        RationalFunction.from_json({"num": ["1"], "den": ["2", str(top + 1)]})


def test_json_value_bounds_decimal_exponents():
    top = _MAX_DECIMAL_EXPONENT
    assert json_value(f"1e-{top}", "$.x", "rational") == Fraction(1, 10**top)
    assert json_value(f" -2.5E+0{top} ", "$.x", "rational") == Fraction(-25 * 10**top, 10)
    assert json_value("3/4", "$.x", "rational") == Fraction(3, 4)
    for text in (f"1e-{top + 1}", "1e-1000000", "-2.5E+99999999", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match=r"^\$\.x: decimal exponent above"):
            json_value(text, "$.x", "rational")


def test_ratfn_from_string():
    x = IntPolynomial.variable()
    r = ratfn_from_string("(n+1)/(n+2)")
    assert r.num == x + 1
    assert r.den == x + 2
    assert ratfn_from_string("n^2").den == IntPolynomial((1,))
    assert ratfn_from_string("3/4")(10) == Fraction(3, 4)


@pytest.mark.parametrize("text, error", [
    ("", "empty polynomial string"),
    ("()", "empty polynomial string"),
    ("n/", "empty polynomial string"),
    ("n+", "cannot parse polynomial 'n+'"),
    ("--n", "cannot parse polynomial '--n'"),
    ("n+-1", "cannot parse polynomial 'n+-1'"),
    ("((n))", "cannot parse rational function"),
    ("(n", "cannot parse rational function"),
    ("n/n/n", "cannot parse rational function"),
    ("(n/n)", "cannot parse rational function"),
    ("n/(0)", "zero denominator"),
])
def test_ratfn_from_string_rejects_malformed(text, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        ratfn_from_string(text)


def _depth_counter_ratfn_from_string(text):
    """ratfn_from_string as it was before its grammar was declared, verbatim:
    the reference that the declared grammar must match."""
    s = text.replace(" ", "")
    depth = 0
    split_at = None
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            if split_at is not None:
                raise ValueError(f"cannot parse rational function {text!r}")
            split_at = i
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")

    def strip_parens(part):
        while part.startswith("(") and part.endswith(")"):
            inner = part[1:-1]
            if "(" in inner or ")" in inner:
                raise ValueError(f"cannot parse rational function {text!r}")
            part = inner
        return part

    if split_at is None:
        return RationalFunction(poly_from_string(strip_parens(s)))
    top = poly_from_string(strip_parens(s[:split_at]))
    bottom = poly_from_string(strip_parens(s[split_at + 1 :]))
    if bottom.is_zero:
        raise ValueError(f"zero denominator in {text!r}")
    return RationalFunction(top, bottom)


def _parsed(parse, text):
    """parse(text), or ValueError where it raises one."""
    try:
        return parse(text)
    except ValueError:
        return ValueError


# tokens of rational-function strings: parentheses, slashes, signs, spaces,
# tabs, both power signs, non-ASCII digits, exponents at and above the bound
# and coefficients one digit above it
_TOKENS = ["(", ")", "/", "+", "-", "*", "**", "^", " ", "\t", "n", "0", "1", "2", "9",
           str(_MAX_POLY_EXPONENT), str(_MAX_POLY_EXPONENT + 1), "1" * (_MAX_POLY_DIGITS + 1),
           "\u0663", "\uff11"]
_polynomial_text = st.lists(st.sampled_from(_TOKENS[3:]), max_size=6).map("".join)
_side_text = st.builds(lambda left, text, right: "(" * left + text + ")" * right,
                       st.integers(0, 2), _polynomial_text, st.integers(0, 2))
_ratfn_text = st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
                        st.lists(_side_text, min_size=1, max_size=3).map("/".join))


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@example(text="((n))")
@example(text="((n))/(n+1)")
@example(text="(n+1)/((n))")
@example(text=")n(")
@example(text="(n)/(n")
@example(text=" ( 2n ** 2 ) / ( n + 1 ) ")
@given(text=_ratfn_text)
def test_ratfn_from_string_matches_the_depth_counter(text):
    assert _parsed(ratfn_from_string, text) == _parsed(_depth_counter_ratfn_from_string, text)


_bounded_poly = st.lists(
    st.integers(-3, 3) | st.integers(1 - 10**_MAX_POLY_DIGITS, 10**_MAX_POLY_DIGITS - 1),
    max_size=_MAX_POLY_EXPONENT + 1,
).map(IntPolynomial)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=_bounded_poly, q=_bounded_poly.filter(lambda q: not q.is_zero))
def test_str_round_trips_through_the_parsers(p, q):
    assert poly_from_string(str(p)) == p
    r = RationalFunction(p, q)
    assume(all(abs(c) < 10**_MAX_POLY_DIGITS for c in r.num.coeffs + r.den.coeffs))
    assert ratfn_from_string(str(r)) == r


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


def test_bool_coefficients_become_ints():
    p = IntPolynomial([True, 2, False])
    assert p.coeffs == (1, 2) and all(type(c) is int for c in p.coeffs)
    assert p.to_json() == ["1", "2"]
    assert IntPolynomial.from_json(p.to_json()) == p
    r = RationalFunction(True, IntPolynomial([False, True]))
    assert RationalFunction.from_json(r.to_json()) == r
    assert type(p.shift(True).coeffs[0]) is int


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: IntPolynomial([1.0]), TypeError),
        (lambda: IntPolynomial([Fraction(1, 2)]), TypeError),
        (lambda: IntPolynomial(["1"]), TypeError),
        (lambda: RationalFunction(1.5), TypeError),
        (lambda: RationalFunction("n"), TypeError),
        (lambda: RationalFunction(1, 0), ZeroFunction),
        (lambda: RationalFunction(IntPolynomial([1, 1]), Fraction(0)), ZeroFunction),
    ],
)
def test_public_constructors_reject_malformed(build, error):
    with pytest.raises(error):
        build()


# Property tests: the arithmetic against Fraction arithmetic at integer
# points, and the normal form of every result.

_small = st.integers(-6, 6)
_dense = st.lists(_small, max_size=4).map(IntPolynomial)
# products of linear factors, so that operands often share a factor
_factored = st.builds(
    lambda c, factors: math.prod((IntPolynomial((b, a)) for a, b in factors), start=c),
    st.sampled_from([1, -1, 2, -3, 6]).map(lambda c: IntPolynomial((c,))),
    st.lists(st.tuples(st.integers(-2, 2).filter(bool), st.integers(-3, 3)), max_size=3),
)
_polys = st.one_of(_dense, _factored)
_ratfns = st.builds(RationalFunction, _polys, _polys.filter(lambda q: not q.is_zero))
_operands = st.one_of(
    _small, st.fractions(-5, 5, max_denominator=7), _polys, _ratfns
)
_points = st.lists(st.integers(-12, 12), min_size=1, max_size=4)


def _assert_polynomial_normal(p):
    assert all(type(c) is int for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0


def _assert_normal(r):
    _assert_polynomial_normal(r.num)
    _assert_polynomial_normal(r.den)
    assert _poly_gcd(r.num, r.den) == IntPolynomial((1,))
    assert math.gcd(r.num.content, r.den.content) == 1
    assert r.den.coeffs[-1] > 0


def _value(v, x):
    """v at x as a Fraction, or None at a pole."""
    try:
        return Fraction(v(x) if callable(v) else v)
    except PoleAtArgument:
        return None


def _check_at(got, want, r, other, points):
    for x in points:
        u, v = _value(r, x), _value(other, x)
        if u is None or v is None:
            continue
        try:
            expected = want(u, v)
        except ZeroDivisionError:
            continue
        assert got(x) == expected, (got, x)


_R = RationalFunction(IntPolynomial((1, 1)), IntPolynomial((-2, 1)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(r=_R, other=0, e=2, h=-2, points=[0, 2, 5])
@example(r=_R, other=1, e=0, h=1, points=[0, 2, 5])
@example(r=_R, other=-1, e=3, h=0, points=[0, 2, 5])
@example(r=RationalFunction(0), other=-1, e=0, h=3, points=[1])
@example(r=RationalFunction(1), other=IntPolynomial((1,)), e=1, h=-1, points=[1])
@given(r=_ratfns, other=_operands, e=st.integers(0, 3), h=st.integers(-3, 3), points=_points)
def test_rational_arithmetic_matches_fractions(r, other, e, h, points):
    cases = [
        (r + other, operator.add),
        (other + r, lambda u, v: v + u),
        (r - other, operator.sub),
        (other - r, lambda u, v: v - u),
        (r * other, operator.mul),
        (other * r, lambda u, v: v * u),
        (-r, lambda u, v: -u),
        (r**e, lambda u, v: u**e),
    ]
    for divide, by_zero in ((operator.truediv, other == 0), (lambda u, v: v / u, r.is_zero)):
        if by_zero:
            with pytest.raises(ZeroFunction):
                divide(r, other)
        else:
            cases.append((divide(r, other), divide))
    for got, want in cases:
        assert isinstance(got, RationalFunction)
        _assert_normal(got)
        _check_at(got, want, r, other, points)
    shifted = r.shift(h)
    _assert_normal(shifted)
    _check_at(shifted, lambda u, v: v, 0, r.shift(h), points)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(p=IntPolynomial((3, -1, 2)), q=0, h=2, points=[0, 4])
@example(p=IntPolynomial((3, -1, 2)), q=1, h=0, points=[0, 4])
@example(p=IntPolynomial((3, -1, 2)), q=-1, h=-3, points=[0, 4])
@example(p=IntPolynomial(), q=IntPolynomial((1,)), h=1, points=[2])
@given(p=_polys, q=st.one_of(_small, _polys), h=st.integers(-3, 3), points=_points)
def test_polynomial_arithmetic_matches_integers(p, q, h, points):
    cases = [
        (p * q, operator.mul),
        (q * p, lambda u, v: v * u),
        (p + q, operator.add),
        (p - q, operator.sub),
        (q - p, lambda u, v: v - u),
        (-p, lambda u, v: -u),
        (p**2, lambda u, v: u * u),
    ]
    for got, want in cases:
        assert isinstance(got, IntPolynomial)
        _assert_polynomial_normal(got)
        _check_at(got, want, p, q, points)
    shifted = p.shift(h)
    _assert_polynomial_normal(shifted)
    _check_at(shifted, lambda u, v: v, 0, lambda x: p(x + h), points)
