"""Unit tests for the continued fraction model and evaluator."""

import collections
import contextlib
import copy
import hashlib
import itertools
import json
import math
import numbers
import operator
import pickle
import re
import sys
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polycf.cf as cf_module
from polycf.cf import (
    _FLOAT_GUARD_BITS,
    UNDEFINED,
    CFSpec,
    CFTail,
    _least_square_root_multiple,
    _lowest,
    _recurrence,
    _scaled_terms,
    approximants,
    cf_from_json,
    convergents,
    evaluate,
    similarity_scale,
    tail_cf,
    term_at,
    to_integer_cf,
)
from polycf.errors import (
    EmptyRange,
    NoSuchTerm,
    PolycfError,
    PoleAtArgument,
    ZeroPartialNumerator,
    ZeroScaleFactor,
)
from polycf.analysis import growth_diagnostics, tietze_check, verify_limit
from polycf.families import PRESET_PARAMS, LimitClaim, build_preset, family_binomial, ramanujan_entry13
from polycf.poly import _MAX_DECIMAL_EXPONENT, IntPolynomial, RationalFunction, ratfn_from_string
from polycf.transforms import (
    bauer_muir,
    bernoulli_from_sequence,
    euler_from_series,
    euler_tail,
    even_part,
    extension_bmoe,
    generalized_euler,
    odd_part,
)

F = Fraction

E_CF = CFSpec(b0=F(2), tail=("n+1", "n+1"))


def _evaluate(cf, tol, max_terms, bits=128, backend="exact"):
    """evaluate on the exact kernel ("exact") or the budgeted one ("float")
    whatever max_terms is, with the switch at _EXACT_TERM_LIMIT moved."""
    limit = {"exact": math.inf, "float": 0}[backend]
    with mock.patch.object(cf_module, "_EXACT_TERM_LIMIT", limit):
        return evaluate(cf, tol, max_terms, bits)


def test_term_at_prefix_and_tail():
    cf = CFSpec(b0=F(1), prefix=((F(5), F(7)),), tail=CFTail("n", "2n+1", 3))
    assert term_at(cf, 1) == (F(5), F(7))
    # term 2 is the first tail term, evaluated at the start index
    assert term_at(cf, 2) == (F(3), F(7))
    assert term_at(cf, 5) == (F(6), F(13))


def test_term_at_out_of_range():
    cf = CFSpec(b0=F(1), prefix=((F(1), F(1)),))
    with pytest.raises(NoSuchTerm):
        term_at(cf, 0)
    with pytest.raises(NoSuchTerm):
        term_at(cf, 2)
    with pytest.raises(NoSuchTerm) as exc:
        convergents(cf, 3)
    assert exc.value.args == ("no such term: past prefix and no tail (index 2)",)


def test_term_at_reads_an_integer_index():
    cf = build_preset("e").cf
    with pytest.raises(TypeError, match=r"^n must be an integer, got 2\.5$"):
        term_at(cf, 2.5)
    with pytest.raises(NoSuchTerm) as exc:
        term_at(cf, -1)
    assert exc.value.index == -1


def test_term_at_zero_numerator():
    cf = CFSpec(b0=F(0), tail=("n-3", "1"))
    assert term_at(cf, 1) == (F(-2), F(1))
    with pytest.raises(ZeroPartialNumerator):
        term_at(cf, 3)


def test_convergents_e_cf():
    convs = convergents(E_CF, 5)
    assert [(c.A, c.B) for c in convs] == [
        (2, 1),
        (6, 2),
        (24, 9),
        (120, 44),
        (720, 265),
        (5040, 1854),
    ]


_rational = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_poly = st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any).map(IntPolynomial)
_ratfn = st.builds(RationalFunction, _poly, _poly)
_rational_cf = st.builds(
    CFSpec,
    _rational,
    st.lists(st.tuples(_rational.filter(bool), _rational), max_size=4).map(tuple),
    st.builds(CFTail, _ratfn, _ratfn, st.integers(-2, 3)) | st.none(),
)


def _reference_pairs(cf, N):
    """(A_n, B_n) for n = 0..N by the Fraction recurrence over term_at."""
    pairs = [(cf.b0, F(1))]
    A_prev, B_prev, A, B = F(1), F(0), cf.b0, F(1)
    for n in range(1, N + 1):
        a, b = term_at(cf, n)
        A, A_prev = b * A + a * A_prev, A
        B, B_prev = b * B + a * B_prev, B
        pairs.append((A, B))
    return pairs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cf=_rational_cf, N=st.integers(0, 12))
def test_determinant_identity(cf, N):
    try:
        want = _reference_pairs(cf, N)
    except PolycfError as exc:
        with pytest.raises(type(exc)) as got:
            convergents(cf, N)
        assert got.value.args == exc.args
        return
    convs = convergents(cf, N)
    assert [(c.index, c.A, c.B) for c in convs] == [(n, A, B) for n, (A, B) in enumerate(want)]
    prod = F(1)
    for n in range(1, N + 1):
        prod *= term_at(cf, n)[0]
        lhs = convs[n].A * convs[n - 1].B - convs[n - 1].A * convs[n].B
        assert lhs == (-1) ** (n - 1) * prod


# a fractional b0, rational prefix terms and a tail written with the negative
# constant denominator -3 (held as (-n-1)/3)
_SCALED_CF = CFSpec(F(-7, 3), ((F(2, 5), F(-3, 4)), (F(-1, 6), F(5, 2))),
                    CFTail(RationalFunction(IntPolynomial([1, 1]), -3), "n^2-5", 1))


def test_convergents_normalise_where_the_scale_is_not_one():
    # the kernel's scale M_n = den(b0) m_1 ... m_n: for _SCALED_CF,
    # M_n = 3 * 20 * 12 * 3^(n-2).  A tail denominator 2x - 1 read from
    # x = 0: M_n = -1, -1, -3, -15, ...
    cases = (
        (_SCALED_CF, 30),
        (CFSpec(F(2), (), CFTail("n+3", "(n-2)/(2n-1)", 0)), 12),
    )
    for cf, N in cases:
        assert next(_scaled_terms(cf))[2] != 1
        convs = convergents(cf, N)
        assert [(c.A, c.B) for c in convs] == _reference_pairs(cf, N)
        assert all(type(v) is F for c in convs for v in (c.A, c.B))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example(b0=F(-7, 3), cf=_SCALED_CF, N=20)
@example(b0=F(2), cf=CFSpec(F(0), (), CFTail("n+3", "(n-2)/(2n-1)", 0)), N=12)
@given(b0=st.builds(F, st.integers(-40, 40), st.integers(1, 12)), cf=_rational_cf,
       N=st.integers(0, 12))
def test_canonical_pairs_match_the_fraction_recurrence(b0, cf, N):
    # b0 = c + r/q with r != 0 for a fractional b0, and rational prefixes and
    # tails give kernel scales M != 1
    cf = CFSpec(b0, cf.prefix, cf.tail)
    try:
        want = _reference_pairs(cf, N)[1:]
    except PolycfError as exc:
        with pytest.raises(type(exc)) as got:
            convergents(cf, N)[1:]
        assert got.value.args == exc.args
        return
    pairs = [(c.A, c.B) for c in convergents(cf, N)[1:]]
    assert pairs == want
    assert all(type(v) is F for pair in pairs for v in pair)


def _per_term_scaled_terms(cf):
    """The reference term stream: _scaled_terms as one Python generator,
    every term through its own check."""
    for n, (a, b) in enumerate(cf.prefix, 1):
        if a == 0:
            raise ZeroPartialNumerator(n)
        q, s = a.denominator, b.denominator
        yield a.numerator * s, b.numerator * q, q * s
    tail = cf.tail
    if tail is None:
        return
    first = len(cf.prefix) + 1
    x0 = tail.start_index
    qa, qb = tail.a.den, tail.b.den
    if qa.degree == 0 and qb.degree == 0:
        q, s = qa.coeffs[0], qb.coeffs[0]
        m = q * s
        a_vals = (tail.a.num * s).values_from(x0)
        b_vals = (tail.b.num * q).values_from(x0)
        for n, a, b in zip(itertools.count(first), a_vals, b_vals):  # never ends
            if a == 0:
                raise ZeroPartialNumerator(n)
            yield a, b, m
    columns = (tail.a.num, qa, tail.b.num, qb)
    for n, x, p, q, r, s in zip(
        itertools.count(first),
        itertools.count(x0),
        *(poly.values_from(x0) for poly in columns),
    ):
        if q == 0 or s == 0:
            raise PoleAtArgument(x)
        if p == 0:
            raise ZeroPartialNumerator(n)
        yield p * s, r * q, q * s


def _read_stream(steps, limit=24):
    """The first `limit` steps of a term stream, then the type and args of
    the error it raised instead, if any."""
    out = []
    try:
        out.extend(itertools.islice(steps, limit))
    except PolycfError as exc:
        out.append((type(exc), exc.args))
    return out


def _root_factor(x):
    return IntPolynomial([-x, 1])


@st.composite
def _planted_cf(draw):
    """A CF with a rational prefix and a tail whose numerator may vanish at
    its first argument, later on, or everywhere, and whose denominators are
    constants, or polynomials that may vanish at some argument."""
    x0 = draw(st.integers(-3, 3))
    zero = draw(st.sampled_from(["none", "first", "mid", "poly"]))
    a_num = draw(_poly)
    if zero == "first":
        a_num = a_num * _root_factor(x0)
    elif zero == "mid":
        a_num = a_num * _root_factor(x0 + draw(st.integers(1, 15)))
    elif zero == "poly":
        a_num = IntPolynomial()
    if draw(st.booleans()):
        dens = [draw(st.integers(-6, 6).filter(bool)) for _ in range(2)]
    else:
        dens = [draw(_poly) for _ in range(2)]
        if draw(st.booleans()):
            dens[draw(st.integers(0, 1))] *= _root_factor(x0 + draw(st.integers(0, 15)))
    tail = CFTail(RationalFunction(a_num, dens[0]), RationalFunction(draw(_poly), dens[1]), x0)
    prefix = draw(st.lists(st.tuples(_rational, _rational), max_size=4).map(tuple))
    return CFSpec(draw(_rational), prefix, draw(st.just(tail) | st.none()))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@example(cf=CFSpec(F(0), (), CFTail("n-3", "1")))
@example(cf=CFSpec(F(0), ((F(1), F(2)), (F(0), F(1))), CFTail("n", "1")))
@example(cf=CFSpec(F(1), ((F(1, 2), F(3)),), CFTail("n-2", "n/5", 2)))
@example(cf=CFSpec(F(1), (), CFTail("0", "n")))
@example(cf=CFSpec(F(0), (), CFTail("1/(n-4)", "n")))
@example(cf=_SCALED_CF)
@given(cf=_planted_cf())
def test_term_stream_matches_the_per_term_generator(cf):
    # the same steps, then the same error after as many steps
    assert _read_stream(_scaled_terms(cf)) == _read_stream(_per_term_scaled_terms(cf))


# sha256 of "n A B" lines, A and B as hex p/q, of convergents(cf, N): ex3.3
# at 1,000 terms (A = 1 has an integer b0, A = 2..5 a fractional one), ex3.4
# with k = 3 at 300 terms, and _SCALED_CF, whose fractional b0 and prefix
# terms make the kernel's scale M_n != 1 at every row
_CONVERGENT_PINS = {
    ("ex3.3", (("A", "1"),), 1000): "2bffd7b0a6f6839beedded70a72df1fb925829e728dc3498471478227e06c040",
    ("ex3.3", (("A", "2"),), 1000): "e426f0048db0784c7a76c7d36121d95774da3af7aa17c96dcad75c74cee22870",
    ("ex3.3", (("A", "3"),), 1000): "5da74b9c15d7def06d5f2287f884ec8cf450034879a5c858e0f3339861b3d047",
    ("ex3.3", (("A", "4"),), 1000): "72bb75e61363029cab116788c4b34e2a7e3aaf7bf1a8273d35923a0ce4b31b32",
    ("ex3.3", (("A", "5"),), 1000): "abe3694ff4ce29eeff855a1171a2310709c831523039914bfe9c5e30a433fb05",
    ("ex3.4", (("k", "3"), ("A", "1")), 300): "7d31566d517f85cc26acdfa95bec15e4bb130eafb7723fdd08953d4fcffec7cb",
    ("ex3.4", (("k", "3"), ("A", "2")), 300): "dd5a6236b37f6dddc798ddc5366f45801986b42e6b36798068503a9b78e1e0a8",
    ("ex3.4", (("k", "3"), ("A", "3")), 300): "863fa5a8b4cce67011c83bf2ee3e139cf20aa97bc40cfd2e854097c0a9a1042c",
    (None, (), 300): "91f50f482b75a402dfd2d041c5ef917f79983411dd45965fc27c132eda5a0b97",
}


@pytest.mark.parametrize("preset, params, N", sorted(_CONVERGENT_PINS, key=str))
def test_convergents_are_pinned(preset, params, N):
    cf = _SCALED_CF if preset is None else build_preset(preset, dict(params)).cf
    convs = convergents(cf, N)
    text = "".join(f"{c.index} {c.A.numerator:x}/{c.A.denominator:x} "
                   f"{c.B.numerator:x}/{c.B.denominator:x}\n" for c in convs)
    assert hashlib.sha256(text.encode()).hexdigest() == _CONVERGENT_PINS[preset, params, N]
    assert all(type(v) is F and v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1
               for c in convs for v in (c.A, c.B))


def test_convergents_reject_negative_counts():
    with pytest.raises(ValueError):
        convergents(E_CF, -1)
    with pytest.raises(ValueError):
        approximants(E_CF, -2)
    with pytest.raises(ValueError):
        to_integer_cf(CFSpec(b0=F(1), prefix=((F(1, 2), F(1)),)), -1)
    assert [(c.A, c.B) for c in convergents(E_CF, 0)] == [(2, 1)]


def test_approximants_undefined_entry():
    # b_1 = 0, a_2 chosen so B_1 = 0 while B_2 != 0
    cf = CFSpec(b0=F(1), prefix=((F(1), F(0)), (F(1), F(1))))
    values = approximants(cf, 2)
    assert values[1] is UNDEFINED
    assert values[2] == F(2)


@pytest.mark.parametrize("preset", sorted(PRESET_PARAMS))
def test_approximants_are_the_convergent_values(preset):
    cf = build_preset(preset).cf
    values = approximants(cf, 12)
    assert type(values) is list and len(values) == 13
    assert values == [c.value for c in convergents(cf, 12)]


def test_evaluate_converges_to_e():
    est = evaluate(E_CF, F(1, 10**15), 40)
    assert est.converged
    assert abs(est.value - mpmath.e) < 1e-14


def test_evaluate_finite_cf_exact():
    cf = CFSpec(b0=F(1), prefix=((F(1), F(2)), (F(3), F(4))))
    est = evaluate(cf, F(1, 100), 50)
    assert est.converged
    assert est.error_bound == 0
    # 1 + 1/(2 + 3/4) = 15/11
    with mpmath.workprec(128):
        assert est.value == mpmath.mpf(15) / 11


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_finite_cf_with_undefined_final_approximant_is_not_converged(backend):
    # A_1/B_1 = 1/0: the last defined approximant is b0, with no gap yet
    est = _evaluate(CFSpec(b0=F(0), prefix=((F(1), F(0)),)), F(1, 100), 2, backend=backend)
    assert (est.value, est.error_bound, est.terms_used, est.converged) == (0, mpmath.inf, 1, False)
    # B_3 = 0 after B_1 = 1, B_2 = 2: A_2/B_2 = 3/2, one gap |3/2 - 2/1| back
    cf = CFSpec(b0=F(1), prefix=((F(1), F(1)), (F(1), F(1)), (F(-4), F(2))))
    assert approximants(cf, 3)[3] is UNDEFINED
    est = _evaluate(cf, F(1, 100), 5, backend=backend)
    assert (est.value, est.error_bound, est.terms_used, est.converged) == (
        mpmath.mpf(1.5), mpmath.mpf(0.5), 3, False)


def test_evaluate_non_convergence_is_flagged():
    slow = CFSpec(b0=F(1), tail=("4n^2-4n+1", "2"))
    est = evaluate(slow, F(1, 10**9), 50)
    assert not est.converged
    assert est.terms_used == 50


def test_evaluate_validation():
    with pytest.raises(ValueError):
        evaluate(E_CF, F(0), 10)
    with pytest.raises(ValueError):
        evaluate(E_CF, F(1, 10), 1)
    for bits in (0, -3):
        with pytest.raises(ValueError):
            evaluate(E_CF, F(1, 10), 10, precision_bits=bits)


def test_limit_counts_must_be_integers_islice_takes():
    member = build_preset("e")
    for limit in (lambda terms, bits=128: evaluate(E_CF, F(1, 10), terms, bits),
                  lambda terms, bits=128: verify_limit(member, terms, bits, F(1, 10))):
        with pytest.raises(TypeError, match=r"^max_terms must be an integer, got 2\.5$"):
            limit(2.5)
        with pytest.raises(TypeError, match=r"^precision_bits must be an integer, got 64\.5$"):
            limit(10, 64.5)
        with pytest.raises(ValueError, match=f"^max_terms must be at most {sys.maxsize}$"):
            limit(sys.maxsize + 1)


def test_evaluate_backends_agree():
    exact = _evaluate(E_CF, F(1, 10**12), 60, backend="exact")
    flt = _evaluate(E_CF, F(1, 10**12), 60, backend="float")
    assert abs(exact.value - flt.value) < 1e-12
    assert exact.converged and flt.converged


def test_evaluate_high_precision():
    est = evaluate(E_CF, F(1, 10**55), 300, precision_bits=256)
    with mpmath.workprec(256):
        want = mpmath.e
        assert abs(est.value - want) < mpmath.mpf(10) ** -50


def _exact_last_convergent(cf, N):
    """Unreduced integer A_N, B_N of an integer CF, without keeping history.

    convergents() would hold every pair up to N, hundreds of MB at N = 10^4.
    """
    A_prev, B_prev = cf.b0.denominator, 0
    A, B = cf.b0.numerator, cf.b0.denominator
    for n in range(1, N + 1):
        a, b = term_at(cf, n)
        assert a.denominator == 1 and b.denominator == 1
        A, A_prev = b.numerator * A + a.numerator * A_prev, A
        B, B_prev = b.numerator * B + a.numerator * B_prev, B
    return A, B


def _float_matches_last_convergent(cf, N):
    """A float evaluate over all N terms is within 2^-128 of exact A_N/B_N."""
    est = _evaluate(cf, F(1, 10**100), N, 128, "float")
    assert est.terms_used == N and not est.converged
    A, B = _exact_last_convergent(cf, N)
    man, exp = est.value.man_exp
    # |value - A/B| < 2^-128 |A/B|, cleared of denominators
    if exp >= 0:
        err = abs(man * 2**exp * B - A)
    else:
        err = abs(man * B - A * 2**-exp) >> -exp
    return err * 2**128 < abs(A)


@pytest.mark.parametrize(
    "preset, params",
    [("brouncker", {}), ("ex3.3", {"A": "1"}), ("ex4.2", {"A": "-1"})],
)
def test_float_kernel_matches_exact_convergent(preset, params):
    assert _float_matches_last_convergent(build_preset(preset, params).cf, 10**4)


def test_float_kernel_keeps_precision_far_from_one():
    # limit about 10^-40: every A_n is about 133 bits shorter than its B_n
    cf = CFSpec(b0=F(0), prefix=((F(1), F(10**40)),), tail=CFTail("4n^2-4n+1", "2", 1))
    assert _float_matches_last_convergent(cf, 2000)


_small = st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(3, 2)])
_coeff = st.integers(-3, 3) | st.integers(-(2**80), 2**80)
_wide_poly = st.lists(_coeff, min_size=1, max_size=3).filter(any).map(IntPolynomial)
_wide_ratfn = st.builds(RationalFunction, _wide_poly, _wide_poly)
# small prefix terms with b_n = 0 and b_1 b_2 = -a_2 often enough that
# B_n = 0 steps occur; tails with 80-bit coefficients put shifts in every term
_gap_cf = st.builds(
    CFSpec,
    _rational,
    st.lists(st.tuples(_small, _small | st.just(F(0))), max_size=6).map(tuple),
    st.builds(CFTail, _ratfn | _wide_ratfn, _ratfn | _wide_ratfn, st.integers(-2, 3)) | st.none(),
)
_bits = st.sampled_from([1, 2, 5, 16, 64, 128])


def _kernel(cf, budget, gaps=True):
    return _recurrence(cf.b0, _scaled_terms(cf), budget, gaps)


def _reference_evaluate(cf, tol, max_terms, precision_bits, backend):
    """evaluate's stop rule with the gaps formed directly from the kernel's
    pairs, as products; returns the LimitEstimate fields and every gap as a
    pair (numerator, denominator)."""
    budget = precision_bits + _FLOAT_GUARD_BITS + max_terms.bit_length()
    budget = budget if backend == "float" else None
    A_last, B_last = cf.b0.numerator, cf.b0.denominator
    gap_num, gap_den, gaps = 0, 0, []
    small_prev = converged = finite = skipped = across = False
    n, B = 0, B_last
    for n, (A, B, *_) in enumerate(itertools.islice(_kernel(cf, budget, False), max_terms), 1):
        if B == 0:  # an undefined approximant ends the run of small gaps
            small_prev = False
            skipped = True
            continue
        across, skipped = skipped, False  # a gap across an undefined approximant is not reported
        gap_num = abs(A * B_last - A_last * B)
        gap_den = abs(B * B_last)
        gaps.append((gap_num, gap_den))
        A_last, B_last = A, B
        small = gap_num * tol.denominator < tol.numerator * gap_den
        if small and small_prev:
            converged = True
            break
        small_prev = small
    else:
        # a finite CF is exact only where its final approximant is defined
        finite = n < max_terms and B != 0
    with mpmath.workprec(precision_bits + _FLOAT_GUARD_BITS):
        q = F(A_last, B_last)
        value = mpmath.mpf(q.numerator) / q.denominator
        if finite:
            converged, error = True, mpmath.mpf(0)
        elif gap_den == 0 or across:
            error = mpmath.inf
        else:
            q = F(gap_num, gap_den)
            error = mpmath.mpf(q.numerator) / q.denominator
    with mpmath.workprec(precision_bits):
        fields = ((+value)._mpf_, (+error)._mpf_, n, converged)
    return fields, gaps


def _fields(est):
    return est.value._mpf_, est.error_bound._mpf_, est.terms_used, est.converged


# steps the bit-length screen leaves to the exact comparison, found by a
# random search: deciding small at L = R - 2, or not small at L = R + 1,
# changes terms_used
_SCREEN_EDGES = [
    dict(
        cf=CFSpec(F(-2), ((F(-2), F(2)), (F(1), F(1, 2))), CFTail("(n^2-1)/3", "2", 2)),
        tol=F(1, 1000),
        max_terms=27,
    ),
    dict(
        cf=CFSpec(
            F(4),
            ((F(1, 2), F(0)), (F(-2), F(1, 2))),
            CFTail(
                RationalFunction(IntPolynomial([-2, -3]), 2),
                RationalFunction(-3, IntPolynomial([1, 3])),
                3,
            ),
        ),
        tol=F(31, 10),
        max_terms=16,
    ),
]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example(**_SCREEN_EDGES[0], bits=5, backend="exact", pick=None)
@example(**_SCREEN_EDGES[0], bits=5, backend="float", pick=None)
@example(**_SCREEN_EDGES[1], bits=5, backend="exact", pick=None)
@given(
    cf=_gap_cf,
    tol=st.fractions(min_value=F(1, 10**30), max_value=1),
    max_terms=st.integers(2, 40),
    bits=_bits,
    backend=st.sampled_from(["exact", "float"]),
    pick=st.none() | st.tuples(st.integers(0, 40), st.sampled_from([-1, 0, 1])),
)
def test_evaluate_stop_rule_matches_direct_products(cf, tol, max_terms, bits, backend, pick):
    try:
        want, gaps = _reference_evaluate(cf, tol, max_terms, bits, backend)
    except PolycfError as exc:
        with pytest.raises(type(exc)) as got:
            _evaluate(cf, tol, max_terms, bits, backend)
        assert got.value.args == exc.args
        return
    assert _fields(_evaluate(cf, tol, max_terms, bits, backend)) == want
    if pick is not None and any(num for num, _ in gaps):
        # a tol at a gap or just beside it: the bit-length screen cannot
        # decide that step, and at equality the strict comparison does
        nonzero = [g for g in gaps if g[0]]
        i, side = pick
        tol = F(*nonzero[i % len(nonzero)]) * (1 + F(side, 2**40))
        want, _ = _reference_evaluate(cf, tol, max_terms, bits, backend)
        assert _fields(_evaluate(cf, tol, max_terms, bits, backend)) == want


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    preset=st.sampled_from([("ex3.5", "A"), ("ex4.2", "A"), ("ex3.3", "A"), ("brouncker", None)]),
    A=st.sampled_from(["1", "2", "3"]),
    max_terms=st.integers(1500, 2000),
    bits=st.sampled_from([1024, 2048, 4096]),
    pick=st.tuples(st.integers(0, 2000), st.sampled_from([-1, 0, 1])),
)
def test_evaluate_stop_rule_matches_direct_products_at_high_precision(
        preset, A, max_terms, bits, pick):
    # wide budgets over many terms: shifts come every few terms, the kernel's
    # gap numerators are approximate, and a tol at a gap puts steps in the
    # band where the stop rule forms them exactly
    name, param = preset
    cf = build_preset(name, {param: A} if param else {}).cf
    test_evaluate_stop_rule_matches_direct_products.hypothesis.inner_test(
        cf, F(1, 2 ** (bits - 20)), max_terms, bits, "float", pick)


def _check_kernel_gaps(cf, N, budget):
    """Every D the kernel flags exact (err None) is A B_l - A_l B, and every
    other lies within 2^err |D| of it where err <= -2; returns the number
    of approximate D with such a bound."""
    A_l, B_l = cf.b0.numerator, cf.b0.denominator
    bounded = 0
    for A, B, _, D, err, x in itertools.islice(_kernel(cf, budget), N):
        exact = A * B_l - A_l * B
        if err is None:
            assert (D, x) == (exact, 0)
        elif err <= -2:
            D = F(D) * F(2) ** x
            assert abs(D - exact) <= abs(D) * F(2) ** err
            bounded += 1
        A_l, B_l = A, B
    return bounded


# a step scale m of about 2^88
_WIDE_SCALE_CF = CFSpec(0, (), CFTail(RationalFunction(248662, 19430301118571),
                                      RationalFunction(1, 19430301118571), 0))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(cf=_WIDE_SCALE_CF, N=3, budget=59)
@example(cf=_WIDE_SCALE_CF, N=40, budget=100)  # across shifts
@given(cf=_gap_cf, N=st.integers(1, 40), budget=st.none() | st.integers(1, 100))
def test_kernel_gap_is_exact_or_within_its_bound(cf, N, budget):
    try:
        _check_kernel_gaps(cf, N, budget)
    except PolycfError:
        pass


@pytest.mark.parametrize("preset", ["ex3.5", "ex4.2", "ex3.3", "brouncker"])
@pytest.mark.parametrize("bits", [128, 1024, 4096])
def test_kernel_gap_bound_holds_over_many_shifts(preset, bits):
    cf = build_preset(preset).cf
    assert _check_kernel_gaps(cf, 1500, bits + _FLOAT_GUARD_BITS + 11) > 0


@pytest.mark.parametrize("preset", ["ex3.5", "ex4.2", "e", "brouncker"])
@pytest.mark.parametrize("bits", [128, 1024])
def test_stop_rule_reads_an_approximate_gap_only_within_its_bound(monkeypatch, preset, bits):
    # each approximate D moved up by 1/4 of the exact one where err <= -2
    # (the largest error the rule accepts), and to nonsense where err > -2:
    # every decision must still be the exact rule's, at tols placed at gaps
    def skewed(*args, **kwargs):
        for A, B, m, D, err, x in _recurrence(*args, **kwargs):
            if err is not None and err > -2:
                D <<= 40
            elif err is not None:
                exact = A * B_l - A_l * B
                D, x = exact + (abs(exact) >> 2) * (1 if exact > 0 else -1), 0
            A_l, B_l = A, B
            yield A, B, m, D, err, x

    cf = build_preset(preset).cf
    _, gaps = _reference_evaluate(cf, F(1, 2 ** (bits + 200)), 1500, bits, "float")
    tols = [F(1, 2 ** (bits + 200))] + [F(*gaps[len(gaps) * i // 8]) for i in range(1, 8)]
    monkeypatch.setattr(cf_module, "_recurrence", skewed)
    for tol in tols:
        want, _ = _reference_evaluate(cf, tol, 1500, bits, "float")
        assert _fields(_evaluate(cf, tol, 1500, bits, "float")) == want


def _stop_rule(cf, tol, max_terms):
    """The documented stop rule restated over approximants()."""
    values = approximants(cf, max_terms)
    last, small_prev = values[0], False
    for n, v in enumerate(values[1:], 1):
        if v is UNDEFINED:  # the run of small gaps starts again after it
            small_prev = False
            continue
        gap, last = abs(v - last), v
        if gap < tol and small_prev:
            return n, v, gap
        small_prev = gap < tol
    raise AssertionError("reference did not converge")


def _close(x, q, bits=127):
    """|x - q| <= 2^-bits |q| for an mpf x and a rational q, exactly."""
    man, exp = x.man_exp
    return abs(F(man) * F(2) ** exp - q) <= abs(q) / 2**bits


def test_tol_below_the_budget_stops_where_the_exact_rule_does():
    # tol 10^-1300 (about 2^-4318) lies below the 4139-bit budget of a 4096-bit
    # evaluate over 2000 terms: the budgeted kernel must still carry enough
    # bits for the gaps to fall below it where the exact rule's do
    cf = build_preset("e").cf
    n, _, gap = _stop_rule(cf, F(1, 10**1300), 600)
    est = evaluate(cf, "1e-1300", 2000, 4096)
    assert (n, est.terms_used, est.converged) == (561, 561, True)
    assert _close(est.error_bound, gap, 40)


@pytest.mark.parametrize(
    "a, b",
    [("n/(n+2)", "(3n+1)/(n+1)"), ("n^2/4", "(2n+1)/3"), ("(2n-1)/2", "7/2")],
)
def test_rational_tail_same_on_both_backends(a, b):
    cf = CFSpec(b0=F(1, 3), prefix=((F(2, 5), F(7, 3)),), tail=CFTail(a, b, 2))
    tol = F(1, 10**30)
    n, value, gap = _stop_rule(cf, tol, 300)
    exact = _evaluate(cf, tol, 300, backend="exact")
    flt = _evaluate(cf, tol, 300, backend="float")
    assert exact.converged and flt.converged
    assert exact.terms_used == flt.terms_used == n
    assert exact.value == flt.value
    assert _close(exact.value, value)
    assert _close(exact.error_bound, gap)
    # the float gap is a difference of two approximants, good to 2^-128 of them
    man, exp = flt.error_bound.man_exp
    assert abs(F(man) * F(2) ** exp - gap) <= abs(value) / 2**128


def test_undefined_approximant_mid_prefix_is_skipped():
    # B_2 = b_2 B_1 + a_2 B_0 = (-1)(1) + 1 = 0
    cf = CFSpec(b0=F(1), prefix=((F(1), F(1)), (F(1), F(-1))), tail=CFTail("n", "n+1", 3))
    assert approximants(cf, 3)[2] is UNDEFINED
    tol = F(1, 2)
    n, value, gap = _stop_rule(cf, tol, 50)
    for backend in ("exact", "float"):
        est = _evaluate(cf, tol, 50, backend=backend)
        assert est.converged
        assert est.terms_used == n
        assert _close(est.value, value)
        assert _close(est.error_bound, gap)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_undefined_approximants_break_the_run_of_small_gaps(backend):
    # 1 + K(1/0): approximants 1, undefined, 1, undefined, ...; every gap
    # between defined ones is 0, but an undefined one lies between each two,
    # so no gap is reported
    cf = CFSpec(b0=F(1), tail=("1", "0"))
    est = _evaluate(cf, F(1, 10**6), 60, backend=backend)
    assert (est.terms_used, est.converged, est.value, est.error_bound) == (60, False, 1, math.inf)
    # approximants 1, undefined, 1, undefined, 1, 513/512: the gaps at 2 and
    # 4 are not consecutive, those at 4 and 5 are
    cf = CFSpec(b0=F(1), prefix=((F(1), F(0)),) * 4, tail=CFTail("1/n^9", "1", 2))
    assert approximants(cf, 5)[1:] == [UNDEFINED, 1, UNDEFINED, 1, F(513, 512)]
    est = _evaluate(cf, F(1, 10), 60, backend=backend)
    assert (est.terms_used, est.converged) == (5, True)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_prefix_of_exactly_max_terms_is_not_finite(backend):
    cf = CFSpec(b0=F(0), prefix=((F(1), F(1)),) * 10)
    est = _evaluate(cf, F(1, 10**30), 10, backend=backend)
    assert not est.converged
    assert est.terms_used == 10
    assert est.error_bound > 0
    est = _evaluate(cf, F(1, 10**30), 11, backend=backend)
    assert est.converged
    assert est.terms_used == 10
    assert est.error_bound == 0
    assert _close(est.value, convergents(cf, 10)[10].value)


# each reads terms 1..n of its CF (tietze_check's certificate reads more);
# "exact" and "float" are evaluate on the two kernels
_TERM_READERS = {
    "exact": lambda cf, n: _evaluate(cf, F(1, 10**9), n, backend="exact"),
    "float": lambda cf, n: _evaluate(cf, F(1, 10**9), n, backend="float"),
    "convergents": convergents,
    "even_part": lambda cf, n: even_part(cf, n // 2),
    "tietze_check": tietze_check,
    "to_integer_cf": to_integer_cf,
}


@pytest.mark.parametrize("reader", sorted(_TERM_READERS))
def test_term_errors_raised_when_reached(reader):
    read = _TERM_READERS[reader]
    zero_at_3 = CFSpec(b0=F(0), tail=("n-3", "1"))
    # integer terms -2, -3, -6 before the pole, so that tietze_check reaches it
    pole_at_4 = CFSpec(b0=F(0), tail=("6/(n-4)", "n"))
    if reader != "tietze_check":  # its certificate reads past term 3 at any scan_limit
        for cf, n in ((zero_at_3, 2), (pole_at_4, 3)):
            result = read(cf, n)
            assert reader not in ("exact", "float") or result.terms_used == n
    with pytest.raises(ZeroPartialNumerator) as exc:
        read(zero_at_3, 10)
    assert exc.value.args == ("partial numerator is zero (index 3)",)
    with pytest.raises(PoleAtArgument) as exc:
        read(pole_at_4, 10)
    assert exc.value.args == ("denominator vanishes at n = 4",)


def test_similarity_scale_sequence_preserves_values():
    cf = CFSpec(b0=F(1), tail=("n", "n+1"))
    scaled = similarity_scale(cf, [F(1), F(2), F(1, 3), F(5), F(7, 2)])
    want = approximants(cf, 4)
    got = approximants(scaled, 4)
    assert got == want


def test_similarity_scale_sequence_validation():
    cf = CFSpec(b0=F(1), tail=("n", "n+1"))
    with pytest.raises(ValueError):
        similarity_scale(cf, [F(2), F(1)])
    with pytest.raises(ZeroScaleFactor):
        similarity_scale(cf, [F(1), F(0)])


def test_similarity_scale_symbolic_preserves_values():
    cf = CFSpec(b0=F(2), tail=("1", "2n+1"))
    scaled = similarity_scale(cf, ratfn_from_string("n+1"))
    want = approximants(cf, 8)
    got = approximants(scaled, 8)
    assert got == want
    assert similarity_scale(cf, "n+1") == scaled  # a string is read as a rational function


def test_similarity_scale_symbolic_requires_r0_one():
    cf = CFSpec(b0=F(2), tail=("1", "2n+1"))
    with pytest.raises(ValueError):
        similarity_scale(cf, ratfn_from_string("n+2"))


def test_similarity_scale_symbolic_zero_factor_detected():
    cf = CFSpec(b0=F(2), tail=("1", "2n+1"))
    with pytest.raises(ZeroScaleFactor):
        similarity_scale(cf, ratfn_from_string("(n-4)/(0n-4)"))


def test_similarity_scale_symbolic_zero_factor_in_the_prefix():
    # r(n) = 1 - n is 1 at n = 0 and 0 at n = 1, the prefix's one term
    cf = CFSpec(b0=F(2), prefix=((F(1), F(3)),), tail=("1", "2n+1"))
    with pytest.raises(ZeroScaleFactor) as exc:
        similarity_scale(cf, ratfn_from_string("1-n"))
    assert exc.value.index == 1


def test_to_integer_cf_already_integral():
    out = to_integer_cf(E_CF, 10)
    assert out == E_CF


def test_to_integer_cf_returns_an_integer_cf_itself():
    for cf in (E_CF, CFSpec(F(1, 2), ((F(3), F(-2)), (F(-1), F(5)))), build_preset("ex3.3", {"A": "2"}).cf):
        assert to_integer_cf(cf, 20 if cf.tail else 2) is cf


@pytest.mark.parametrize(
    "cf, N, want",
    [
        (CFSpec(F(0), ((F(1, 2), F(1, 3)), (F(2), F(1, 5)))), 2, ((3, 2), (60, 1))),
        # the step (6, 1, 3): a_1 = 2 is integral and b_1 = 1/3 is not
        (CFSpec(F(0), ((F(2), F(1, 3)),), CFTail("1", "n")), 1, ((6, 1),)),
        # a rational tail, with step scales m = -3, -2, -1 at n = 1, 2, 3
        (CFSpec(F(0), (), CFTail("-1", "(n^2-1)/(n-4)")), 3, ((-1, 0), (-2, -3), (-2, -8))),
        (CFSpec(F(1), ((F(4), F(2)),), CFTail("3/(n-4)", "n")), 3, ((4, 2), (-1, 1), (-3, 4))),
    ],
)
def test_to_integer_cf_rescales_fractional_terms(cf, N, want):
    out = to_integer_cf(cf, N)
    assert out == CFSpec(cf.b0, tuple((F(a), F(b)) for a, b in want))
    assert approximants(out, N) == approximants(cf, N)


def test_to_integer_cf_clears_denominators():
    cf = CFSpec(b0=F(1), prefix=((F(1, 2), F(3, 4)), (F(2, 5), F(1))))
    out = to_integer_cf(cf, 2)
    for n in range(1, 3):
        a, b = term_at(out, n)
        assert a.denominator == 1 and b.denominator == 1
    assert approximants(out, 2) == approximants(cf, 2)


_fraction_1_to_8 = st.builds(F, st.integers(1, 8), st.integers(1, 8))
# positive at every n >= 0
_positive_poly = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(
    lambda cs: RationalFunction(IntPolynomial([cs[0] + 1] + cs[1:]))
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    b0=st.integers(0, 3),
    prefix=st.lists(st.tuples(_fraction_1_to_8, _fraction_1_to_8),
                    min_size=8, max_size=8),
    seq=st.lists(st.builds(F, st.integers(-8, 8).filter(bool), st.integers(1, 8)),
                 min_size=8, max_size=8),
    k=st.integers(0, 8),
    tail=st.builds(CFTail, st.builds(operator.truediv, _positive_poly, _positive_poly),
                   _positive_poly, st.integers(0, 3)),
    p=_positive_poly,
    q=_positive_poly,
)
def test_integer_and_similarity_forms_preserve_values(b0, prefix, seq, k, tail, p, q):
    cf = CFSpec(b0=F(b0), prefix=tuple(prefix))
    want = approximants(cf, 8)
    out = to_integer_cf(cf, 8)
    assert approximants(out, 8) == want
    assert all(
        term_at(out, n)[0].denominator == 1 and term_at(out, n)[1].denominator == 1
        for n in range(1, 9)
    )
    assert approximants(similarity_scale(cf, [F(1)] + seq), 8) == want
    # r(0) = 1 and r(n) > 0 for n >= 1, so every scaled term exists
    n = RationalFunction.variable()
    r = (1 + n * (p - 1)) / (1 + n * (q - 1))
    cf = CFSpec(F(b0), tuple(prefix[:k]), tail)
    want = approximants(cf, 12)
    assert approximants(similarity_scale(cf, r), 12) == want


def test_tail_cf_drops_prefix():
    cf = CFSpec(b0=F(1), prefix=((F(1), F(2)), (F(3), F(4))), tail=CFTail("n", "n", 5))
    t1 = tail_cf(cf, 1)
    assert t1.b0 == 0
    assert term_at(t1, 1) == (F(3), F(4))
    assert term_at(t1, 2) == (F(5), F(5))
    t3 = tail_cf(cf, 3)
    assert term_at(t3, 1) == (F(6), F(6))


def test_tail_cf_rejects_missing_terms():
    cf = CFSpec(b0=F(1), prefix=((F(1), F(2)),))
    with pytest.raises(NoSuchTerm):
        tail_cf(cf, 2)


def test_tail_cf_rejects_a_negative_count():
    with pytest.raises(ValueError, match=r"^k must be at least 0$"):
        tail_cf(E_CF, -1)


def _term_by_term_tail_cf(cf, k):
    """tail_cf as it was when it read every term 1..k, verbatim but for the
    module prefix c."""
    c = cf_module
    k = c._count(k, "k")
    for n in range(1, k + 1):
        c.term_at(cf, n)
    m = len(cf.prefix)
    if k < m:
        return CFSpec(Fraction(0), cf.prefix[k:], cf.tail)
    tail = None
    if cf.tail is not None:
        tail = CFTail(cf.tail.a, cf.tail.b, cf.tail.start_index + (k - m))
    return CFSpec(Fraction(0), (), tail)


def _tail_or_error(tail, cf, k):
    try:
        return tail(cf, k)
    except PolycfError as exc:
        return type(exc), exc.args


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@example(cf=CFSpec(F(0), ((F(1), F(2)), (F(0), F(1))), CFTail("n", "1")), k=5)
@example(cf=CFSpec(F(0), ((F(1), F(2)),), CFTail("0", "1/(n-1)")), k=2)
@example(cf=CFSpec(F(0), (), CFTail("1/(n-40)", "n", 2)), k=60)
@example(cf=CFSpec(F(0), (), CFTail("n", "1/(n-40)", 2)), k=30)
@given(cf=_planted_cf(), k=st.sampled_from([0, 1, 2, 5, 30, 60, 200]))
def test_tail_cf_matches_the_term_by_term_reference(cf, k):
    # the same CF, or the same error, from reading terms only up to the last
    # one that can fail
    assert _tail_or_error(tail_cf, cf, k) == _tail_or_error(_term_by_term_tail_cf, cf, k)


def test_tail_cf_of_any_count_reads_a_bounded_number_of_terms(monkeypatch):
    read = []
    term_at = cf_module.term_at

    def counted(cf, n):
        assert n <= 1000, "a term read past the last one that can fail"
        read.append(n)
        return term_at(cf, n)

    monkeypatch.setattr(cf_module, "term_at", counted)
    assert tail_cf(E_CF, sys.maxsize) == CFSpec(F(0), (), CFTail("n+1", "n+1", sys.maxsize + 1))
    assert max(read) < 10
    with pytest.raises(PoleAtArgument, match=r"^denominator vanishes at n = 1000$"):
        tail_cf(CFSpec(F(0), (), CFTail("1/(n-1000)", "1")), sys.maxsize)
    with pytest.raises(NoSuchTerm, match=r"\(index 2\)$"):
        tail_cf(CFSpec(F(0), ((F(1), F(2)),)), sys.maxsize)


# term 1 of _POLE_FIRST is a pole, so a count read only after a term shows up
# as PoleAtArgument(1), and none of the cases below reads without bound
_POLE_FIRST = CFSpec(F(0), (), CFTail("1/(n-1)", "1", 1))


def _growth_n(v):
    return growth_diagnostics(_POLE_FIRST, v)


# (read, name, least): read(v) passes v as the count called name, whose least
# value is least; a w is a list, whose values and length are read after the count
_COUNTS = [
    pytest.param(lambda v: convergents(_POLE_FIRST, v), "N", 0, id="convergents"),
    pytest.param(lambda v: approximants(_POLE_FIRST, v), "N", 0, id="approximants"),
    pytest.param(lambda v: to_integer_cf(_POLE_FIRST, v), "N", 0, id="to_integer_cf"),
    pytest.param(lambda v: even_part(_POLE_FIRST, v), "N", 0, id="even_part"),
    pytest.param(lambda v: odd_part(_POLE_FIRST, v), "N", 0, id="odd_part"),
    pytest.param(lambda v: bauer_muir(_POLE_FIRST, [1, 1, 1], v), "N", 1, id="bauer_muir"),
    pytest.param(lambda v: extension_bmoe(_POLE_FIRST, [0, 1, 1], v), "N", 1, id="extension_bmoe"),
    pytest.param(lambda v: tail_cf(_POLE_FIRST, v), "k", 0, id="tail_cf"),
    pytest.param(lambda v: tietze_check(_POLE_FIRST, v), "scan_limit", 1, id="tietze_check"),
    pytest.param(lambda v: evaluate(_POLE_FIRST, F(1, 10), v), "max_terms", 2,
                 id="evaluate-max_terms"),
    pytest.param(lambda v: cf_module._limit(_POLE_FIRST, F(1, 10), v, 128, True), "max_terms", 2,
                 id="extrapolate-max_terms"),
    pytest.param(lambda v: evaluate(_POLE_FIRST, F(1, 10), 10, v), "precision_bits", 1,
                 id="evaluate-precision_bits"),
    pytest.param(lambda v: growth_diagnostics(_POLE_FIRST, 10, precision_bits=v),
                 "precision_bits", 1, id="growth_diagnostics-precision_bits"),
    pytest.param(_growth_n, "N", 1, id="growth_diagnostics"),
]


@pytest.mark.parametrize("count", ["2.5", "str", "least-1", "maxsize+1"])
@pytest.mark.parametrize("read, name, least", _COUNTS)
def test_every_count_is_read_by_name_before_any_term(read, name, least, count):
    v = {"2.5": 2.5, "str": "5", "least-1": least - 1, "maxsize+1": sys.maxsize + 1}[count]
    error, message = {
        "2.5": (TypeError, rf"{name} must be an integer, got 2\.5"),
        "str": (TypeError, f"{name} must be an integer, got '5'"),
        "least-1": (ValueError, f"{name} must be at least {least}"),
        "maxsize+1": (ValueError, f"{name} must be at most {sys.maxsize}"),
    }[count]
    if read is _growth_n and count == "least-1":
        for v in (0, -1, 0.5, F(1, 2)):  # growth_diagnostics: any N below 1 is an empty range
            with pytest.raises(EmptyRange):
                read(v)
        return
    with pytest.raises(error, match=f"^{message}$"):
        read(v)


@pytest.mark.parametrize("prefix", [[["1"]], [["1", "2", "3"]], [[]]])
def test_json_prefix_items_must_be_pairs(prefix):
    with pytest.raises(ValueError, match=r"^\$\.prefix\[0\]: expected a pair \[a, b\]$"):
        cf_from_json({"b0": "1", "prefix": prefix})
    # the constructor names the item as cf_from_json does, without the "$."
    for item in (prefix[0], tuple(prefix[0]), 1):
        with pytest.raises(ValueError, match=r"^prefix\[0\]: expected a pair \[a, b\]$"):
            CFSpec(1, [item])


# library entry points that read a rational they are handed, each with
# what it reports of the value
_READERS = {
    "CFSpec": lambda v: CFSpec(v).b0,
    "LimitClaim.exact": lambda v: LimitClaim.exact(v).value,
    "bauer_muir": lambda v: bauer_muir(E_CF, [v, 0, 0], 2).w[0],
    "evaluate": lambda v: evaluate(E_CF, v, 30),
    "growth_diagnostics": lambda v: growth_diagnostics(E_CF, 5, v).epsilon,
}


@pytest.mark.parametrize("read", _READERS.values(), ids=_READERS)
def test_library_strings_keep_the_decimal_exponent_bound(read):
    with pytest.raises(ValueError, match=f"decimal exponent above {_MAX_DECIMAL_EXPONENT}$"):
        read(f"1e-{_MAX_DECIMAL_EXPONENT + 1}")
    # within the bound, strings and ints read as the Fraction they name
    for value in (f"1e-{_MAX_DECIMAL_EXPONENT}", "3/7", " 2.5E-3 ", 5):
        assert read(value) == read(F(value))


def test_rational_strings_refuse_what_json_input_refuses():
    # a zero denominator is a ValueError, as for JSON input, not a
    # ZeroDivisionError; a bool is not a rational
    for value in ("1/0", True, "", "n"):
        with pytest.raises(ValueError, match="^b0: expected rational"):
            CFSpec(value)
    with pytest.raises(TypeError, match="exact rational required"):
        CFSpec(0.5)
    assert evaluate(E_CF, 0.001, 10) == evaluate(E_CF, F(1, 1000), 10)  # by its shortest repr


# library entry points, each with the name it gives the refused argument v
_NAMED_READERS = {
    "CFSpec-b0": ("b0", lambda v: CFSpec(v)),
    "CFSpec-prefix-a": ("prefix[1][0]", lambda v: CFSpec(0, [(1, 1), (v, 1)])),
    "CFSpec-prefix-b": ("prefix[0][1]", lambda v: CFSpec(0, [(1, v)])),
    "evaluate": ("tol", lambda v: evaluate(E_CF, v, 10)),
    "extrapolate": ("tol", lambda v: cf_module._limit(E_CF, v, 10, 128, True)),
    "verify_limit": ("tol", lambda v: verify_limit(build_preset("e"), 10, 128, v)),
    "growth_diagnostics": ("epsilon", lambda v: growth_diagnostics(E_CF, 5, v)),
    "similarity_scale": ("r[1]", lambda v: similarity_scale(E_CF, [1, v])),
    "LimitClaim.exact": ("value", lambda v: LimitClaim.exact(v)),
    "family_binomial-alpha": ("alpha", lambda v: family_binomial(v, 0, "0")),
    "family_binomial-x": ("x", lambda v: family_binomial(F(1, 2), v, "0")),
    "ramanujan_entry13": ("d", lambda v: ramanujan_entry13(1, 1, v)),
    "euler_from_series": ("terms[2]", lambda v: euler_from_series([1, 2, v])),
    "bernoulli_from_sequence": ("K[1]", lambda v: bernoulli_from_sequence([0, v])),
    "generalized_euler": ("b[1]", lambda v: generalized_euler([1, 2], [0, v])),
    "euler_tail": ("b0", lambda v: euler_tail(v, "n")),
    "bauer_muir-list": ("w[2]", lambda v: bauer_muir(E_CF, [0, 0, v], 2)),
    "bauer_muir-callable": ("w[3]", lambda v: bauer_muir(E_CF, lambda n: v if n == 3 else 0, 3)),
}


@pytest.mark.parametrize("name, read", _NAMED_READERS.values(), ids=_NAMED_READERS)
def test_library_errors_name_the_refused_argument(name, read):
    name = re.escape(name)
    with pytest.raises(ValueError, match=f"^{name}: expected rational, got 'x'$"):
        read("x")
    with pytest.raises(ValueError, match=f"^{name}: decimal exponent above {_MAX_DECIMAL_EXPONENT}$"):
        read(f"1e-{_MAX_DECIMAL_EXPONENT + 1}")
    if name not in ("tol", "epsilon"):  # those two read a float by its shortest repr
        with pytest.raises(TypeError, match=f"^{name}: exact rational required, got 0.5$"):
            read(0.5)


def test_json_round_trip():
    cf = CFSpec(
        b0=F(3, 2),
        prefix=((F(1, 2), F(5)),),
        tail=CFTail("(n+1)/(n+3)", "2n-1", 4),
    )
    data = cf.to_json()
    text = json.dumps(data, sort_keys=True)
    back = cf_from_json(json.loads(text))
    assert back == cf
    assert back.to_json() == data


def test_json_round_trip_no_tail():
    cf = CFSpec(b0=F(0), prefix=((F(2), F(3)),))
    assert cf_from_json(cf.to_json()) == cf


def test_least_square_root_multiple_is_least_below_the_cube_bound():
    # least k with d | k^2, by search, for every small d
    for d in range(1, 2000):
        assert _least_square_root_multiple(d) == next(k for k in range(1, d + 1) if k * k % d == 0)
    # cofactors left after trial division below 10^4: a prime, a prime square
    # and a product of two primes are settled exactly; 10007^3 is taken whole
    p, q = 1000003, 1000033
    cases = {p: p, 4 * p * p: 2 * p, 12 * p * q: 6 * p * q, 10007**3: 10007**3,
             1000000007**2: 1000000007}
    for d, k in cases.items():
        assert _least_square_root_multiple(d) == k


def _per_term_richardson_weights(n):
    """_richardson_weights as it was before it was cached, verbatim."""
    m = min(cf_module._RICHARDSON_ORDER, n // 4)
    u = [(-1) ** i * math.comb(m, i) * (n - 2 * i) ** m for i in range(m + 1)]
    return u, math.factorial(m) << m


def _per_term_limit(cf, tol, max_terms, precision_bits, extrapolating):
    """_limit as it was before its Richardson branch read only checkpoints,
    verbatim but for the module prefix c. and four changes: a B = 0 step
    also sets small_prev = False (the stop rule's correction), the kernel
    yields D's exponent x, no last gap is taken across an undefined
    approximant, and every estimate is returned too.  The loop body runs
    at every term and builds a Fraction for each estimate: the reference
    that the checkpoint loop must match."""
    c = cf_module
    tol, max_terms, precision_bits = c._limit_tol(tol, max_terms, precision_bits)
    points = c._checkpoints(max_terms) if extrapolating and c.tail_class(cf) else []
    pairs = budget = None  # pairs: the Richardson window while that method applies
    if len(points) >= 3:
        last, d = _per_term_richardson_weights(points[-1])
        guard = math.ceil(Fraction(sum(map(abs, last)), d)).bit_length()
        bits = precision_bits + c._FLOAT_GUARD_BITS + guard
        budget = bits + points[-1].bit_length()
        pairs = collections.deque(maxlen=2 * len(last) - 1)
    elif max_terms > c._EXACT_TERM_LIMIT:
        budget = precision_bits + c._FLOAT_GUARD_BITS + max_terms.bit_length()
    steps = itertools.islice(c._scaled_terms(cf), max_terms)
    kernel = c._recurrence(cf.b0, steps, budget, gaps=pairs is None)
    tol_num, tol_den = tol.numerator, tol.denominator
    offset = tol_den.bit_length() - tol_num.bit_length()
    A_last, B_last = cf.b0.numerator, cf.b0.denominator
    last_bits = B_last.bit_length()
    A_gap, B_gap, gap = 0, 0, None  # (A_gap, B_gap): the defined pair before the last one
    adjacent = True  # the kernel's previous pair is (A_last, B_last)
    small_prev = converged = False
    estimates, parity_gaps = [], []
    n = 0
    for n, (A, B, _, D, err, x) in enumerate(kernel, 1):
        if pairs is not None:
            pairs.append((A, B))
            if n != points[len(estimates)]:
                continue
            u, d = _per_term_richardson_weights(n)
            window = [pairs[-1 - 2 * i] for i in range(len(u))]
            if all(B_i for _, B_i in window):
                # f_{n_i} in units of 2^-bits
                values = [(A_i << bits) // B_i for A_i, B_i in window]
                estimates.append(Fraction(sum(map(operator.mul, u, values)), d << bits))
                parity_gaps.append(abs(values[0] - values[1]))
                if len(parity_gaps) < 3:
                    continue
                if c._ratio_settled(*parity_gaps[-3:]):
                    if abs(estimates[-1] - estimates[-2]) <= tol or n == points[-1]:
                        break
                    continue
            # turned down: the plain rule reads on from this pair
            A_last, B_last = next(p for p in itertools.islice(reversed(pairs), 1, None) if p[1])
            last_bits, adjacent = B_last.bit_length(), bool(pairs[-2][1])
            pairs = None
        if not B:
            adjacent = small_prev = False
            continue
        B_bits = B.bit_length()
        if D is None or not adjacent or err is not None and not (
                err <= -2 and D and D.bit_length() + x - B_bits - last_bits + offset >= 3):
            # past a shift the kernel's D 2^x only settles "not small": bl(exact) >= bl(D) + x - 1
            D, x = A * B_last - A_last * B, 0
        excess = D.bit_length() + x - B_bits - last_bits + offset  # L - R
        if excess >= 2 and D:
            small = False
        elif excess <= -3:
            small = True
        else:
            small = abs(D) * tol_den < tol_num * abs(B * B_last)
        A_gap, B_gap = (A_last, B_last) if adjacent else (0, 0)
        A_last, B_last, last_bits, adjacent = A, B, B_bits, True
        if small and small_prev:
            converged = True
            break
        small_prev = small
    else:
        if n < max_terms and adjacent:  # a finite CF whose final approximant is defined
            converged, gap = True, (0, 1)
    if gap is None and B_gap:  # the last gap, formed exactly once
        gap = abs(A_last * B_gap - A_gap * B_last), abs(B_last * B_gap)
    richardson = pairs is not None
    return (
        estimates[-1] if richardson else Fraction(A_last, B_last),
        gap,
        n,
        converged,
        "richardson" if richardson else "plain",
    ), estimates


_CHECKPOINT_PRESETS = [("brouncker", {})] + [("ex3.3", {"A": str(A)}) for A in range(1, 6)] + [
    ("ex3.4", {"k": str(k), "A": str(A)}) for k in (2, 3, 11) for A in (1, 2, 3)] + [
    ("ex4.2", {"A": str(A)}) for A in (-1, 0, 1)]


@st.composite
def _algebraic_cf(draw):
    """A CF whose tail has a class: a preset of the paper's algebraic
    families, or a random positive or parabolic tail, its numerator times
    (n - k1)/(n - k2) (a zero or a pole within 450 terms, or none) after a
    prefix of up to 60 small terms, b_n = 0 among them (B_n = 0 steps)."""
    if draw(st.booleans()):
        preset, params = draw(st.sampled_from(_CHECKPOINT_PRESETS))
        return build_preset(preset, params).cf
    n = IntPolynomial.variable()
    beta = draw(st.integers(1, 3))
    low = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    if draw(st.booleans()):  # positive: a ~ alpha n^2, b = beta
        a, b = draw(st.integers(1, 3)) * n * n + low[1] * n + low[0], IntPolynomial([beta])
    else:  # parabolic: a ~ -beta^2 n^2, b ~ 2 beta n
        a, b = -beta * beta * n * n + low[1] * n + low[0], 2 * beta * n + draw(st.integers(-2, 2))
    k1, k2 = draw(st.integers(-600, 450)), draw(st.integers(-600, 450))
    a = RationalFunction(a * (n - k1), n - k2) if k1 != k2 else RationalFunction(a)
    prefix = draw(st.lists(st.tuples(_small, _small | st.just(F(0))), max_size=60))
    return CFSpec(draw(_rational), tuple(prefix), CFTail(a, RationalFunction(b),
                                                         draw(st.integers(1, 3))))


def _zero_b_at(n):
    """Brouncker's tail after n prefix terms with B_n = 0: inside the window
    of the first checkpoint past n, which turns the method down there."""
    prefix = [(F(1), F(1))] * (n - 1)
    B_prev2, B_prev = (c.B for c in convergents(CFSpec(F(0), tuple(prefix)), n - 1)[n - 2:])
    cf = CFSpec(F(0), tuple(prefix) + ((F(1), -B_prev2 / B_prev),), build_preset("brouncker").cf.tail)
    assert convergents(cf, n)[n].B == 0
    return cf


_ENTRY13 = build_preset("entry13", {"a": "1", "b": "1", "d": "1"}).cf


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(cf=build_preset("brouncker").cf, max_terms=800, tol=F(1, 10**3), bits=128, pick=None)
@example(cf=build_preset("brouncker").cf, max_terms=800, tol=F(1, 10**40), bits=128, pick=None)
@example(cf=build_preset("brouncker").cf, max_terms=800, tol=F(1, 10**40), bits=128, pick=(1, 0))
@example(cf=build_preset("ex3.3", {"A": "2"}).cf, max_terms=800, tol=F(1, 10**40), bits=128,
         pick=(2, 0))
@example(cf=_zero_b_at(40), max_terms=400, tol=F(1, 10**9), bits=128, pick=None)
# turned down at 200 by B_190 = 0, after reading on at 50 and 100
@example(cf=_zero_b_at(190), max_terms=400, tol=F(1, 10**9), bits=128, pick=None)
# turned down at the third checkpoint, 200, by the ratio test; at 400 the
# plain rule reads on past it
@example(cf=_ENTRY13, max_terms=200, tol=F(1, 10**6), bits=128, pick=None)
@example(cf=_ENTRY13, max_terms=400, tol=F(1, 10**6), bits=128, pick=None)
@example(cf=CFSpec(F(0), (), CFTail("n^3/(n-120)", "2")), max_terms=400, tol=F(1), bits=64,
         pick=None)
@example(cf=CFSpec(F(0), (), CFTail("(n^3-75n^2)/(n+1)", "2")), max_terms=400, tol=F(1),
         bits=64, pick=None)
@given(
    cf=_algebraic_cf(),
    max_terms=st.sampled_from([400, 200, 201, 199, 49, 50, 51, 800]),
    tol=st.integers(1, 200).map(lambda k: F(1, 2**k)),
    bits=st.sampled_from([16, 64, 128]),
    pick=st.none() | st.tuples(st.integers(0, 6), st.sampled_from([-1, 0, 1])),
)
def test_checkpoint_loop_matches_the_per_term_loop(cf, max_terms, tol, bits, pick):
    # same parts or the same exception; with pick, tol at the distance of two
    # successive estimates or just beside it, so the run stops at a chosen
    # checkpoint, with the comparison at equality
    try:
        want, estimates = _per_term_limit(cf, tol, max_terms, bits, True)
    except PolycfError as exc:
        with pytest.raises(type(exc)) as got:
            cf_module._limit(cf, tol, max_terms, bits, True)
        assert got.value.args == exc.args
        return
    assert cf_module._limit(cf, tol, max_terms, bits, True) == want
    diffs = [abs(e1 - e0) for e0, e1 in zip(estimates, estimates[1:]) if e1 != e0]
    if pick is not None and diffs:
        i, side = pick
        tol = diffs[i % len(diffs)] * (1 + F(side, 2**40))
        assert cf_module._limit(cf, tol, max_terms, bits, True) == _per_term_limit(
            cf, tol, max_terms, bits, True)[0]


@pytest.mark.parametrize("n", [50 * 2**k for k in range(8)])  # every checkpoint up to 6400
def test_richardson_weights_are_the_lagrange_weights_at_zero(n):
    u, d, guard = weights = cf_module._richardson_weights(n)
    assert type(u) is tuple and cf_module._richardson_weights(n) is weights
    m = min(cf_module._RICHARDSON_ORDER, n // 4)
    nodes = [F(1, n - 2 * i) for i in range(m + 1)]
    lagrange = [math.prod(x_j / (x_j - x_i) for x_j in nodes if x_j != x_i) for x_i in nodes]
    assert [F(u_i, d) for u_i in u] == lagrange
    assert guard == math.ceil(F(sum(map(abs, u)), d)).bit_length()


class _Index:
    """An integer-like count that defines only __index__."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


def test_limit_counts_are_used_as_read():
    # max_terms and precision_bits go on as the integers the count reader
    # returns, so an __index__-only count runs as its int does
    tol = F(1, 10**9)
    for cf in (E_CF, build_preset("ex3.4").cf):
        for read in (evaluate,
                     lambda cf, tol, n, bits=128: cf_module._limit(cf, tol, n, bits, True)):
            want = read(cf, tol, 400, 96)
            assert read(cf, tol, _Index(400), _Index(96)) == want
            assert read(cf, tol, _Index(400)) == read(cf, tol, 400)
    member = build_preset("e")
    want = verify_limit(member, 400, 128, tol)
    assert verify_limit(member, _Index(400), _Index(128), tol) == want


# b0: integers and fractions (-7/3 among them); prefix terms integral or
# fractional; tails polynomial (scale 1), with a constant denominator, or
# rational; a prefix-only CF ends early when N passes it
_row_value = st.integers(-5, 5) | _rational
_row_tail = (st.builds(CFTail, _poly.map(RationalFunction), _poly.map(RationalFunction),
                       st.integers(-2, 3))
             | st.builds(CFTail, st.builds(RationalFunction, _poly, st.sampled_from([2, 3, 6])),
                         _poly.map(RationalFunction), st.integers(-2, 3))
             | st.builds(CFTail, _ratfn, _ratfn, st.integers(-2, 3))
             | st.none())
_row_cf = st.builds(
    CFSpec,
    st.builds(F, st.integers(-40, 40), st.integers(1, 12)),
    st.lists(st.tuples(_row_value.filter(bool), _row_value), max_size=4).map(tuple),
    _row_tail,
)


def _normalised_rows(cf, N):
    """Rows 0..N of convergents as Fraction(num, den) of the same kernel
    integers, or fewer where a finite CF ends."""
    q = cf.b0.denominator
    c, r = divmod(cf.b0.numerator, q)
    rows, M = [(cf.b0, F(1))], 1
    for A, B, m, *_ in itertools.islice(_recurrence(F(c), _scaled_terms(cf)), N):
        M *= m
        rows.append((F(q * A + r * B, q * M), F(B, M)))
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(cf=CFSpec(F(-7, 3), ((1, 2), (3, -1)), CFTail("n", "2n+1", 1)), N=12)
@example(cf=CFSpec(F(5, 6), ((F(1, 2), 1),), CFTail("n+1", "3", 1)), N=8)
@example(cf=CFSpec(F(1, 2), ((1, 1), (2, 1))), N=5)
# the residue branch (q > 1, M = 1) where g = gcd(B_n, q) != 1: for q = 6,
# B_n = 2, 9, 56, 457, 4626 (g = 2, 3, 2, 1, 6); for q = 12, B_n = 2, 8, 36
# (g = 2, 4, 12)
@example(cf=CFSpec(F(1, 6), (), CFTail("1", "2n", 1)), N=10)
@example(cf=CFSpec(F(5, 12), (), CFTail("2", "n + 1", 1)), N=10)
# q > 1 with step scales m = -1, -1, 1, 5, ...: row 1 (M = -1) goes through
# _fraction with a negative denominator, and the residues carry the negative
# steps into the M = 1 rows 2 and 3 (g = 2 at row 3)
@example(cf=CFSpec(F(5, 6), (), CFTail("1/(n^2 - 3n + 1)", "2n", 1)), N=10)
@given(cf=_row_cf, N=st.integers(0, 14))
def test_convergent_rows_match_normalising_construction(cf, N):
    try:
        want = _normalised_rows(cf, N)
    except PolycfError as exc:
        with pytest.raises(type(exc)) as got:
            convergents(cf, N)
        assert got.value.args == exc.args
        return
    if len(want) <= N:  # a finite CF that ends before term N
        with pytest.raises(NoSuchTerm) as got:
            convergents(cf, N)
        assert got.value.index == len(want)
        return
    rows = convergents(cf, N)
    assert [row.index for row in rows] == list(range(N + 1))
    for row, pair in zip(rows, want):
        for x, y in zip((row.A, row.B), pair):
            assert type(x) is F
            assert (x.numerator, x.denominator) == (y.numerator, y.denominator)
            assert x.denominator > 0
            assert x == y and hash(x) == hash(y)


_BIG = 10**9999 + 1  # 10^4 digits, prime to 3


@contextlib.contextmanager
def _any_int_str():
    """Lift the interpreter's limit on int-to-str digits (Python 3.11+)."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_digits(0)
    try:
        yield
    finally:
        set_digits(digits)


@pytest.mark.parametrize("p, q", [(0, 1), (1, 1), (-1, 1), (-7, 3), (5, 12), (_BIG, 1),
                                  (-_BIG, 3)], ids=["0", "1", "-1", "-7/3", "5/12", "big", "-big/3"])
def test_lowest_builds_the_fraction_that_fraction_builds(p, q):
    # a change to the fractions module that the trusted build of convergents'
    # rows relies on fails here
    x, y = _lowest(p, q), F(p, q)
    assert type(x) is F and isinstance(x, numbers.Rational)
    assert (x.numerator, x.denominator) == (y.numerator, y.denominator)
    assert x == y and hash(x) == hash(y) and hash(x) == hash(F(p) / q)
    with _any_int_str():
        assert (repr(x), str(x)) == (repr(y), str(y))
    for z in (F(1, 2), F(-3), 7):
        assert (x + z, x - z, x * z, x / z, z - x) == (y + z, y - z, y * z, y / z, z - y)
        assert (x < z, x <= z, x > z) == (y < z, y <= z, y > z)
    assert (-x, abs(x), x**2, math.floor(x), round(x), int(x), bool(x)) == (
        -y, abs(y), y**2, math.floor(y), round(y), int(y), bool(y))
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is F and twin == y and hash(twin) == hash(y)
        assert (twin.numerator, twin.denominator) == (p, q)


# p and q of both signs, 0 among them, small, wide, and 10^4 digits with
# common factors (2, 3 and _BIG itself)
_fraction_int = (st.integers(-50, 50) | st.integers(-10**40, 10**40)
                 | st.builds(operator.mul, st.integers(-12, 12),
                             st.sampled_from([_BIG, 10**9999, 6 * _BIG])))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(p=0, q=-7)
@example(p=-_BIG, q=0)
@example(p=6 * _BIG, q=-4 * _BIG)
@given(p=_fraction_int, q=_fraction_int)
def test_fraction_builds_what_fraction_builds(p, q):
    # the one builder of the transforms' terms and of rows with M != 1
    with _any_int_str():
        if q == 0:
            with pytest.raises(ZeroDivisionError) as want:
                F(p, q)
            with pytest.raises(ZeroDivisionError) as got:
                cf_module._fraction(p, q)
            assert got.value.args == want.value.args
            return
        x, y = cf_module._fraction(p, q), F(p, q)
        assert type(x) is F
        assert (x.numerator, x.denominator, hash(x)) == (y.numerator, y.denominator, hash(y))
        assert (repr(x), str(x)) == (repr(y), str(y))
