"""Unit tests for series/product constructions, contractions, and Bauer-Muir."""

import itertools
import math
import operator
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycf.cf import (
    CFSpec,
    CFTail,
    _scaled_terms,
    approximants,
    convergents,
    integer_tail_form,
    term_at,
)
from polycf.errors import (
    DegenerateTerm,
    NonzeroW0,
    PoleAtArgument,
    PolycfError,
    RepeatedValue,
    TransformDoesNotExist,
    UnitTerm,
    ZeroEvenDenominator,
    ZeroOddDenominator,
    ZeroPartialNumerator,
    ZeroTerm,
    ZeroW,
)
from polycf.poly import IntPolynomial, RationalFunction, ratfn_from_string
from polycf.families import build_preset
from polycf.transforms import (
    BauerMuirResult,
    _euler_term,
    bauer_muir,
    bauer_muir_tail,
    bernoulli_from_sequence,
    euler_from_series,
    euler_tail,
    even_part,
    extension_bmoe,
    generalized_euler,
    generalized_product,
    odd_part,
    product_to_cf,
)

F = Fraction

E_CF = CFSpec(b0=F(2), tail=("n+1", "n+1"))


def _nonzero(rng):
    v = 0
    while v == 0:
        v = F(rng.randint(-9, 9), rng.randint(1, 9))
    return v


def test_bernoulli_matches_sequence():
    rng = random.Random(101)
    for _ in range(25):
        seq = [F(rng.randint(-20, 20), rng.randint(1, 10))]
        while len(seq) < 15:
            v = F(rng.randint(-20, 20), rng.randint(1, 10))
            if v != seq[-1]:
                seq.append(v)
        cf = bernoulli_from_sequence(seq)
        assert approximants(cf, len(seq) - 1) == seq


def test_bernoulli_rejects_repeats():
    with pytest.raises(RepeatedValue) as exc:
        bernoulli_from_sequence([F(1), F(2), F(2)])
    assert exc.value.index == 2
    with pytest.raises(ValueError):
        bernoulli_from_sequence([])


def test_euler_matches_partial_sums():
    rng = random.Random(102)
    for _ in range(25):
        terms = [F(rng.randint(-9, 9), rng.randint(1, 9))]
        terms += [_nonzero(rng) for _ in range(14)]
        cf = euler_from_series(terms)
        assert approximants(cf, 14) == list(itertools.accumulate(terms))


def test_euler_rejects_zero_term():
    with pytest.raises(ZeroTerm) as exc:
        euler_from_series([F(1), F(2), F(0)])
    assert exc.value.index == 2


def test_generalized_euler_matches_shifted_sums():
    rng = random.Random(103)
    for _ in range(25):
        n = 12
        while True:
            a = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            b = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            if all(a[k] + b[k] - b[k - 1] != 0 for k in range(1, n)):
                break
        cf = generalized_euler(a, b)
        sums = []
        total = F(0)
        for k in range(n):
            total += a[k]
            sums.append(b[k] + total)
        assert approximants(cf, n - 1) == sums


def test_generalized_euler_validation():
    with pytest.raises(ValueError):
        generalized_euler([F(1)], [F(1), F(2)])
    with pytest.raises(DegenerateTerm):
        generalized_euler([F(1), F(2)], [F(0), F(-2)])


def test_product_matches_partial_products():
    rng = random.Random(104)
    for _ in range(25):
        facs = []
        while len(facs) < 12:
            v = _nonzero(rng)
            if v != 1:
                facs.append(v)
        cf = product_to_cf(facs)
        assert approximants(cf, 12) == list(itertools.accumulate(facs, operator.mul, initial=F(1)))


def test_product_rejects_degenerate_factors():
    with pytest.raises(ZeroTerm):
        product_to_cf([F(2), F(0)])
    with pytest.raises(UnitTerm):
        product_to_cf([F(2), F(1)])


def test_generalized_product_matches_weighted_products():
    rng = random.Random(105)
    for _ in range(25):
        n = 10
        while True:
            a = [_nonzero(rng) for _ in range(n)]
            b = [_nonzero(rng) for _ in range(n + 1)]
            if all(a[k - 1] * b[k] - b[k - 1] != 0 for k in range(1, n + 1)):
                break
        cf = generalized_product(a, b)
        want = []
        total = F(1)
        for k in range(n + 1):
            if k:
                total *= a[k - 1]
            want.append(b[k] * total)
        assert approximants(cf, n) == want


def test_generalized_product_validation():
    with pytest.raises(ValueError):
        generalized_product([F(2)], [F(1)])
    with pytest.raises(DegenerateTerm):
        generalized_product([F(2)], [F(1), F(1, 2)])
    # a zero factor is refused as product_to_cf refuses it, and before a
    # vanishing u_n = a_n b_n - b_{n-1} at the same index
    with pytest.raises(ZeroTerm) as exc:
        generalized_product([F(1, 2), F(0), F(1, 3)], [F(1)] * 4)
    assert exc.value.index == 2
    with pytest.raises(ZeroTerm) as exc:
        generalized_product([F(0)], [F(0), F(1)])
    assert exc.value.index == 1


_factor = st.builds(F, st.integers(-6, 6), st.integers(1, 6)).filter(lambda v: v != 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example(a=[F(2), F(0), F(0)])
@example(a=[])
@given(a=st.lists(_factor, max_size=8))
def test_product_to_cf_is_the_unit_weight_generalized_product(a):
    unit = [F(1)] * (len(a) + 1)
    if F(0) in a:
        for run in (lambda: product_to_cf(a), lambda: generalized_product(a, unit)):
            with pytest.raises(ZeroTerm) as exc:
                run()
            assert exc.value.index == a.index(F(0)) + 1
    else:
        assert product_to_cf(a) == generalized_product(a, unit)


def test_even_part_pairs():
    terms = convergents(E_CF, 12)
    ev = even_part(E_CF, 6)
    for k, conv in enumerate(convergents(ev, 6)):
        assert (conv.A, conv.B) == (terms[2 * k].A, terms[2 * k].B)


def test_odd_part_values():
    terms = convergents(E_CF, 13)
    od = odd_part(E_CF, 6)
    vals = approximants(od, 6)
    assert vals[0] == F(3)  # b_0 + a_1 / b_1
    for k in range(1, 7):
        assert vals[k] == terms[2 * k + 1].A / terms[2 * k + 1].B
    # canonical pairs line up from k >= 1
    for k, conv in enumerate(convergents(od, 6)):
        if k >= 1:
            assert (conv.A, conv.B) == (terms[2 * k + 1].A, terms[2 * k + 1].B)


def test_contractions_on_random_positive_cfs():
    rng = random.Random(106)
    for _ in range(10):
        prefix = tuple(
            (
                F(rng.randint(1, 9), rng.randint(1, 4)),
                F(rng.randint(1, 9), rng.randint(1, 4)),
            )
            for _ in range(25)
        )
        cf = CFSpec(b0=F(rng.randint(0, 4)), prefix=prefix)
        terms = convergents(cf, 25)
        for k, conv in enumerate(convergents(even_part(cf, 12), 12)):
            assert (conv.A, conv.B) == (terms[2 * k].A, terms[2 * k].B)
        for k, conv in enumerate(convergents(odd_part(cf, 12), 12)):
            if k >= 1:
                assert (conv.A, conv.B) == (terms[2 * k + 1].A, terms[2 * k + 1].B)


def test_odd_part_rejects_zero_b1():
    cf = CFSpec(b0=F(1), prefix=((F(1), F(0)), (F(1), F(1)), (F(1), F(1))))
    with pytest.raises(ZeroOddDenominator):
        odd_part(cf, 1)


def test_bauer_muir_pairs():
    res = bauer_muir(E_CF, ratfn_from_string("n+1"), 8)
    orig = convergents(E_CF, 8)
    new = convergents(res.cf, 8)
    for n in range(9):
        w_n = F(n + 1)
        assert new[n].A == orig[n].A + w_n * (orig[n - 1].A if n else 1)
        assert new[n].B == orig[n].B + w_n * (orig[n - 1].B if n else 0)


def test_bauer_muir_with_list_w():
    w = [F(1), F(1, 2), F(2), F(2), F(5)]
    res = bauer_muir(E_CF, w, 4)
    orig = convergents(E_CF, 4)
    new = convergents(res.cf, 4)
    for n in range(5):
        assert new[n].A == orig[n].A + w[n] * (orig[n - 1].A if n else 1)
        assert new[n].B == orig[n].B + w[n] * (orig[n - 1].B if n else 0)
    assert len(res.existence_margin) == 4
    assert all(m != 0 for m in res.existence_margin)


def test_w_lists_must_hold_exactly_the_values_read():
    # bauer_muir reads w_0..w_N and extension_bmoe w_0..w_{N+1}; a longer
    # list is refused as a shorter one is, not cut
    for bad in ([F(1)] * 2, [F(1)] * 4):
        with pytest.raises(ValueError, match=f"need w_0..w_2, got {len(bad)} values"):
            bauer_muir(E_CF, bad, 2)
    for bad in ([F(0)] + [F(1)] * 2, [F(0)] + [F(1)] * 4):
        with pytest.raises(ValueError, match=f"need w_0..w_3, got {len(bad)} values"):
            extension_bmoe(E_CF, bad, 2)


def test_bauer_muir_nonexistence():
    # w_n = 0 for all n gives lambda_n = a_n... pick w so lambda_1 = 0:
    # a_1 = 2, b_1 = 2; w_0 (b_1 + w_1) = 2 with w_0 = 1, w_1 = 0
    with pytest.raises(TransformDoesNotExist):
        bauer_muir(E_CF, [F(1), F(0), F(1)], 2)


def test_margin_error_precedes_missing_term():
    # lambda_2 = 2 - w_1 (b_2 + w_2) = 0, and the CF has no term 3
    cf = CFSpec(b0=F(0), prefix=((F(1), F(1)), (F(2), F(1))))
    with pytest.raises(TransformDoesNotExist) as exc:
        bauer_muir(cf, [F(0), F(1), F(1), F(1)], 3)
    assert exc.value.index == 2
    with pytest.raises(TransformDoesNotExist) as exc:
        extension_bmoe(cf, [F(0), F(1), F(1), F(1)], 2)
    assert exc.value.index == 2


def test_contractions_reject_negative_counts():
    for part in (even_part, odd_part):
        with pytest.raises(ValueError):
            part(E_CF, -1)
    assert even_part(E_CF, 0) == CFSpec(b0=F(2))
    assert odd_part(E_CF, 0) == CFSpec(b0=F(3))


def test_extension_requires_zero_w0():
    with pytest.raises(NonzeroW0):
        extension_bmoe(E_CF, [F(1), F(2), F(3)], 1)
    with pytest.raises(ZeroW):
        extension_bmoe(E_CF, [F(0), F(0), F(3)], 1)


# term 3 is a pole: a CF that fails early, for reading a callable w lazily
_POLE_AT_3 = CFSpec(F(1), (), CFTail("n", "1/(n-3)", 1))


def test_a_callable_w_is_read_as_terms_are_reached():
    for transform, w0 in ((bauer_muir, F(1)), (extension_bmoe, F(0))):
        calls = []

        def w(n):
            calls.append(n)
            return w0 if n == 0 else F(n, 2)

        with pytest.raises(PoleAtArgument) as exc:
            transform(_POLE_AT_3, w, 10**6)
        assert exc.value.argument == 3 and calls == [0, 1, 2]
    # the same w as a list or a callable gives the same result and w
    w = [F(1), F(1, 2), F(2), F(2), F(5)]
    assert bauer_muir(E_CF, w, 4) == bauer_muir(E_CF, lambda n: w[n], 4)
    assert bauer_muir(E_CF, lambda n: w[n], 4).w == tuple(w)
    # the extension's own checks on a callable w, one fault each
    with pytest.raises(NonzeroW0):
        extension_bmoe(E_CF, lambda n: F(1), 3)
    with pytest.raises(ZeroW) as exc:
        extension_bmoe(E_CF, lambda n: F(0) if n in (0, 2) else F(n), 3)
    assert exc.value.args == ZeroW(2).args
    # two faults, a zero w_5 after the pole at term 3: a list w is checked
    # whole first, a callable one only as far as the terms reach
    w = [F(0), F(1), F(2), F(3), F(4), F(0), F(1)]
    with pytest.raises(ZeroW):
        extension_bmoe(_POLE_AT_3, w, 5)
    with pytest.raises(PoleAtArgument):
        extension_bmoe(_POLE_AT_3, lambda n: w[n], 5)


def test_a_callable_w_costs_nothing_past_a_failing_term():
    # in a fresh process: term 1 is a pole, so the call fails at once
    # whatever N is, rather than after w_0..w_N are read
    script = """
import time
from fractions import Fraction
from polycf.cf import CFSpec, CFTail
from polycf.errors import PoleAtArgument
from polycf.transforms import bauer_muir
cf = CFSpec(Fraction(0), (), CFTail("1/(n-1)", "1", 1))
start = time.perf_counter()
try:
    bauer_muir(cf, lambda n: Fraction(1, n + 1), 10**6)
except PoleAtArgument as exc:
    print(exc.argument, time.perf_counter() - start)
"""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    x, seconds = proc.stdout.split()
    assert int(x) == 1 and float(seconds) < 1


def test_extension_interleaves_original_and_transformed():
    N = 6
    w = [F(0)] + [F(j + 1) for j in range(1, N + 2)]
    ext = extension_bmoe(E_CF, w, N)
    vals = approximants(ext, 2 * N + 1)
    orig = approximants(E_CF, N)
    bm = approximants(bauer_muir(E_CF, ratfn_from_string("n+1"), N + 1).cf, N + 1)
    for k in range(N):
        assert vals[2 * k] == orig[k]
    for k in range(N):
        assert vals[2 * k + 1] == bm[k + 1]


def test_extension_even_odd_parts_recover_source_and_transform():
    N = 5
    w = [F(0)] + [F(j + 1) for j in range(1, N + 2)]
    ext = extension_bmoe(E_CF, w, N)
    ev = approximants(even_part(ext, N), N)
    assert ev == approximants(E_CF, N)
    od = approximants(odd_part(ext, N), N)
    bm = approximants(bauer_muir(E_CF, ratfn_from_string("n+1"), N + 1).cf, N + 1)
    assert od == bm[1 : N + 2]


def _is_integer_form(cf):
    prefix_integral = all(v.denominator == 1 for term in cf.prefix for v in term)
    return prefix_integral and cf.tail.a.den == 1 and cf.tail.b.den == 1


def test_euler_tail_and_integer_form_match_weighted_partial_sums():
    cases = [("(n+2)/(n^2+1)", rho) for rho in ("1", "-1", "(n+1)/(2n)")]
    # u = 2(2n+5)(2n-1)(n+1): r(2) = 1/5, so r_1 must absorb a factor 5
    cases.append(("8n^3+24n^2+6n-10", "1"))
    for u, rho in cases:
        u, rho = ratfn_from_string(u), ratfn_from_string(rho)
        want, total, h = [F(1, 3)], F(1, 3), F(1)
        for n in range(1, 31):
            h = h * rho(n) if n > 1 else h
            total += h * u(n)
            want.append(total)
        cf = euler_tail(F(1, 3), u, rho)
        assert approximants(cf, 30) == want
        icf = integer_tail_form(cf)
        assert _is_integer_form(icf)
        assert approximants(icf, 30) == want


def test_integer_tail_form_rejects_zero_numerator():
    # term 2 = (0, 1) is moved into the prefix, where a CF may not have it
    cf = CFSpec(b0=F(0), prefix=((F(1, 2), F(1)),), tail=CFTail("n-2", "1", 2))
    with pytest.raises(ZeroPartialNumerator) as exc:
        integer_tail_form(cf)
    assert exc.value.index == 2


def test_integer_tail_form_fractional_prefix():
    # the last prefix term's b is fractional after scaling by r(m), so a
    # tail term moves into the prefix; with one prefix term r_0 = 1 is fixed
    cfs = (
        CFSpec(
            F(5, 3),
            ((F(-2), F(-1, 6)), (F(1), F(1, 6)), (F(5, 3), F(7, 2))),
            CFTail("3", "(n+1)/2", 4),
        ),
        CFSpec(F(1), ((F(1, 2), F(2, 3)),), CFTail("n^2/3", "(2n+1)/5", 2)),
    )
    for cf in cfs:
        icf = integer_tail_form(cf)
        assert _is_integer_form(icf)
        assert approximants(icf, 30) == approximants(cf, 30)


def test_bauer_muir_tail_matches_finite():
    w = ratfn_from_string("2n+1")
    with_prefix = CFSpec(F(1), ((F(2), F(3)), (F(1), F(5))), CFTail("n+1", "n^2", 4))
    for cf in (E_CF, with_prefix):
        for w0 in (F(0), F(1, 2)):
            res = bauer_muir_tail(cf, w, w0)
            finite = bauer_muir(cf, [w0] + [w(n) for n in range(1, 21)], 20)
            assert approximants(res.cf, 20) == approximants(finite.cf, 20)


# Reference transforms: the Fraction formulas, term by term over term_at, with
# the same checks in the same order as the integer-step implementations.


def _ref_terms(cf, count):
    return zip((None, None), *(term_at(cf, n) for n in range(1, count + 1)))


def _ref_even_part(cf, N):
    a, b = _ref_terms(cf, 2 * N)
    terms = []
    for k in range(1, N + 1):
        if k == 1:
            c, d = b[2] * a[1], b[2] * b[1] + a[2]
        else:
            if b[2 * k - 2] == 0:
                raise ZeroEvenDenominator(2 * k - 2)
            ratio = b[2 * k] / b[2 * k - 2]
            c = -a[2 * k - 2] * a[2 * k - 1] * ratio
            d = a[2 * k] + b[2 * k - 1] * b[2 * k] + a[2 * k - 1] * ratio
        terms.append((c, d))
    return CFSpec(cf.b0, tuple(terms), None)


def _ref_odd_part(cf, N):
    a, b = _ref_terms(cf, 2 * N + 1)
    if b[1] == 0:
        raise ZeroOddDenominator(1)
    terms = []
    for k in range(1, N + 1):
        if k == 1:
            c = -a[1] * a[2] * b[3] / b[1]
            d = b[1] * (a[3] + b[2] * b[3]) + a[2] * b[3]
        elif k == 2:
            if b[3] == 0:
                raise ZeroOddDenominator(3)
            c = -a[3] * a[4] * b[5] * b[1] / b[3]
            d = a[5] + b[4] * b[5] + a[4] * b[5] / b[3]
        else:
            if b[2 * k - 1] == 0:
                raise ZeroOddDenominator(2 * k - 1)
            ratio = b[2 * k + 1] / b[2 * k - 1]
            c = -a[2 * k - 1] * a[2 * k] * ratio
            d = a[2 * k + 1] + b[2 * k] * b[2 * k + 1] + a[2 * k] * ratio
        terms.append((c, d))
    return CFSpec((cf.b0 * b[1] + a[1]) / b[1], tuple(terms), None)


def _ref_checked_terms(cf, w, N):
    terms, lam = [], []
    for n in range(1, N + 1):
        a, b = term_at(cf, n)
        lam.append(a - w[n - 1] * (b + w[n]))
        if lam[-1] == 0:
            raise TransformDoesNotExist(n)
        terms.append((a, b))
    return terms, lam


def _ref_bauer_muir(cf, w, N):
    if N < 1:
        raise ValueError(N)
    w = w[: N + 1]
    source, lam = _ref_checked_terms(cf, w, N)
    terms = [(lam[0], source[0][1] + w[1])]
    for n in range(2, N + 1):
        (a_prev, _), (_, b) = source[n - 2], source[n - 1]
        ratio = lam[n - 1] / lam[n - 2]
        terms.append((a_prev * ratio, b + w[n] - w[n - 2] * ratio))
    return BauerMuirResult(CFSpec(cf.b0 + w[0], tuple(terms), None), tuple(w), tuple(lam))


def _ref_extension_bmoe(cf, w, N):
    if N < 1:
        raise ValueError(N)
    if w[0] != 0:
        raise NonzeroW0(w[0])
    for j in range(1, N + 1):
        if w[j] == 0:
            raise ZeroW(j)
    source, _ = _ref_checked_terms(cf, w, N + 1)
    terms = [(source[0][0], source[0][1] + w[1])]
    for j, (a_next, b_next) in enumerate(source[1:], 1):
        q = a_next / w[j]
        terms += [(-w[j], F(1)), (q, b_next + w[j + 1] - q)]
    return CFSpec(cf.b0, tuple(terms), None)


def _same_outcome(run, reference):
    """run() returns what reference() returns, or raises the same error type
    with the same arguments (the index of the failing term or margin)."""
    try:
        want = reference()
    except (PolycfError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            run()
        if isinstance(exc, PolycfError):
            assert got.value.args == exc.args
        return
    assert run() == want


_q = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4]))
_poly = st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any).map(IntPolynomial)
_ratfn = st.builds(RationalFunction, _poly, _poly)
_transform_cf = st.builds(
    CFSpec,
    _q,
    st.lists(st.tuples(_q.filter(bool), _q | st.just(F(0))), max_size=5).map(tuple),
    st.builds(CFTail, _ratfn, _ratfn, st.integers(-4, 3)) | st.none(),
)
# inputs the property covers whatever hypothesis draws: step scales m > 1 in
# the prefix and m < 0 from the tail's non-constant denominators (at n = 2
# and 3, -3 * 2 and -1 * 7), b_2 = 0, and a zero margin
_FRACTIONAL = CFSpec(
    F(1, 3),
    ((F(2, 5), F(-3, 4)), (F(-1, 6), F(5, 2))),
    CFTail("(n+1)/(2n-7)", "(2n-3)/(n^2-2)", 1),
)
_ZERO_B2 = CFSpec(
    F(1), ((F(1, 2), F(3)), (F(2), F(0)), (F(1), F(1, 3))), CFTail("n", "(n+1)/(n-4)", 1)
)
_W = [F(1, 2), F(-1), F(2, 3), F(3), F(-1, 4), F(1), F(2), F(-3), F(1, 5)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(cf=_FRACTIONAL, N=4, w=list(_W), zero_at=None)
@example(cf=_FRACTIONAL, N=4, w=list(_W), zero_at=3)
@example(cf=_ZERO_B2, N=3, w=list(_W), zero_at=2)
@given(
    cf=_transform_cf,
    N=st.integers(0, 6),
    w=st.lists(_q, min_size=9, max_size=9),
    zero_at=st.none() | st.integers(1, 7),
)
def test_transforms_match_fraction_formulas(cf, N, w, zero_at):
    if zero_at is not None and w[zero_at - 1] != 0:
        # w_n = a_n / w_{n-1} - b_n makes lambda_n = a_n - w_{n-1} (b_n + w_n) zero
        try:
            a, b = term_at(cf, zero_at)
        except PolycfError:
            pass
        else:
            w[zero_at] = a / w[zero_at - 1] - b
    # w_0..w_N for bauer_muir and w_0 = 0, w_1..w_{N+1} for extension_bmoe
    ext_w, w = [F(0)] + w[1 : N + 2], w[: N + 1]
    _same_outcome(lambda: even_part(cf, N), lambda: _ref_even_part(cf, N))
    _same_outcome(lambda: odd_part(cf, N), lambda: _ref_odd_part(cf, N))
    _same_outcome(lambda: bauer_muir(cf, w, N), lambda: _ref_bauer_muir(cf, w, N))
    _same_outcome(lambda: extension_bmoe(cf, ext_w, N), lambda: _ref_extension_bmoe(cf, ext_w, N))


def test_transform_property_examples_cover_the_integer_step_cases():
    steps = list(itertools.islice(_scaled_terms(_FRACTIONAL), 5))
    assert any(m < 0 for _, _, m in steps[2:]) and all(m > 1 for _, _, m in steps[:2])
    with pytest.raises(ZeroEvenDenominator) as exc:
        even_part(_ZERO_B2, 3)
    assert exc.value.index == 2
    w = list(_W)
    a, b = term_at(_FRACTIONAL, 3)
    w[3] = a / w[2] - b
    with pytest.raises(TransformDoesNotExist) as exc:
        bauer_muir(_FRACTIONAL, w[:5], 4)
    assert exc.value.index == 3


def _ref_euler_cf(b0, u, rho=None):
    """The Euler CF built term by term from _euler_term on values (u_0 = 1)."""
    u = [F(1)] + list(u)
    terms = [(u[1], F(1))] if len(u) > 1 else []
    for n in range(2, len(u)):
        r = 1 if rho is None else rho[n - 1]
        terms.append(_euler_term(r, u[n - 2], u[n - 1], u[n]))
    return CFSpec(b0, tuple(terms), None)


def _ref_bernoulli(K):
    if not K:
        raise ValueError("empty")
    for n in range(1, len(K)):
        if K[n] == K[n - 1]:
            raise RepeatedValue(n)
    return _ref_euler_cf(K[0], [K[n] - K[n - 1] for n in range(1, len(K))])


def _ref_euler_from_series(a):
    if not a:
        raise ValueError("empty")
    for n in range(1, len(a)):
        if a[n] == 0:
            raise ZeroTerm(n)
    return _ref_euler_cf(a[0], a[1:])


def _ref_generalized_euler(a, b):
    if not a or len(b) != len(a):
        raise ValueError("lengths")
    c = [a[n] + b[n] - b[n - 1] for n in range(1, len(a))]
    for n, cn in enumerate(c, 1):
        if cn == 0:
            raise DegenerateTerm(n)
    return _ref_euler_cf(a[0] + b[0], c)


def _ref_product_to_cf(a):
    for n, v in enumerate(a, 1):
        if v == 0:
            raise ZeroTerm(n)
        if v == 1:
            raise UnitTerm(n)
    return _ref_euler_cf(F(1), [v - 1 for v in a], [1] + a[:-1])


def _ref_generalized_product(a, b):
    if len(b) != len(a) + 1:
        raise ValueError("lengths")
    u = [a[n - 1] * b[n] - b[n - 1] for n in range(1, len(a) + 1)]
    for n, v in enumerate(u, 1):
        if a[n - 1] == 0:
            raise ZeroTerm(n)
        if v == 0:
            raise DegenerateTerm(n)
    return _ref_euler_cf(b[0], u, [1] + a[:-1])


def _assert_normal_form(out):
    """out is what the public constructor makes of its own fields, and every
    value is a reduced Fraction."""
    assert out == CFSpec(out.b0, out.prefix, out.tail)
    values = [out.b0, *itertools.chain.from_iterable(out.prefix)]
    assert all(type(v) is F and v.denominator > 0 for v in values)
    assert all(math.gcd(v.numerator, v.denominator) == 1 for v in values)


_EULER_CASES = (
    (bernoulli_from_sequence, _ref_bernoulli, lambda a, b: (a,)),
    (euler_from_series, _ref_euler_from_series, lambda a, b: (a,)),
    (generalized_euler, _ref_generalized_euler, lambda a, b: (a, b[: len(a)])),
    (product_to_cf, _ref_product_to_cf, lambda a, b: (a,)),
    (generalized_product, _ref_generalized_product, lambda a, b: (a, b[: len(a) + 1])),
)
# mixed signs, with 0, 1 and repeats common enough to reach every error
_euler_value = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-2, 3)]) | st.builds(
    F, st.integers(-12, 12), st.integers(1, 12)
)
# RepeatedValue(2); ZeroTerm(1) and ZeroTerm(2); DegenerateTerm(2) and UnitTerm(3)
_EULER_EXAMPLES = [
    {"a": [F(2), F(1, 2), F(1, 2), F(-3, 4)], "b": [F(1, 3)] * 10},
    {"a": [F(1, 2), F(0), F(3)], "b": [F(1), F(-1, 2)] * 5},
    {"a": [F(2), F(-1, 3), F(1)], "b": [F(0), F(2), F(1), F(1, 3)] + [F(1)] * 6},
]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@example(**_EULER_EXAMPLES[0])
@example(**_EULER_EXAMPLES[1])
@example(**_EULER_EXAMPLES[2])
@given(a=st.lists(_euler_value, max_size=9), b=st.lists(_euler_value, min_size=10, max_size=10))
def test_euler_constructions_match_the_value_formula(a, b):
    for run, reference, args in _EULER_CASES:
        _same_outcome(lambda: run(*args(a, b)), lambda: reference(*args(a, b)))
        try:
            out = run(*args(a, b))
        except (PolycfError, ValueError):
            continue
        _assert_normal_form(out)


def test_euler_property_examples_reach_every_error():
    raised = set()
    for case in _EULER_EXAMPLES:
        for run, _, args in _EULER_CASES:
            try:
                run(*args(case["a"], case["b"]))
            except PolycfError as exc:
                raised.add((type(exc), exc.index))
    assert raised == {(RepeatedValue, 2), (ZeroTerm, 1), (ZeroTerm, 2), (DegenerateTerm, 2), (UnitTerm, 3)}


def test_transform_outputs_are_in_normal_form():
    w = [F(1, 2)] * 6
    for preset, params in [("e", {}), ("brouncker", {}), ("ex3.3", {"A": "3"}), ("ex4.2", {"A": "-1"}),
                           ("ex2.5", {}), ("ex3.4", {"k": "2", "A": "2"})]:
        cf = build_preset(preset, params).cf
        _assert_normal_form(even_part(cf, 5))
        _assert_normal_form(odd_part(cf, 5))
        _assert_normal_form(bauer_muir(cf, w, 5).cf)
        _assert_normal_form(extension_bmoe(cf, [F(0)] + w, 5))
    for cf in (_FRACTIONAL, _ZERO_B2):
        _assert_normal_form(odd_part(cf, 1))
        _assert_normal_form(bauer_muir(cf, _W[:5], 4).cf)
        _assert_normal_form(extension_bmoe(cf, [F(0)] + _W[1:5], 3))
    _assert_normal_form(even_part(_FRACTIONAL, 3))
    a, b = [F(3), F(-1, 2), F(5, 7), F(-4, 9)], [F(1, 3), F(2), F(-1, 5), F(7, 2), F(3)]
    for run, _, args in _EULER_CASES:
        _assert_normal_form(run(*args(a, b)))
