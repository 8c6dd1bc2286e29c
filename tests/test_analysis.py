"""Unit tests for irrationality certification, growth diagnostics, and
limit verification against the independent constant oracles."""

import hashlib
import json
import math
import time
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycf.analysis import (
    GrowthBound,
    TietzeReport,
    growth_diagnostics,
    reference_constant,
    tietze_check,
    verify_limit,
)
from polycf.cf import (
    _RICHARDSON_ORDER,
    CFSpec,
    CFTail,
    approximants,
    convergents,
    evaluate,
    extrapolate,
    tail_class,
    term_at,
)
from polycf.cli import _REPRODUCE_ROWS
from polycf.errors import EmptyRange, HypothesisViolation, NonIntegerTerms, UnsupportedConstant
from polycf.families import LimitClaim, NamedConstant, build_preset
from polycf.poly import leading_coefficient

F = Fraction

E_CF = CFSpec(b0=F(2), tail=("n+1", "n+1"))
ONES_CF = CFSpec(b0=F(1), tail=("1", "1"))


ORACLE_TARGETS = {
    "PiOver4": (NamedConstant("PiOver4"), lambda: mpmath.pi / 4),
    "E": (NamedConstant("E"), lambda: mpmath.e),
    "BrounckerPi": (NamedConstant("BrounckerPi"), lambda: 4 / mpmath.pi),
    "Zeta2": (NamedConstant("Zeta", {"k": 2}), lambda: mpmath.zeta(2)),
    "Zeta3": (NamedConstant("Zeta", {"k": 3}), lambda: mpmath.zeta(3)),
    "Zeta11": (NamedConstant("Zeta", {"k": 11}), lambda: mpmath.zeta(11)),
    "Root": (
        NamedConstant("Root", {"p": 12, "q": 7, "r": 1, "s": 5}),
        lambda: (mpmath.mpf(12) / 7) ** (mpmath.mpf(1) / 5),
    ),
    "SineProduct": (
        NamedConstant("SineProduct", {"m": 3}),
        lambda: mpmath.sin(mpmath.pi / 3) / (mpmath.pi / 3),
    ),
}
# the sine oracle at a right angle (m = 2), near one and far from one
_SINES = {f"SineProduct{m}": m for m in (2, 4, 5, 7, 12, 40)}
ORACLE_TARGETS.update(
    (name, (NamedConstant("SineProduct", {"m": m}),
            lambda m=m: mpmath.sin(mpmath.pi / m) / (mpmath.pi / m)))
    for name, m in _SINES.items()
)


@pytest.mark.parametrize(
    "bits, names",
    [
        (160, sorted(ORACLE_TARGETS)),
        (1024, ["Zeta3", "Zeta11", "Root", *_SINES]),
        (4096, ["PiOver4", "BrounckerPi", "SineProduct", "Root", *_SINES]),
    ],
    ids=["160", "1024", "4096"],
)
def test_oracles_against_mpmath(bits, names):
    # cross-check the fixed-point oracles against an unrelated implementation,
    # within the documented relative error 2^(4 - bits)
    for name in names:
        constant, target = ORACLE_TARGETS[name]
        got = reference_constant(constant, bits)
        with mpmath.workprec(bits + 40):
            want = target()
            assert abs(mpmath.mpf(got) - want) / abs(want) < mpmath.mpf(2) ** (4 - bits), name


# sha256 of "man exp" lines of reference_constant(c, bits).man_exp at 256,
# 1024 and 4096 bits, for the oracle constants of the high-precision
# benchmark, as the full-width Newton root and full-angle sine series gave them
_ORACLE_PINS = {
    "PiOver4": "92677364f363453f13aa6c8d7fab85189420c915e307711208a527f6a315568e",
    "E": "b94d47ce484e036bb5ec496fcfb20cdb20dfbd83069bbbba81f0a04dee20799c",
    "BrounckerPi": "160e209d46343e5b211bde7f2be465547a3796fd5bbc361bcd9e934f04aa30a8",
    "Root(p=12,q=7,r=1,s=5)": "cde524b6706d200d54c0896c595b2524304654e3bc3cec9ed2c1617218328708",
    "SineProduct(m=3)": "518be4e72e1586b8bece4b8d41edfdf9eaeaf5a06f143378534fad109507e10b",
    "Zeta(k=3)": "6505da3faf536092d6e49ab499f497d78697526c22863746d8701888a3682180",
}


def test_oracle_values_are_pinned():
    for name in ("PiOver4", "E", "BrounckerPi", "Root", "SineProduct", "Zeta3"):
        constant = ORACLE_TARGETS[name][0]
        text = "".join("%d %d\n" % reference_constant(constant, bits).man_exp
                       for bits in (256, 1024, 4096))
        assert hashlib.sha256(text.encode()).hexdigest() == _ORACLE_PINS[constant.describe()]


def test_reference_constant_precision_consistency():
    # the higher-precision value must round to the lower-precision one
    for constant in (
        NamedConstant("E"),
        NamedConstant("Zeta", {"k": 2}),
        NamedConstant("PiOver4"),
    ):
        hi = reference_constant(constant, 128)
        lo = reference_constant(constant, 64)
        with mpmath.workprec(64):
            assert +hi == lo


def test_reference_constant_accepts_limit_claim():
    v = reference_constant(LimitClaim.exact(F(7, 3)), 96)
    with mpmath.workprec(96):
        assert v == mpmath.mpf(7) / 3
    with mpmath.workprec(96):
        w = reference_constant(LimitClaim.named("E"), 96)
        assert abs(w - mpmath.e) < 1e-25


def test_reference_constant_validation():
    with pytest.raises(ValueError):
        reference_constant(NamedConstant("E"), 32)
    with pytest.raises(UnsupportedConstant):
        reference_constant(NamedConstant("Mystery"), 128)
    with pytest.raises(UnsupportedConstant):
        reference_constant(NamedConstant("Root", {"p": -1, "q": 2, "r": 1, "s": 2}), 128)


def test_tietze_e_cf_certified():
    report = tietze_check(E_CF)
    assert report.holds
    assert report.N0 == 1
    assert report.method == "AsymptoticPlusScan"


def test_tietze_monotone_in_scan_limit():
    r1 = tietze_check(E_CF, 50)
    r2 = tietze_check(E_CF, 500)
    assert r1.holds and r2.holds
    assert r1.N0 == r2.N0 == 1


def test_tietze_brouncker_not_certifiable():
    cf = build_preset("brouncker").cf
    report = tietze_check(cf)
    assert not report.holds
    assert report.N0 is None


def test_tietze_eventual_threshold():
    # b_n = n - 5 dips below |a_n| = 1 for small n; the certificate must
    # report the first index from which the bound holds onward
    cf = CFSpec(b0=F(0), tail=("1", "n-5"))
    report = tietze_check(cf)
    assert report.holds
    assert report.N0 == 6
    assert all(n - 5 >= 1 for n in range(report.N0, report.N0 + 50))
    assert 5 - 5 < 1  # index right before N0 fails the bound


def test_tietze_rejects_non_integer_terms():
    cf = CFSpec(b0=F(0), tail=("1", "n/2"))
    with pytest.raises(NonIntegerTerms):
        tietze_check(cf)


# a_2 = 2 gives the step a = 6 with m = 3, integral, while b_2 = 1/3 is not
_TIETZE_M3_PREFIX = ((F(1), F(2)), (F(2), F(1, 3)))


@pytest.mark.parametrize("tail", [None, CFTail("1", "n")], ids=["ScanOnly", "AsymptoticPlusScan"])
def test_tietze_non_integer_prefix_term_with_integral_numerator(tail):
    cf = CFSpec(F(0), _TIETZE_M3_PREFIX, tail)
    with pytest.raises(NonIntegerTerms) as exc:
        tietze_check(cf, 5)
    assert exc.value.index == 2
    if tail is None:
        assert tietze_check(cf, 1).scan_limit == 1


@pytest.mark.parametrize(
    "cf, index",
    [
        # steps (3, 0, -3) and (2, 3, -2): b_2 = -3/2 with a_2 = -1 integral
        (CFSpec(F(0), (), CFTail("-1", "(n^2-1)/(n-4)")), 2),
        (CFSpec(F(0), ((F(4), F(2)),), CFTail("-1", "(n^2-1)/(n-4)")), 3),
        # steps (3, -3, -3) and (3, -4, -2): a_2 = -3/2 with b_2 = 2 integral
        (CFSpec(F(0), (), CFTail("3/(n-4)", "n")), 2),
    ],
)
def test_tietze_rational_tail_with_negative_step_scale(cf, index):
    assert tietze_check(cf, index - 1).method == "ScanOnly"
    with pytest.raises(NonIntegerTerms) as exc:
        tietze_check(cf, 200)
    assert exc.value.index == index


def test_tietze_far_certificate_still_reads_the_terms():
    # a(n) = n - 10^6 puts the certificate index past 200,000, so tietze_check
    # declines to certify; its ScanOnly report still reads the terms
    tail = CFTail("n-1000000", "n+2", 2)
    with pytest.raises(NonIntegerTerms) as exc:
        tietze_check(CFSpec(F(0), ((F(1, 2), F(3)),), tail), 50)
    assert exc.value.index == 1
    report = tietze_check(CFSpec(F(0), ((F(1), F(3)),), tail), 50)
    assert report == TietzeReport(False, None, "ScanOnly", 50)


def test_tietze_validation():
    with pytest.raises(ValueError):
        tietze_check(E_CF, 0)


def test_tietze_finite_cf_scan_only():
    cf = CFSpec(b0=F(1), prefix=((F(1), F(2)), (F(1), F(3))))
    report = tietze_check(cf, 10)
    assert not report.holds
    assert report.method == "ScanOnly"


def test_growth_e_cf_factorial():
    g = growth_diagnostics(E_CF, 50)
    assert g.kind == "FactorialPower"
    assert g.k == 1
    assert g.D == 1
    assert g.C > 0


def test_growth_all_ones_golden_ratio():
    g = growth_diagnostics(ONES_CF, 50)
    assert g.kind == "GoldenRatio"
    assert g.C > 0
    with mpmath.workprec(128):
        assert abs(g.phi - (1 + mpmath.sqrt(5)) / 2) < 1e-30


def _reference_growth_constant(cf, N, epsilon, bits=128):
    """C by the direct formulas: the least B_n / ((|D|/(1+eps))^n (n!)^k) as a
    Fraction, or the least B_n / phi^n in mpf with phi^n by repeated products."""
    A_prev, B_prev, A, B = F(1), F(0), cf.b0, F(1)
    bs = []
    for n in range(1, N + 1):
        a, b = term_at(cf, n)
        A, A_prev = b * A + a * A_prev, A
        B, B_prev = b * B + a * B_prev, B
        bs.append(B)
    with mpmath.workprec(bits + 32):
        phi = (1 + mpmath.sqrt(5)) / 2
        if cf.tail.b.num.degree > cf.tail.b.den.degree:
            k = cf.tail.b.num.degree - cf.tail.b.den.degree
            base = abs(leading_coefficient(cf.tail.b)) / (1 + epsilon)
            c = min(B_n / (base**n * F(math.factorial(n)) ** k) for n, B_n in enumerate(bs, 1))
            C = mpmath.mpf(c.numerator) / c.denominator
        else:
            C, p = None, mpmath.mpf(1)
            for B_n in bs:
                p *= phi
                ratio = (mpmath.mpf(B_n.numerator) / B_n.denominator) / p
                C = ratio if C is None or ratio < C else C
        with mpmath.workprec(bits):
            return (+C)._mpf_


@pytest.mark.parametrize(
    "cf, epsilon",
    [
        (E_CF, F(1)),
        (E_CF, F(1, 7)),
        (CFSpec(F(3, 2), ((F(5, 2), F(7, 3)),), CFTail("(n^2+1)/2", "(3n^2+n)/2", 1)), F(2, 5)),
        (CFSpec(F(1), ((F(4, 3), F(3, 2)),), CFTail("n+1", "(n+4)/(n+1)", 1)), F(1)),
        (ONES_CF, F(1)),
    ],
)
def test_growth_constant_matches_direct_formula(cf, epsilon):
    g = growth_diagnostics(cf, 120, epsilon=epsilon)
    assert g.C._mpf_ == _reference_growth_constant(cf, 120, epsilon)


def test_growth_float_epsilon_is_read_as_written():
    # 0.1 is 1/10 as written, not the nearest double 3602879701896397/2^55
    g = growth_diagnostics(E_CF, 200, epsilon=0.1)
    assert g.epsilon == F(1, 10)
    assert g == growth_diagnostics(E_CF, 200, epsilon=F(1, 10))


def test_growth_validation():
    with pytest.raises(EmptyRange):
        growth_diagnostics(E_CF, 0)
    with pytest.raises(ValueError):
        growth_diagnostics(E_CF, 10, epsilon=F(0))
    bad = CFSpec(b0=F(0), tail=("1", "n-100"))
    with pytest.raises(HypothesisViolation):
        growth_diagnostics(bad, 10)
    for bits in (0, -5):
        with pytest.raises(ValueError):
            growth_diagnostics(CFSpec(2, tail=("n+1", "n+1")), 10, precision_bits=bits)
    # a_1 = -1/-2 = 1/2 (a negative denominator) fails before the pole at n = 3
    with pytest.raises(HypothesisViolation, match="term 1 has a = 1/2"):
        growth_diagnostics(CFSpec(b0=F(1), tail=("n/(3-n)", "2")), 10)
    # a_n = (2n-40)/(n-30) >= 1 for n <= 10, over a negative denominator
    assert growth_diagnostics(CFSpec(b0=F(1), tail=("(2n-40)/(n-30)", "2")), 10).kind == "GoldenRatio"


def test_verify_limit_pass():
    member = build_preset("ex1.1")
    report = verify_limit(member, 80, 128, F(1, 10**8), preset="ex1.1", params={})
    assert report.verdict == "Pass"
    assert report.rel_err is not None


@pytest.mark.parametrize("preset", ["e", "ex1.1"])
def test_verify_limit_verdicts_compare_exactly(monkeypatch, preset):
    # the verdict compares d = |estimate - oracle| with tol, the last gap and
    # the oracle bound e exactly: edge cases on both sides of each boundary
    import polycf.analysis as analysis

    member = build_preset(preset)
    bits, tol = 64, F(1, 10**10)
    if member.limit.kind == "named":
        mant, shift = analysis._oracle(member.limit.constant, bits)
        ref, e = F(mant, 1 << shift), F(mant, 1 << (shift + bits - 4))
    else:
        ref, e = member.limit.value, F(0)
    tiny = F(1, 2**400)
    cases = [  # (estimate, last gap, converged, verdict)
        (ref + tol + e, None, False, "Pass"),
        (ref - tol - e, tol, True, "Pass"),
        (ref + tol + e + tiny, None, False, "Inconclusive"),
        (ref - tol - e - tiny, tol, True, "Fail"),
        (ref + 2 * tol + e, 2 * tol, True, "Inconclusive"),
        (ref + 2 * tol + e + tiny, 2 * tol, True, "Fail"),
        (ref + tol + e + tiny, F(0), True, "Fail"),
    ]
    for value, gap, converged, verdict in cases:
        monkeypatch.setattr(analysis, "_limit", lambda *args: (value, gap, 7, converged, "plain"))
        report = verify_limit(member, 64, bits, tol)
        assert (report.verdict, report.terms) == (verdict, 7), (value - ref, gap, converged)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["e", "ex1.1", "ex3.3", "ex3.5"]), st.sampled_from([64, 128, 192, 1024]),
       st.randoms(use_true_random=False))
def test_verify_limit_prints_what_mpmath_gives(preset, bits, rng):
    # oracle, abs_err and rel_err are the estimate and the oracle rounded to
    # bits, their distance at bits + 32 and that over |oracle|, all in mpmath;
    # half the estimates lie far from the oracle, where that distance has
    # more than bits + 32 bits
    import polycf.analysis as analysis

    k = rng.getrandbits(rng.randint(1, 400)) * rng.choice([1, -1])
    scale = rng.randint(-300, 0) if rng.random() < 0.5 else rng.randint(0, 1500)
    member = build_preset(preset)
    ref = member.limit.value if member.limit.kind == "exact" else F(
        *analysis._oracle(member.limit.constant, bits)[:1], 1 << (bits + 32))
    value = ref + F(k, 2**scale) if scale >= 0 else ref + k * 2**-scale
    with mock.patch.object(analysis, "_limit", lambda *args: (value, None, 9, False, "plain")):
        report = verify_limit(member, 64, bits, F(1, 10**10))
    with mpmath.workprec(bits + 32):
        oracle = reference_constant(member.limit, bits)
        est = mpmath.mpf(value.numerator) / value.denominator
        with mpmath.workprec(bits):
            est = +est
        diff = abs(est - oracle)
        rel = diff / abs(oracle)
    dps = mpmath.libmp.prec_to_dps(bits)
    assert (report.oracle, report.abs_err, report.rel_err) == tuple(
        mpmath.nstr(x, dps) for x in (oracle, diff, rel))


def test_verify_limit_inconclusive_when_not_converged():
    member = build_preset("entry13")
    report = verify_limit(member, 50, 128, F(1, 10**6), preset="entry13", params={})
    assert report.verdict == "Inconclusive"


def test_verify_report_json_shape():
    member = build_preset("e")
    report = verify_limit(member, 40, 128, F(1, 10**10), preset="e", params={})
    data = report.to_json()
    assert set(data) == {
        "preset",
        "params",
        "terms",
        "claimed",
        "oracle",
        "abs_err",
        "verdict",
        "method",
    }
    assert data["verdict"] == "Pass"
    assert data["method"] == "plain"
    json.dumps(data)  # serializable


def test_verify_limit_speed():
    t0 = time.time()
    member = build_preset("brouncker")
    report = verify_limit(
        member, 10000, 128, F(1, 4000), preset="brouncker", params={}
    )
    assert report.verdict == "Pass"
    assert time.time() - t0 < 10


def test_verify_limit_short_run_is_not_pass():
    # the last gap of a short run is large, but it bounds nothing: a Pass
    # needs the measured error within tol
    for preset, params, terms, err in (
        ("brouncker", {}, 10, 0.036),
        ("ex3.3", {"A": "1"}, 20, 0.038),
    ):
        member = build_preset(preset, params)
        report = verify_limit(member, terms, 128, F(1, 10**10), preset=preset, params=params)
        assert abs(float(report.abs_err) - err) < 1e-3, report.abs_err
        assert report.verdict == "Inconclusive", (preset, report.verdict)


def test_entry13_takes_the_plain_path():
    # the tail is parabolic, but the gap-doubling ratios (0.38, 0.39) drift
    # towards 1/2 instead of settling at 2^-(c+1): logarithmic convergence
    member = build_preset("entry13")
    assert tail_class(member.cf) == "parabolic"
    assert extrapolate(member.cf, F(1, 10**12), 200).method == "plain"
    report = verify_limit(member, 200, 128, F(1, 10**6), preset="entry13",
                          params={"a": "1", "b": "1", "d": "1"})
    # the reproduce-paper row as it was before extrapolation, plus its method
    assert report.to_json() == {
        "abs_err": "0.16998112660032033711387776595499186527",
        "claimed": "1",
        "oracle": "1.0",
        "params": {"a": "1", "b": "1", "d": "1"},
        "preset": "entry13",
        "terms": 200,
        "verdict": "Inconclusive",
        "method": "plain",
    }


def test_turned_down_entry13_reads_on_to_the_last_approximant():
    # turned down at the checkpoint 200, the plain rule reads on from there
    # on the same kernel run to the budget's last term
    member = build_preset("entry13")
    est = extrapolate(member.cf, F(1, 10**12), 400, 128)
    assert (est.method, est.terms_used, est.converged) == ("plain", 400, False)
    last = convergents(member.cf, 400)[-1].value
    want = mpmath.libmp.from_rational(last.numerator, last.denominator, 128, "n")
    assert est.value._mpf_ == want


@pytest.mark.parametrize(
    "preset, params, method",
    [("entry13", {}, "plain"), ("ex3.4", {"k": "2"}, "richardson"), ("ex2.2", {}, "plain")],
)
def test_verify_limit_reads_the_terms_once(monkeypatch, preset, params, method):
    # entry13 is turned down at its last checkpoint, and is not read again
    import polycf.cf

    member = build_preset(preset, params)
    scaled_terms = polycf.cf._scaled_terms
    calls = []

    def counted(cf):
        calls.append(cf)
        return scaled_terms(cf)

    monkeypatch.setattr(polycf.cf, "_scaled_terms", counted)
    report = verify_limit(member, 200, 128, F(1, 10**6))
    assert report.method == method
    assert calls == [member.cf]


def test_extrapolated_paper_rows_read_at_most_1000_terms():
    extrapolated = set()
    for preset, params, terms, tol, bits in _REPRODUCE_ROWS:
        report = verify_limit(build_preset(preset, dict(params)), terms, bits, F(tol))
        if report.method == "richardson":
            extrapolated.add(preset)
            assert report.terms <= 1000, (preset, params, report.terms)
            assert report.verdict == "Pass", (preset, params)
    assert extrapolated == {"brouncker", "ex3.3", "ex3.4", "ex4.2"}


@pytest.mark.parametrize(
    "preset, params, terms, bits",
    [
        ("ex3.4", {"k": "3", "A": "1"}, 400, 128),  # parabolic tail
        ("brouncker", {}, 10000, 128),  # approximants alternate about 4/pi
        ("ex3.4", {"k": "11", "A": "2"}, 200, 192),
    ],
)
def test_extrapolate_agrees_with_exact_convergents(preset, params, terms, bits):
    cf = build_preset(preset, params).cf
    est = extrapolate(cf, F(1, 10**20), terms, bits)
    n = est.terms_used
    assert est.method == "richardson"
    assert not est.converged
    # Lagrange extrapolation to x = 0 through (1/n_i, A_n_i/B_n_i), one parity
    m = min(_RICHARDSON_ORDER, n // 4)
    nodes = [n - 2 * i for i in range(m + 1)]
    values = approximants(cf, n).values()
    want = F(0)
    for x in nodes:
        w = F(1)
        for y in nodes:
            if y != x:
                w *= F(1, y) / (F(1, y) - F(1, x))
        want += w * values[x]
    with mpmath.workprec(bits + 32):
        exact = mpmath.mpf(want.numerator) / want.denominator
        assert abs(est.value - exact) <= abs(exact) * mpmath.mpf(2) ** -bits


@pytest.mark.parametrize(
    "tol, max_terms, bits",
    [(F(0), 400, 128), (F(-1, 10), 400, 128), (F(1, 10**6), 1, 128), (F(1, 10**6), 400, 0),
     (F(1, 10**6), 400, -3)],
    ids=["tol-zero", "tol-negative", "max-terms-1", "bits-zero", "bits-negative"],
)
def test_extrapolate_rejects_what_evaluate_rejects(tol, max_terms, bits):
    # Brouncker's tail is "positive", so without the check the run goes ahead
    cf = build_preset("brouncker").cf
    for limit in (evaluate, extrapolate):
        with pytest.raises(ValueError):
            limit(cf, tol, max_terms, bits)


@pytest.mark.parametrize("preset", ["e", "ex5.6", "ex3.5", "ex1.1", "ex2.2", "ex2.4", "ex2.5"])
def test_high_precision_presets_take_the_plain_path(preset):
    member = build_preset(preset)
    assert tail_class(member.cf) is None
    assert extrapolate(member.cf, F(1, 10**60), 2000, 256).method == "plain"
    report = verify_limit(member, 2000, 256, F(1, 2**216), preset=preset)
    assert report.method == "plain"
    assert report.verdict == "Pass"
