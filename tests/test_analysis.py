"""Unit tests for irrationality certification, growth diagnostics, and
limit verification against the independent constant oracles."""

import json
import time
from fractions import Fraction

import mpmath
import pytest

from polycf.analysis import (
    GrowthBound,
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
    extrapolate,
    tail_class,
)
from polycf.cli import _REPRODUCE_ROWS
from polycf.errors import EmptyRange, HypothesisViolation, NonIntegerTerms, UnsupportedConstant
from polycf.families import LimitClaim, NamedConstant, build_preset

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


@pytest.mark.parametrize(
    "bits, names",
    [
        (160, sorted(ORACLE_TARGETS)),
        (1024, ["Zeta3", "Zeta11"]),
        (4096, ["PiOver4", "BrounckerPi", "SineProduct"]),
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
    assert extrapolate(member.cf, F(1, 10**12), 200) is None
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


@pytest.mark.parametrize("preset", ["e", "ex5.6", "ex3.5", "ex1.1", "ex2.2", "ex2.4", "ex2.5"])
def test_high_precision_presets_take_the_plain_path(preset):
    member = build_preset(preset)
    assert tail_class(member.cf) is None
    assert extrapolate(member.cf, F(1, 10**60), 2000, 256) is None
    report = verify_limit(member, 2000, 256, F(1, 2**216), preset=preset)
    assert report.method == "plain"
    assert report.verdict == "Pass"
