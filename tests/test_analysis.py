"""Unit tests for irrationality certification, growth diagnostics, and
limit verification against the independent constant oracles."""

import hashlib
import itertools
import json
import math
import sys
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycf import analysis
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
    _limit,
    _recurrence,
    _scaled_terms,
    approximants,
    convergents,
    evaluate,
    tail_class,
    term_at,
)
from polycf.cli import _REPRODUCE_ROWS
from polycf.dyadic import round_to
from polycf.errors import EmptyRange, HypothesisViolation, NonIntegerTerms, UnsupportedConstant
from polycf.families import LimitClaim, NamedConstant, build_preset, family_binomial
from polycf.poly import _floor_nth_root, leading_coefficient

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
# benchmark, as the full-width Newton root and full-angle sine series gave
# them; the sine oracle's later methods (angle doublings, then a cosine
# series by rectangular splitting) keep them
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


# sha256 of "man exp" lines, the mantissa in hex, of reference_constant at 64,
# 160, 1024, 4096 and 16384 bits for SineProduct(m), as the sine series with
# r angle doublings gave them; the rectangular cosine series keeps them
_SINE_PINS = {
    2: "15eda00609ce92f760fd1f73210856089bba38223534c2e642447cafb6137910",
    3: "ca7a49f70c51f97ad7243b814d43692fb845efc89c0e4c9f581fa819bb56a585",
    4: "5f4e2ff9604a8333fe708cccdebf04a1a73429e07673bc3714d62b2c049c280f",
    5: "b27b3e4a52c102dccc30b1bf6b7b1322d635a4ba625e8bd354fa9bb7c533a452",
    7: "1993c3491f2cdae5cf67f60bd5ee74dfdc5b38e178469d7bc2e86701616c791f",
    12: "0a9596d185c53dd37f55ac3e9f7f22ad642d26b674562aad92e5d93c2743e558",
    40: "b2de5f82e425d19cb8a665b46e41f00d18c63f7dbe23c822b276e16636c85b79",
    1000: "02cf5685e28f56340fdd26c9e02416d5cf1ea3c06e2b5fa06f38a0ab05c56203",
    1000000: "f6731001ab28e5f4cd5d135171e476423a344498c6b899f6a85dc736dd0da628",
}


@pytest.mark.parametrize("m", sorted(_SINE_PINS))
def test_sine_product_values_are_pinned(m):
    constant = NamedConstant("SineProduct", {"m": m})
    text = "".join("%x %d\n" % reference_constant(constant, bits).man_exp
                   for bits in (64, 160, 1024, 4096, 16384))
    assert hashlib.sha256(text.encode()).hexdigest() == _SINE_PINS[m]


def test_reference_constant_precision_consistency():
    # the higher-precision value must round to the lower-precision one
    for constant in (
        NamedConstant("E"),
        NamedConstant("Zeta", {"k": 2}),
        NamedConstant("Zeta", {"k": 3}),
        NamedConstant("PiOver4"),
        NamedConstant("SineProduct", {"m": 3}),
        NamedConstant("SineProduct", {"m": 40}),
        ORACLE_TARGETS["Root"][0],
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
    for name, params in (("SineProduct", {"m": 0}), ("SineProduct", {"m": -3}),
                         ("Zeta", {"k": 1}), ("Zeta", {"k": -2})):
        with pytest.raises(UnsupportedConstant) as exc:
            reference_constant(NamedConstant(name, params), 128)
        assert exc.value.name == f"{name}({list(params.values())[0]})"


def test_root_oracle_reads_a_negative_power_as_the_reciprocal():
    # (4/1)^(-1/2) = (1/4)^(1/2); the binomial family claims such roots for
    # a negative alpha, (1 + x)^alpha
    half = NamedConstant("Root", {"p": 1, "q": 4, "r": 1, "s": 2})
    for bits in (64, 128, 1024):
        assert reference_constant(NamedConstant("Root", {"p": 4, "q": 1, "r": -1, "s": 2}), bits) \
            == reference_constant(half, bits) == 0.5
    member = family_binomial(F(-1, 2), F(-3, 4), "n")
    assert member.limit.constant.params == {"p": 1, "q": 4, "r": -1, "s": 2}
    assert reference_constant(member.limit, 128) == 2


@pytest.mark.parametrize(
    "name, params",
    [
        ("Zeta", {"k": 2.5}),
        ("Zeta", {"k": F(5, 2)}),
        ("Zeta", {"k": "2.5"}),
        ("Zeta", {}),
        ("SineProduct", {"m": 3.9}),
        ("SineProduct", {"m": 3.0}),
        ("SineProduct", {"n": 3}),
        ("Root", {"p": 12.5, "q": 7, "r": 1, "s": 5}),
        ("Root", {"p": 12, "q": 7, "r": 1}),
    ],
)
def test_reference_constant_rejects_non_integer_parameters(name, params):
    # a parameter is read as an exact integer or not at all: truncating 2.5
    # to 2 would verify a claim against the wrong constant
    constant = NamedConstant(name, params)
    with pytest.raises(UnsupportedConstant) as exc:
        reference_constant(constant, 64)
    assert exc.value.name == constant.describe()


def test_reference_constant_reads_exact_integer_parameters():
    # an integral Fraction or an integer string is the same integer
    for name, params, same in [
        ("Zeta", {"k": F(6, 2)}, {"k": 3}),
        ("Zeta", {"k": "3"}, {"k": 3}),
        ("SineProduct", {"m": "7"}, {"m": 7}),
        ("Root", {"p": F(12), "q": "7", "r": 1, "s": F(10, 2)}, {"p": 12, "q": 7, "r": 1, "s": 5}),
    ]:
        assert (reference_constant(NamedConstant(name, params), 128)
                == reference_constant(NamedConstant(name, same), 128))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(2, 60) | st.floats(math.log10(2), 12).map(lambda t: round(10 ** t)),
    bits=st.integers(64, 8192),
)
def test_sine_product_oracle_against_mpmath(m, bits):
    # m sin(pi/m) / pi within the documented relative error 2^(4 - bits), for
    # m near 2 and log-uniform up to 10^12
    got = reference_constant(NamedConstant("SineProduct", {"m": m}), bits)
    with mpmath.workprec(bits + 40):
        want = m * mpmath.sin(mpmath.pi / m) / mpmath.pi
        assert abs(mpmath.mpf(got) - want) / want < mpmath.mpf(2) ** (4 - bits)


def test_sine_product_oracle_extremes():
    # m = 1 is sin pi, exactly zero; m = 10^30 is 1 - pi^2 / (6 m^2) + ...
    for bits in (64, 1024, 4096):
        assert reference_constant(NamedConstant("SineProduct", {"m": 1}), bits) == 0
    m = 10**30
    for bits in (256, 4096):
        got = reference_constant(NamedConstant("SineProduct", {"m": m}), bits)
        with mpmath.workprec(bits + 40):
            want = m * mpmath.sin(mpmath.pi / m) / mpmath.pi
            assert abs(mpmath.mpf(got) - want) / want < mpmath.mpf(2) ** (4 - bits)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    bits=st.integers(64, 8192),
    p=st.integers(1, 10**12),
    q=st.integers(1, 10**12),
    r=st.integers(-9, 9),
    s=st.integers(1, 12),
)
@example(bits=64, p=1, q=10**12, r=9, s=1)
@example(bits=8192, p=10**12, q=1, r=9, s=1)
def test_split_and_newton_oracles_against_mpmath(bits, p, q, r, s):
    # e and zeta(3) by binary splitting and (p/q)^(r/s) by Newton's iteration,
    # within the documented relative error 2^(4 - bits), for roots far from 1
    # too: 10^-108 keeps its bits as 1.5 does
    root = NamedConstant("Root", {"p": p, "q": q, "r": r, "s": s})
    for constant, target in [
        (NamedConstant("E"), lambda: mpmath.e),
        (NamedConstant("Zeta", {"k": 3}), lambda: mpmath.zeta(3)),
        (root, lambda: (mpmath.mpf(p) / q) ** (mpmath.mpf(r) / s)),
    ]:
        got = reference_constant(constant, bits)
        with mpmath.workprec(bits + 40):
            want = target()
            assert abs(mpmath.mpf(got) - want) / want < mpmath.mpf(2) ** (4 - bits), constant


def test_zeta_of_a_huge_k_is_one_without_the_series():
    # zeta(k) - 1 < 2^(1-k) is below the unit, so no series runs: Borwein's
    # spends its time on (j + 1)^k, half a second for k = 10^5 at 128 bits
    start = time.perf_counter()
    for bits in (128, 4096):
        assert reference_constant(NamedConstant("Zeta", {"k": 10**9}), bits) == 1
    assert time.perf_counter() - start < 1


# The loops the splitting and Newton oracles replaced, kept verbatim as
# references: Borwein's series at k = 3, the floor-division sum of 1/j! and
# the exact floor root of the (s shift)-bit radicand.
def _borwein_zeta(k, shift):
    n = math.ceil((shift + 4 + math.log2(3 / (1 - 2.0 ** (1 - k)))) / math.log2(3 + math.sqrt(8)))
    d = [1]
    t = 1
    for i in range(1, n + 1):
        t = t * 4 * (n + i - 1) * (n - i + 1) // ((2 * i) * (2 * i - 1))
        d.append(d[-1] + t)
    d_n = d[n]
    total = 0
    for j in range(n):
        term = ((d_n - d[j]) << shift) // (j + 1) ** k
        total += -term if j % 2 else term
    return (total << (k - 1)) // (d_n * ((1 << (k - 1)) - 1))


def _floor_division_e(shift):
    total = term = 1 << shift
    k = 1
    while term:
        term //= k
        total += term
        k += 1
    return total


def _full_width_root(p, q, r, s, shift):
    return _floor_nth_root(p**r * (1 << (s * shift)) // q**r, s)


def test_split_and_newton_oracles_round_as_the_loops_they_replaced():
    # rounded to bits from bits + 32, the new oracles give the old values at
    # every width from 64 to 1024 bits and every 17th up to 4096
    root = NamedConstant("Root", {"p": 12, "q": 7, "r": 1, "s": 5})
    for bits in [*range(64, 1025), *range(1025, 4097, 17)]:
        shift = bits + 32
        for constant, old in [
            (NamedConstant("Zeta", {"k": 3}), _borwein_zeta(3, shift)),
            (NamedConstant("E"), _floor_division_e(shift)),
            (root, _full_width_root(12, 7, 1, 5, shift)),
        ]:
            mant, new_shift = analysis._oracle(constant, bits)
            assert round_to(mant, -new_shift, bits) == round_to(old, -shift, bits), (constant, bits)


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
    with pytest.raises(TypeError, match=r"^scan_limit must be an integer, got 2\.5$"):
        tietze_check(E_CF, 2.5)
    with pytest.raises(ValueError, match=f"^scan_limit must be at most {sys.maxsize}$"):
        tietze_check(E_CF, sys.maxsize + 1)


def test_tietze_certificate_scan_streams_its_terms():
    # the scan holds two terms at a time, not the eff + 1 it reads
    peaks = []
    for scan_limit in (1000, 100000):
        tracemalloc.start()
        try:
            assert tietze_check(E_CF, scan_limit) == TietzeReport(
                True, 1, "AsymptoticPlusScan", scan_limit)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


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


# sha256 of "N eps kind k D epsilon C phi" lines, C and phi as hex mantissa
# and exponent, of growth_diagnostics(preset, N, eps) for N = 1, 2, 200, 2000
# and eps = 1, 1/10, as the exact search over every index gave them
_GROWTH_PINS = {
    "brouncker": "b9d691834c3ea05fde480eea39e0dfd4c4e647d1b95b217703050ea1aac2b634",
    "e": "46c22f50a68c4502bd51c9d8e71a071b96e6ea38a5751db6a556c56e0d63fb97",
    "ex2.2": "156d582579f8ba1c09edcffca263498cd876c18363db00a17e51d03f428bd622",
    "ex2.4": "7209679f2fa4b180db4762500edfd3f18beb12b8bd5472d7109e6c0f954dbaf1",
    "ex2.5": "fc767d1b920637a9a71afa24b773d6ca5416780e34fcd73823fac65fe5362087",
}


@pytest.mark.parametrize("preset", sorted(_GROWTH_PINS))
def test_growth_bounds_are_pinned(preset):
    cf = build_preset(preset, {}).cf
    text = ""
    for N in (1, 2, 200, 2000):
        for eps in (F(1), F(1, 10)):
            g = growth_diagnostics(cf, N, eps)
            text += "%d %s %s %d %s %s %x %d %x %d\n" % (
                N, eps, g.kind, g.k, g.D, g.epsilon, *g.C.man_exp, *g.phi.man_exp)
    assert hashlib.sha256(text.encode()).hexdigest() == _GROWTH_PINS[preset]


def _tied_cf(k, prefix, scale, digits, sign):
    """(cf, j): a CF whose least growth ratios sit at indices j - 1 and j,
    equal for sign 0 and about 10^-digits apart (relative) for sign +-1.

    The ratios are those of growth_diagnostics with eps = 1.  k >= 1: after
    the prefix terms (at most 4 each, so every ratio B_n / (base^n (n!)^k)
    falls, as base = scale / 2 >= 16), term j is chosen so that
    ratio_j = ratio_{j-1} (1 + sign 10^-digits), and the tail
    b(n) = scale n^k then makes every later ratio rise.  k = 0: b_1 = scale
    and a_2 = scale / phi, rounded at 10^-digits, put B_2 / phi^2 next to
    B_1 / phi (j = 2); len(prefix) terms (1, 1) keep the following ratios
    close to them, and the tail b = 3 makes them rise.
    """
    if k == 0:
        unit = 10**digits
        a2 = F(scale * (math.isqrt(5 * unit * unit) - unit) + sign, 2 * unit)
        terms = ((F(1), F(scale)), (a2, F(1))) + ((F(1), F(1)),) * len(prefix)
        return CFSpec(F(0), terms, CFTail("1", "3", len(terms) + 1)), 2
    j = len(prefix) + 1
    B_prev, B = F(0), F(1)
    for a, b in prefix:
        B, B_prev = b * B + a * B_prev, B
    target = F(scale, 2) * j**k * (1 + F(sign, 10**digits)) * B
    terms = tuple(prefix) + ((F(1), (target - B_prev) / B),)
    return CFSpec(F(0), terms, CFTail("1", f"{scale}n^{k}", j + 1)), j


_at_most_four = st.fractions(min_value=1, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(k=2, prefix=[(F(3), F(2)), (F(1), F(4, 3))], scale=40, digits=30, sign=-1, extra=1997)
@example(k=0, prefix=[(F(1), F(1))] * 5, scale=50, digits=40, sign=1, extra=1991)
@example(k=1, prefix=[(F(1), F(1))], scale=32, digits=5, sign=0, extra=3)
@given(
    k=st.integers(0, 2),
    prefix=st.lists(st.tuples(_at_most_four, _at_most_four), min_size=1, max_size=5),
    scale=st.integers(32, 64),
    digits=st.integers(1, 40),
    sign=st.sampled_from([-1, 0, 1]),
    extra=st.integers(0, 40),
)
def test_screened_growth_matches_the_direct_formula_at_ties(k, prefix, scale, digits, sign, extra):
    cf, j = _tied_cf(k, prefix, scale, digits, sign)
    N = len(cf.prefix) + extra
    survivors, screen = [], analysis._least_candidates

    def spy(*args):
        survivors.append(screen(*args))
        return survivors[-1]

    with mock.patch.object(analysis, "_least_candidates", spy):
        g = growth_diagnostics(cf, N, epsilon=F(1))
    assert g.C._mpf_ == _reference_growth_constant(cf, N, F(1))
    if digits >= 20:  # the near tie is far inside the screen's margin
        assert {j - 1, j} <= set(survivors[0])


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
    with pytest.raises(TypeError, match=r"^precision_bits must be an integer, got 100\.5$"):
        growth_diagnostics(E_CF, 5, 1, 100.5)
    # a_1 = -1/-2 = 1/2 (a negative denominator) fails before the pole at n = 3
    with pytest.raises(HypothesisViolation, match="term 1 has a = 1/2"):
        growth_diagnostics(CFSpec(b0=F(1), tail=("n/(3-n)", "2")), 10)
    # a_n = (2n-40)/(n-30) >= 1 for n <= 10, over a negative denominator
    assert growth_diagnostics(CFSpec(b0=F(1), tail=("(2n-40)/(n-30)", "2")), 10).kind == "GoldenRatio"


def test_verify_limit_pass():
    member = build_preset("ex1.1")
    report = verify_limit(member, 80, 128, F(1, 10**8), preset="ex1.1", params={})
    assert report.verdict == "Pass"


@pytest.mark.parametrize("preset", ["e", "ex1.1"])
def test_verify_limit_verdicts_compare_exactly(monkeypatch, preset):
    # the verdict compares d = |estimate - oracle| with tol, the last gap and
    # the oracle bound e exactly: edge cases on both sides of each boundary,
    # for a named constant (e) and an exact claim (ex1.1) at 64 to 4096
    # bits; _limit gives the last gap as an integer pair, here not reduced
    import polycf.analysis as analysis

    member = build_preset(preset)
    tol = F(1, 10**10)
    for bits in (64, 128, 1024, 4096):
        if member.limit.kind == "named":
            mant, shift = analysis._oracle(member.limit.constant, bits)
            ref, e = F(mant, 1 << shift), F(mant, 1 << (shift + bits - 4))
        else:
            ref, e = member.limit.value, F(0)
        tiny = F(1, 2 ** (2 * bits + 300))
        cases = [  # (estimate, last gap, converged, verdict)
            (ref + tol + e, None, False, "Pass"),
            (ref - tol - e, tol, True, "Pass"),
            (ref + tol + e + tiny, None, False, "Inconclusive"),
            (ref - tol - e - tiny, tol, True, "Fail"),
            (ref + 2 * tol + e, 2 * tol, True, "Inconclusive"),
            (ref + 2 * tol + e + tiny, 2 * tol, True, "Fail"),
            (ref + tol + e + tiny, F(0), True, "Fail"),
            (ref - 3 * tol - e, 3 * tol + tiny, True, "Inconclusive"),
        ]
        for value, gap, converged, verdict in cases:
            pair = None if gap is None else (3 * gap.numerator, 3 * gap.denominator)
            monkeypatch.setattr(analysis, "_limit",
                                lambda *args: (value, pair, 7, converged, "plain"))
            report = verify_limit(member, 64, bits, tol)
            assert (report.verdict, report.terms) == (verdict, 7), (bits, value - ref, gap)


def _direct_limit(cf, tol, max_terms, bits):
    """_limit's plain rule on the float kernel, every gap formed directly
    from the pairs as products: (value, gap pair, terms_used, converged)."""
    budget = bits + 32 + max_terms.bit_length()
    kernel = _recurrence(cf.b0, itertools.islice(_scaled_terms(cf), max_terms), budget)
    A_last, B_last = cf.b0.numerator, cf.b0.denominator
    gap, small_prev, n = None, False, 0
    for n, (A, B, *_) in enumerate(kernel, 1):
        if B:
            gap = abs(A * B_last - A_last * B), abs(B * B_last)
            A_last, B_last = A, B
            small = gap[0] * tol.denominator < tol.numerator * gap[1]
            if small and small_prev:
                return F(A_last, B_last), gap, n, True
            small_prev = small
        else:
            small_prev = False
    return F(A_last, B_last), gap, n, False


@pytest.mark.parametrize("bits", [1024, 4096])
@pytest.mark.parametrize("preset", ["e", "ex5.6", "ex3.5", "ex1.1", "ex2.2", "ex2.4", "ex2.5"])
def test_limit_parts_equal_a_direct_product_reference(preset, bits):
    # the high-precision verifications: the kernel's gap numerators are
    # approximate past its first shift, and every part must still equal the
    # reference's, the last gap as the same unreduced pair
    import polycf.cf as cf_module

    cf = build_preset(preset).cf
    tol = F(1, 2 ** (bits - 40)) / 10**6
    assert cf_module._limit(cf, tol, 2000, bits, True) == (
        *_direct_limit(cf, tol, 2000, bits), "plain")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["e", "ex1.1", "ex3.3", "ex3.5"]), st.sampled_from([64, 128, 192, 1024]),
       st.randoms(use_true_random=False))
def test_verify_limit_prints_what_mpmath_gives(preset, bits, rng):
    # oracle and abs_err are the estimate and the oracle rounded to bits and
    # their distance at bits + 32, all in mpmath; half the estimates lie far
    # from the oracle, where that distance has more than bits + 32 bits
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
    dps = mpmath.libmp.prec_to_dps(bits)
    assert (report.oracle, report.abs_err) == tuple(mpmath.nstr(x, dps) for x in (oracle, diff))


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
    assert _limit(member.cf, F(1, 10**12), 200, 128, True)[4] == "plain"
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


def test_a_tail_with_a_zero_function_has_no_class():
    assert tail_class(CFSpec(b0=F(1), tail=("0", "n"))) is None
    # b_n = 0: the approximants alternate between 1 and undefined
    cf = CFSpec(b0=F(1), tail=("1", "0"))
    assert tail_class(cf) is None
    assert _limit(cf, F(1, 10**6), 60, 128, True)[4] == "plain"


def test_vanishing_parity_gaps_turn_richardson_down():
    # a first numerator of 10^-80 puts every approximant of a positive-class
    # tail below the fixed-point unit at 64 bits: the gaps read zero, no
    # ratio is defined, and the plain rule reads on to max_terms
    tail = build_preset("brouncker").cf.tail
    cf = CFSpec(b0=F(0), prefix=((F(1, 10**80), F(1)),), tail=tail)
    assert tail_class(cf) == "positive"
    _, _, n, converged, method = _limit(cf, F(1, 10**100), 800, 64, True)
    assert (method, n, converged) == ("plain", 800, False)


def test_settled_ratios_read_on_until_the_estimates_agree():
    # Brouncker's ratios settle at the third checkpoint (200): with tol 1e-3
    # the estimates already agree there; with tol 1e-40 they do not, and the
    # run goes on to the next checkpoint (400), where they do
    cf = build_preset("brouncker").cf
    for tol, terms in ((F(1, 10**3), 200), (F(1, 10**40), 400)):
        _, _, n, converged, method = _limit(cf, tol, 800, 128, True)
        assert (method, n, converged) == ("richardson", terms, False)


def test_turned_down_entry13_reads_on_to_the_last_approximant():
    # turned down at the checkpoint 200, the plain rule reads on from there
    # on the same kernel run to the budget's last term
    member = build_preset("entry13")
    value, _, n, converged, method = _limit(member.cf, F(1, 10**12), 400, 128, True)
    assert (method, n, converged) == ("plain", 400, False)
    last = convergents(member.cf, 400)[-1].value
    want = mpmath.libmp.from_rational(last.numerator, last.denominator, 128, "n")
    assert mpmath.libmp.from_rational(value.numerator, value.denominator, 128, "n") == want


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
    value, _, n, converged, method = _limit(cf, F(1, 10**20), terms, bits, True)
    assert method == "richardson"
    assert not converged
    # Lagrange extrapolation to x = 0 through (1/n_i, A_n_i/B_n_i), one parity
    m = min(_RICHARDSON_ORDER, n // 4)
    nodes = [n - 2 * i for i in range(m + 1)]
    values = approximants(cf, n)
    want = F(0)
    for x in nodes:
        w = F(1)
        for y in nodes:
            if y != x:
                w *= F(1, y) / (F(1, y) - F(1, x))
        want += w * values[x]
    assert abs(value - want) <= abs(want) / 2**bits


@pytest.mark.parametrize(
    "tol, max_terms, bits",
    [(F(0), 400, 128), (F(-1, 10), 400, 128), (F(1, 10**6), 1, 128), (F(1, 10**6), 400, 0),
     (F(1, 10**6), 400, -3)],
    ids=["tol-zero", "tol-negative", "max-terms-1", "bits-zero", "bits-negative"],
)
def test_extrapolate_rejects_what_evaluate_rejects(tol, max_terms, bits):
    # Brouncker's tail is "positive", so without the check the run goes ahead
    cf = build_preset("brouncker").cf
    for limit in (evaluate, lambda *args: _limit(*args, True)):
        with pytest.raises(ValueError):
            limit(cf, tol, max_terms, bits)


@pytest.mark.parametrize("preset", ["e", "ex5.6", "ex3.5", "ex1.1", "ex2.2", "ex2.4", "ex2.5"])
def test_high_precision_presets_take_the_plain_path(preset):
    member = build_preset(preset)
    assert tail_class(member.cf) is None
    assert _limit(member.cf, F(1, 10**60), 2000, 256, True)[4] == "plain"
    report = verify_limit(member, 2000, 256, F(1, 2**216), preset=preset)
    assert report.method == "plain"
    assert report.verdict == "Pass"
