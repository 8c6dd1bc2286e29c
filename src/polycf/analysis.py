"""Irrationality certification, denominator growth diagnostics, independent
reference constants, and limit verification reports.

The reference constants are computed from scratch in integer fixed point;
none of them go through a continued fraction, so verifying a CF against them
is a genuine cross-check.  Each series stops where its remainder falls below
the fixed-point unit or the bound stated beside it:

- pi: the Chudnovsky series (1988) summed by binary splitting, each term at
  most 2^-45 times the one before, with sqrt(10005) from ``math.isqrt``;
- zeta(k): P. Borwein's alternating series (1991) with Chebyshev weights,
  whose error after n terms is below 3 (3+sqrt 8)^-n / (1 - 2^(1-k));
- e: sum 1/j! until the term is below the unit;
- sin(pi/m)/(pi/m): its alternating Taylor series until the term is below
  the unit;
- algebraic roots: integer Newton iteration.

Values are memoised in process, keyed by the constant and the working shift.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .cf import _canonical_pairs, _first, _is_integer_tail, _iter_terms, _scaled_terms
from .errors import (
    EmptyRange,
    HypothesisViolation,
    NonIntegerTerms,
    UnsupportedConstant,
)
from .families import LimitClaim
from .poly import _floor_nth_root, _scan_bound, leading_coefficient

_GUARD_BITS = 32


@dataclass(frozen=True)
class TietzeReport:
    holds: bool
    N0: int
    method: str
    scan_limit: int


@dataclass(frozen=True)
class GrowthBound:
    kind: str
    k: int
    D: Fraction
    epsilon: Fraction
    C: mpmath.mpf
    phi: mpmath.mpf


@dataclass(frozen=True)
class VerificationReport:
    preset: str
    params: dict
    terms: int
    claimed: str
    oracle: str
    abs_err: str
    rel_err: str
    verdict: str
    method: str

    def to_json(self):
        return {
            "preset": self.preset,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "terms": self.terms,
            "claimed": self.claimed,
            "oracle": self.oracle,
            "abs_err": self.abs_err,
            "verdict": self.verdict,
            "method": self.method,
        }


def _int_term(v, n):
    if v.denominator != 1:
        raise NonIntegerTerms(n)
    return v.numerator


def _poly_eventually_nonneg(r):
    # eventual sign of a polynomial (or constant-denominator) expression
    if r.is_zero:
        return True
    return leading_coefficient(r) > 0


def tietze_check(cf, scan_limit=200):
    """Certify convergence to an irrational limit by term-size conditions.

    The conditions b_n >= |a_n|, strengthened to b_n >= |a_n| + 1 whenever
    a_{n+1} < 0, must hold from some index N0 on.  A polynomial tail admits
    an asymptotic certificate (leading-coefficient comparison past the root
    bound); the scan then locates the smallest N0.  Without a certifiable
    tail the report is holds=False with method ScanOnly.
    """
    if scan_limit < 1:
        raise ValueError("scan_limit must be positive")
    certifiable = cf.tail is not None and _is_integer_tail(cf.tail)
    if not certifiable:
        limit = 0
        for limit, (a, b) in enumerate(itertools.islice(_iter_terms(cf), scan_limit), 1):
            _int_term(a, limit)
            _int_term(b, limit)
        return TietzeReport(False, None, "ScanOnly", limit)
    tail = cf.tail
    m = len(cf.prefix)
    sign_pos = _poly_eventually_nonneg(tail.a)
    abs_a = tail.a if sign_pos else -tail.a
    q = tail.b - abs_a - (0 if sign_pos else 1)
    b_ok = tail.b - 1
    cert_ok = _poly_eventually_nonneg(q) and _poly_eventually_nonneg(b_ok)
    arg_bound = max(
        _scan_bound(tail.a, tail.start_index),
        _scan_bound(q, tail.start_index),
        _scan_bound(b_ok, tail.start_index),
    )
    n_cert = max(arg_bound - tail.start_index + m + 1, 1)
    if n_cert > 200000:
        # declining to certify is sound; scanning this far is not useful
        return TietzeReport(False, None, "ScanOnly", scan_limit)
    eff = max(scan_limit, n_cert)
    terms = [
        (_int_term(a, n), _int_term(b, n))
        for n, (a, b) in enumerate(_iter_terms(cf, eff + 1), 1)
    ]
    if not cert_ok:
        return TietzeReport(False, None, "AsymptoticPlusScan", eff)
    last_failure = 0
    for n, ((a, b), (a_next, _)) in enumerate(zip(terms, terms[1:]), 1):
        need = abs(a) + (1 if a_next < 0 else 0)
        if b < 1 or b < need:
            last_failure = n
    return TietzeReport(True, last_failure + 1, "AsymptoticPlusScan", eff)


def _terms_at_least_one(cf):
    """The integer steps of cf, checking as each term is read that
    a_n = a/m and b_n = b/m are at least 1."""
    for n, (a, b, m) in enumerate(_scaled_terms(cf), 1):
        if m < 0:  # from a tail denominator; the step means the same negated
            a, b, m = -a, -b, -m
        if a < m or b < m:
            raise HypothesisViolation(
                "terms_at_least_one", f"term {n} has a = {Fraction(a, m)}, b = {Fraction(b, m)}"
            )
        yield a, b, m


def growth_diagnostics(cf, N, epsilon=Fraction(1), precision_bits=128):
    """Exhibit an empirical lower-bound constant for denominator growth.

    For a polynomial tail with non-constant b the bound is
    B_n >= C (|D|/(1+eps))^n (n!)^k with k = deg b and D its leading
    coefficient; otherwise B_n >= C phi^n with phi the golden ratio.
    Requires every realized term >= 1.
    """
    if N < 1:
        raise EmptyRange()
    epsilon = Fraction(epsilon) if not isinstance(epsilon, Fraction) else epsilon
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if precision_bits < 1:
        raise ValueError("precision_bits must be at least 1")
    steps = _first(_terms_at_least_one(cf), N)
    bs = [B for _, B in _canonical_pairs(cf.b0, steps)]
    factorial_kind = (
        cf.tail is not None
        and not cf.tail.b.is_zero
        and (cf.tail.b.num.degree - cf.tail.b.den.degree) >= 1
    )
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        phi = (1 + mpmath.sqrt(5)) / 2
        if factorial_kind:
            k = cf.tail.b.num.degree - cf.tail.b.den.degree
            D = leading_coefficient(cf.tail.b)
            base = abs(D) / (1 + epsilon)
            c = None
            fact = 1
            for n, B_n in enumerate(bs, 1):
                fact *= n
                ratio = B_n / (base ** n * Fraction(fact) ** k)
                if c is None or ratio < c:
                    c = ratio
            C = mpmath.mpf(c.numerator) / c.denominator
            kind, kk, DD = "FactorialPower", k, D
        else:
            c = None
            p = mpmath.mpf(1)
            for B_n in bs:
                p *= phi
                ratio = (mpmath.mpf(B_n.numerator) / B_n.denominator) / p
                if c is None or ratio < c:
                    c = ratio
            C = c
            kind, kk, DD = "GoldenRatio", 0, Fraction(1)
        with mpmath.workprec(precision_bits):
            return GrowthBound(kind, kk, DD, epsilon, +C, +phi)


# ---------------------------------------------------------------------------
# fixed-point reference constants

_memo = {}


def _chudnovsky(a, b):
    # binary splitting of the Chudnovsky terms a..b-1: (P, Q, T)
    if b == a + 1:
        if a == 0:
            return 1, 1, 13591409
        p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        q = a * a * a * 10939058860032000  # a^3 640320^3 / 24
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a % 2 else t
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky(a, m)
    p2, q2, t2 = _chudnovsky(m, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def _fp_pi(shift):
    # pi = 426880 sqrt(10005) Q / T; the series alternates and each term is
    # below 2^-45 times the one before (the ratio tends to 2^-47.1), so n
    # terms leave a relative error below 2^-45n
    _, q, t = _chudnovsky(0, shift // 45 + 2)
    return 426880 * math.isqrt(10005 << (2 * shift)) * q // t


def _fp_e(shift):
    one = 1 << shift
    total = one
    term = one
    k = 1
    while term:
        term //= k
        total += term
        k += 1
    return total


def _fp_zeta(k, shift):
    # Borwein: zeta(k) = 1/(d_n (1 - 2^(1-k))) sum_{j<n} (-1)^j (d_n - d_j)/(j+1)^k
    # with d_j = sum_{i<=j} t_i, t_i = n (n+i-1)! 4^i / ((n-i)! (2i)!), up to an
    # error below 3 (3+sqrt 8)^-n / (1 - 2^(1-k)); n makes that <= 2^-(shift+4)
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


def _fp_root(p, q, r, s, shift):
    if p <= 0 or q <= 0 or s < 1:
        raise UnsupportedConstant(f"Root({p},{q},{r},{s})")
    if r < 0:
        p, q, r = q, p, -r
    radicand = p ** r * (1 << (s * shift)) // q ** r
    return _floor_nth_root(radicand, s)


def _fp_sine_product(m, shift):
    if m < 1:
        raise UnsupportedConstant(f"SineProduct({m})")
    pi = _fp_pi(shift)
    x = pi // m
    x2 = (x * x) >> shift
    term = x
    total = x
    j = 1
    while term:
        term = (term * x2) >> shift
        term //= (2 * j) * (2 * j + 1)
        total += -term if j % 2 else term
        j += 1
    return (m * total << shift) // pi


def _mantissa(constant, shift):
    name = constant.name
    params = constant.params
    if name == "PiOver4":
        return _fp_pi(shift) // 4
    if name == "E":
        return _fp_e(shift)
    if name == "BrounckerPi":
        return (4 << (2 * shift)) // _fp_pi(shift)
    if name == "Zeta":
        k = int(params["k"])
        if k < 2:
            raise UnsupportedConstant(f"Zeta({k})")
        return _fp_zeta(k, shift)
    if name == "Root":
        return _fp_root(
            int(params["p"]), int(params["q"]), int(params["r"]), int(params["s"]), shift
        )
    if name == "SineProduct":
        return _fp_sine_product(int(params["m"]), shift)
    raise UnsupportedConstant(name)


def reference_constant(constant, precision_bits):
    """High-precision value of a named constant, relative error < 2^(4-bits).

    Values are kept in an in-process memo keyed by the constant and the
    working shift.
    """
    if isinstance(constant, LimitClaim):
        if constant.kind == "exact":
            with mpmath.workprec(precision_bits):
                return mpmath.mpf(constant.value.numerator) / constant.value.denominator
        constant = constant.constant
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    shift = precision_bits + _GUARD_BITS
    key = (constant.describe(), shift)
    mant = _memo.get(key)
    if mant is None:
        mant = _memo[key] = _mantissa(constant, shift)
    with mpmath.workprec(precision_bits):
        return mpmath.mpf(mant) / (1 << shift)


def _fmt(x, precision_bits):
    dps = mpmath.libmp.prec_to_dps(precision_bits)
    return mpmath.nstr(x, dps)


def verify_limit(member, terms, precision_bits=128, tol=Fraction(1, 10 ** 10),
                 preset="", params=None):
    """Evaluate a family member and compare against its independent oracle.

    The value is cf.extrapolate's Richardson estimate (method "richardson")
    where that applies, and otherwise cf.evaluate's last approximant
    (method "plain").  Pass when the discrepancy is within tol plus the
    oracle error.  Otherwise Fail when the evaluation converged and the
    discrepancy also exceeds its error bound plus the oracle error, and
    Inconclusive when it did not converge or the bound leaves room for the
    discrepancy; an extrapolated estimate never counts as converged.  The
    evaluation itself runs at a much smaller internal tolerance so early
    stopping never hides a max-terms-limited estimate.
    """
    from .cf import evaluate, extrapolate

    tol_frac = tol if isinstance(tol, Fraction) else Fraction(str(tol))
    if tol_frac <= 0:
        raise ValueError("tol must be positive")
    inner = tol_frac / 10 ** 6
    est = extrapolate(member.cf, inner, terms, precision_bits)
    method = "richardson"
    if est is None:
        est = evaluate(member.cf, inner, terms, precision_bits)
        method = "plain"
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        oracle = reference_constant(member.limit, precision_bits)
        diff = abs(est.value - oracle)
        oracle_err = abs(oracle) * mpmath.mpf(2) ** (4 - precision_bits)
        tol_mpf = mpmath.mpf(tol_frac.numerator) / tol_frac.denominator
        bound = est.error_bound if mpmath.isfinite(est.error_bound) else mpmath.mpf(0)
        if diff <= tol_mpf + oracle_err:
            verdict = "Pass"
        elif est.converged and diff > bound + oracle_err:
            verdict = "Fail"
        else:
            verdict = "Inconclusive"
        rel = diff / abs(oracle) if oracle != 0 else mpmath.inf
    return VerificationReport(
        preset=preset,
        params=dict(params or {}),
        terms=est.terms_used,
        claimed=member.limit.describe(),
        oracle=_fmt(oracle, precision_bits),
        abs_err=_fmt(diff, precision_bits),
        rel_err=_fmt(rel, precision_bits),
        verdict=verdict,
        method=method,
    )
