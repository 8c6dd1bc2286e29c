"""Irrationality certification, denominator growth diagnostics, independent
reference constants, and limit verification reports.

The reference constants are computed from scratch in integer fixed point
(series with explicit truncation bounds, integer Newton roots); none of them
go through a continued fraction, so verifying a CF against them is a genuine
cross-check.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
import threading
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
from .poly import _scan_bound, leading_coefficient

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

    def to_json(self):
        return {
            "preset": self.preset,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "terms": self.terms,
            "claimed": self.claimed,
            "oracle": self.oracle,
            "abs_err": self.abs_err,
            "verdict": self.verdict,
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

_B2I = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
]
_B16_ABS = Fraction(3617, 510)

_cache_lock = threading.Lock()
_memory_cache = {}
_file_cache = None


def _cache_path():
    override = os.environ.get("POLYCF_CONSTANT_CACHE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "polycf", "constants.json")


def _load_file_cache():
    global _file_cache
    if _file_cache is None:
        data = {}
        try:
            with open(_cache_path(), "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            if isinstance(raw, dict):
                data = {k: v for k, v in raw.items() if isinstance(v, str)}
        except (OSError, ValueError):
            data = {}
        _file_cache = data
    return _file_cache


def _store_file_cache():
    path = _cache_path()
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(_file_cache, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        pass


def _frac_fp(fr, shift):
    return (fr.numerator << shift) // fr.denominator


def _fp_atan_inv(x, shift):
    # arctan(1/x) by the alternating power series, truncated at zero terms
    one = 1 << shift
    total = 0
    power = x
    x2 = x * x
    j = 0
    while True:
        t = one // (power * (2 * j + 1))
        if t == 0:
            break
        total += -t if j % 2 else t
        power *= x2
        j += 1
    return total


def _fp_pi(shift):
    return 16 * _fp_atan_inv(5, shift) - 4 * _fp_atan_inv(239, shift)


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
    # partial sum to M-1 plus tail corrections; remainder below 2^-(shift+4)
    target = Fraction(1, 1 << (shift + 4))
    prod = 1
    for t in range(15):
        prod *= k + t
    M = 16
    while _B16_ABS * prod / (math.factorial(16) * Fraction(M) ** (k + 15)) >= target:
        M *= 2
    one = 1 << shift
    total = sum(one // j ** k for j in range(1, M))
    total += _frac_fp(Fraction(1, (k - 1) * M ** (k - 1)), shift)
    total += _frac_fp(Fraction(1, 2 * M ** k), shift)
    for i, b2i in enumerate(_B2I, 1):
        prod_i = 1
        for t in range(2 * i - 1):
            prod_i *= k + t
        term = b2i * prod_i / (math.factorial(2 * i) * Fraction(M) ** (k + 2 * i - 1))
        total += _frac_fp(term, shift)
    return total


def _int_nth_root(x, s):
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    guess = 1 << (x.bit_length() // s + 1)
    while True:
        nxt = ((s - 1) * guess + x // guess ** (s - 1)) // s
        if nxt >= guess:
            return guess
        guess = nxt


def _fp_root(p, q, r, s, shift):
    if p <= 0 or q <= 0 or s < 1:
        raise UnsupportedConstant(f"Root({p},{q},{r},{s})")
    if r < 0:
        p, q, r = q, p, -r
    radicand = p ** r * (1 << (s * shift)) // q ** r
    return _int_nth_root(radicand, s)


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


def _constant_key(constant, shift):
    return f"{constant.describe()}@{shift}"


def reference_constant(constant, precision_bits):
    """High-precision value of a named constant, relative error < 2^(4-bits).

    Values are cached in memory and, best effort, in a small JSON file
    (location overridable via POLYCF_CONSTANT_CACHE).
    """
    if isinstance(constant, LimitClaim):
        if constant.kind == "exact":
            with mpmath.workprec(precision_bits):
                return mpmath.mpf(constant.value.numerator) / constant.value.denominator
        constant = constant.constant
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    shift = precision_bits + _GUARD_BITS
    key = _constant_key(constant, shift)
    with _cache_lock:
        mant = _memory_cache.get(key)
        if mant is None:
            file_cache = _load_file_cache()
            raw = file_cache.get(key)
            if raw is not None:
                try:
                    mant = int(raw, 10)
                except ValueError:
                    mant = None
            if mant is not None:
                _memory_cache[key] = mant
    if mant is None:
        mant = _mantissa(constant, shift)
        with _cache_lock:
            _memory_cache[key] = mant
            _load_file_cache()[key] = str(mant)
            _store_file_cache()
    with mpmath.workprec(precision_bits):
        return mpmath.mpf(mant) / (1 << shift)


def _fmt(x, precision_bits):
    dps = mpmath.libmp.prec_to_dps(precision_bits)
    return mpmath.nstr(x, dps)


def verify_limit(member, terms, precision_bits=128, tol=Fraction(1, 10 ** 10),
                 preset="", params=None):
    """Evaluate a family member and compare against its independent oracle.

    Pass when the discrepancy is within tol plus the oracle error.  Otherwise
    Fail when the evaluation converged and the discrepancy also exceeds its
    error bound plus the oracle error, and Inconclusive when it did not
    converge or the bound leaves room for the discrepancy.  The evaluation
    itself runs at a much smaller internal tolerance so early stopping never
    hides a max-terms-limited estimate.
    """
    from .cf import evaluate

    tol_frac = tol if isinstance(tol, Fraction) else Fraction(str(tol))
    if tol_frac <= 0:
        raise ValueError("tol must be positive")
    inner = tol_frac / 10 ** 6
    est = evaluate(member.cf, inner, terms, precision_bits)
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
    )
