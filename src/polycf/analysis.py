"""Irrationality certification, denominator growth diagnostics, independent
reference constants, and limit verification reports.

The reference constants are computed from scratch in integer fixed point;
none of them go through a continued fraction, so verifying a CF against them
is a genuine cross-check.  Each series stops where its remainder falls below
the fixed-point unit or the bound stated beside it:

- pi: the Chudnovsky series (1988) summed by binary splitting, each term at
  most 2^-45 times the one before, with sqrt(10005) from ``math.isqrt``,
  once per working shift;
- zeta(k): P. Borwein's alternating series (1991) with Chebyshev weights,
  whose error after n terms is below 3 (3+sqrt 8)^-n / (1 - 2^(1-k));
- e: sum 1/j! until the term is below the unit;
- sin(pi/m)/(pi/m): Taylor terms of sin(pi/(m 2^r)), then r angle doublings;
- algebraic roots: ``math.isqrt``, or integer Newton iteration from the
  root of the radicand's top half.

Values are memoised in process, keyed by the constant and the working shift.
"""

import itertools
import math
import operator
from fractions import Fraction

from .cf import _canonical_pairs, _first, _is_integer_tail, _limit, _limit_tol, _mpf, _scaled_terms
from .dyadic import divide, round_rational, round_to, to_str
from .errors import (
    EmptyRange,
    HypothesisViolation,
    NonIntegerTerms,
    Record,
    UnsupportedConstant,
)
from .families import LimitClaim
from .poly import _floor_nth_root, _scan_bound, leading_coefficient

_GUARD_BITS = 32
# tietze_check declines to certify from a later term index: declining is
# sound, and scanning this far is not useful
_MAX_CERT_INDEX = 200000


class TietzeReport(Record):
    __slots__ = ("holds", "N0", "method", "scan_limit")

    def to_json(self):
        return {"holds": self.holds, "N0": self.N0, "method": self.method,
                "scan_limit": self.scan_limit}


class GrowthBound(Record):
    """A denominator growth bound; `C` and `phi` are mpmath mpf numbers."""

    __slots__ = ("kind", "k", "D", "epsilon", "C", "phi")


class VerificationReport(Record):
    __slots__ = ("preset", "params", "terms", "claimed", "oracle", "abs_err", "rel_err",
                 "verdict", "method")

    def to_json(self):  # every field but rel_err, with params as strings
        out = {name: getattr(self, name) for name in self.__slots__ if name != "rel_err"}
        return dict(out, params={k: str(v) for k, v in sorted(self.params.items())})


def _integer_terms(steps):
    """(a_n, b_n) = (a/m, b/m) for the integer steps (a, b, m), raising
    NonIntegerTerms(n) at the first term n that is not integral; m | a is
    a % m == 0, for a negative m from a tail denominator too."""
    for n, (a, b, m) in enumerate(steps, 1):
        if a % m or b % m:
            raise NonIntegerTerms(n)
        yield a // m, b // m


def _poly_eventually_nonneg(r):
    # eventual sign of a polynomial (or constant-denominator) expression
    return r.is_zero or leading_coefficient(r) > 0


def tietze_check(cf, scan_limit=200):
    """Certify convergence to an irrational limit by term-size conditions.

    The conditions b_n >= |a_n|, strengthened to b_n >= |a_n| + 1 whenever
    a_{n+1} < 0, must hold from some index N0 on.  A polynomial tail admits
    an asymptotic certificate (leading-coefficient comparison past the root
    bound); the scan then locates the smallest N0.  Without a certifiable
    tail, or when the certificate starts past _MAX_CERT_INDEX, the report is
    holds=False with method ScanOnly and the count of terms read, up to
    scan_limit; every path raises NonIntegerTerms at a fractional term.
    """
    if scan_limit < 1:
        raise ValueError("scan_limit must be positive")
    tail, n_cert = cf.tail, _MAX_CERT_INDEX + 1
    if tail is not None and _is_integer_tail(tail):
        sign_pos = _poly_eventually_nonneg(tail.a)
        abs_a = tail.a if sign_pos else -tail.a
        q = tail.b - abs_a - (0 if sign_pos else 1)
        b_ok = tail.b - 1
        arg_bound = max(_scan_bound(f, tail.start_index) for f in (tail.a, q, b_ok))
        n_cert = max(arg_bound - tail.start_index + len(cf.prefix) + 1, 1)
    if n_cert > _MAX_CERT_INDEX:
        limit = sum(1 for _ in _integer_terms(itertools.islice(_scaled_terms(cf), scan_limit)))
        return TietzeReport(False, None, "ScanOnly", limit)
    cert_ok = _poly_eventually_nonneg(q) and _poly_eventually_nonneg(b_ok)
    eff = max(scan_limit, n_cert)
    terms = list(_integer_terms(_first(_scaled_terms(cf), eff + 1)))
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
    Requires every realized term >= 1.  A float epsilon is read through its
    shortest repr, as cf's limit tolerances are: 0.1 is 1/10.
    """
    import mpmath

    if N < 1:
        raise EmptyRange()
    epsilon = epsilon if isinstance(epsilon, Fraction) else Fraction(str(epsilon))
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
    wide = precision_bits + _GUARD_BITS
    with mpmath.workprec(wide):
        phi = (1 + mpmath.sqrt(5)) / 2
        if factorial_kind:
            k = cf.tail.b.num.degree - cf.tail.b.den.degree
            D = leading_coefficient(cf.tail.b)
            base = abs(D) / (1 + epsilon)
            # up / down = 1 / (base^n (n!)^k); least ratio by cross-multiplication
            up, down, least = 1, 1, None
            for n, B_n in enumerate(bs, 1):
                up *= base.denominator
                down *= base.numerator * n**k
                num, den = B_n.numerator * up, B_n.denominator * down
                if least is None or num * least[1] < least[0] * den:
                    least = num, den
            C = _mpf(round_rational(Fraction(*least), wide, 0), wide)
            kind, kk, DD = "FactorialPower", k, D
        else:
            powers = itertools.accumulate(itertools.repeat(phi, len(bs)), operator.mul)
            C = min(_mpf(round_rational(B_n, wide, 0), wide) / p for B_n, p in zip(bs, powers))
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


def _pi(shift):
    # one pi per shift for PiOver4, BrounckerPi and SineProduct, under a key
    # that no constant's describe() string equals
    key = (_fp_pi, shift)
    if key not in _memo:
        _memo[key] = _fp_pi(shift)
    return _memo[key]


def _fp_e(shift):
    total = term = 1 << shift
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
    """m sin(x) / pi at x = pi/m, from y = x / 2^r: N Taylor terms of sin y
    (60 at 4096 bits, not x's 300) leave under 2N + 3 units 2^-w of error,
    cos y under 2N + 4, and each doubling maps the error vector by twice a
    rotation and adds under 2.  So sin x is within 2^r (4N + 9) units, under
    (4N + 9) 2^-(shift+17) sin x for w = shift + r + 16 + bits(m) and
    sin x >= 2/m; pi's error moves sin(x)/x by at most its relative size and
    the last division adds 2^(1-shift): all far below 2^(4-bits)."""
    if m < 1:
        raise UnsupportedConstant(f"SineProduct({m})")
    pi = _pi(shift)
    r = math.isqrt(shift) // 2
    w = shift + r + 16 + m.bit_length()
    y = (pi << (w - r - shift)) // m
    y2 = (y * y) >> w
    term = s = y
    j = 1
    while term:
        term = ((term * y2) >> w) // ((2 * j) * (2 * j + 1))
        s += -term if j % 2 else term
        j += 1
    c = math.isqrt((1 << (2 * w)) - s * s)
    for _ in range(r):
        s, c = (s * c) >> (w - 1), ((c - s) * (c + s)) >> w
    return (m * s << shift) // (pi << (w - shift))


def _mantissa(constant, shift):
    name = constant.name
    params = constant.params
    if name == "PiOver4":
        return _pi(shift) // 4
    if name == "E":
        return _fp_e(shift)
    if name == "BrounckerPi":
        return (4 << (2 * shift)) // _pi(shift)
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


def _oracle(constant, precision_bits):
    """(m, shift), m / 2^shift within 2^(4-bits) of the constant, relative."""
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    shift = precision_bits + _GUARD_BITS
    key = (constant.describe(), shift)
    mant = _memo.get(key)
    if mant is None:
        mant = _memo[key] = _mantissa(constant, shift)
    return mant, shift


def reference_constant(constant, precision_bits):
    """High-precision value of a named constant, relative error < 2^(4-bits).

    Values are kept in an in-process memo keyed by the constant and the
    working shift.
    """
    if isinstance(constant, LimitClaim):
        if constant.kind == "exact":
            return _mpf(round_rational(constant.value, precision_bits, 0), precision_bits)
        constant = constant.constant
    mant, shift = _oracle(constant, precision_bits)
    return _mpf(round_to(mant, -shift, precision_bits), precision_bits)


def verify_limit(member, terms, precision_bits=128, tol=Fraction(1, 10 ** 10),
                 preset="", params=None):
    """Evaluate a family member and compare against its independent oracle.

    The value comes from one run of cf.extrapolate's loop, which reads the
    member's terms once: its Richardson estimate where that applies (method
    "richardson"), else its plain last approximant (method "plain"), run at
    tol / 10^6 so that early stopping never hides a max-terms-limited
    estimate.  The verdict compares exact rationals: d = |estimate - oracle|
    against tol and the oracle's bound e = |m / 2^shift| 2^(4-bits) for a
    named constant m / 2^shift (e = 0 for an exact claim).  Pass: d <= tol + e,
    the estimate is within tol of the claim up to the oracle's error.  Fail:
    the evaluation converged and d > gap + e, with gap its error_bound (the
    last gap, an estimate, not a bound).  Inconclusive: otherwise, that is
    unconverged or within gap + e; an extrapolated estimate never counts as
    converged.  oracle, abs_err and rel_err print as mpmath did: the estimate
    and the oracle rounded to precision_bits, their distance at
    precision_bits + 32 bits, and that over |oracle| likewise.
    """
    tol = _limit_tol(tol, terms, precision_bits)
    claim = member.limit
    if claim.kind == "named" and precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")  # the oracle's minimum
    value, gap, n, converged, method = _limit(member.cf, tol / 10 ** 6, terms, precision_bits,
                                              "auto", True)
    if claim.kind == "named":
        mant, shift = _oracle(claim.constant, precision_bits)
        ref = Fraction(mant, 1 << shift)
        ref_err = Fraction(abs(mant), 1 << (shift + precision_bits - 4))
        oracle = round_to(mant, -shift, precision_bits)
    else:
        ref, ref_err = claim.value, 0
        oracle = round_rational(ref, precision_bits, 0)
    d = abs(value - ref)
    if d <= tol + ref_err:
        verdict = "Pass"
    elif converged and d > (gap or 0) + ref_err:
        verdict = "Fail"
    else:
        verdict = "Inconclusive"
    wide = precision_bits + _GUARD_BITS
    (m1, e1), (m2, e2) = round_rational(value, precision_bits), oracle
    e = min(e1, e2)
    diff = round_to(abs((m1 << (e1 - e)) - (m2 << (e2 - e))), e, wide)
    rel = divide(*diff, abs(m2), e2, wide) if m2 else None
    return VerificationReport(
        preset=preset,
        params=dict(params or {}),
        terms=n,
        claimed=claim.describe(),
        oracle=to_str(oracle, precision_bits),
        abs_err=to_str(diff, precision_bits),
        rel_err=to_str(rel, precision_bits),
        verdict=verdict,
        method=method,
    )
