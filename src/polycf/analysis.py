"""Irrationality certification, denominator growth diagnostics, independent
reference constants, and limit verification reports.

The reference constants are computed from scratch in integer fixed point;
none of them go through a continued fraction, so verifying a CF against them
is a genuine cross-check.  Each series stops where its remainder falls below
the fixed-point unit or the bound stated beside it:

- pi, e and zeta(3): one binary splitting of a hypergeometric series
  (``_split``; Haible and Papanikolaou, 1998), exact up to one final floor
  division: pi by the Chudnovsky series (1988), each term at most 2^-45
  times the one before, with sqrt(10005) from ``math.isqrt``, once per
  working shift; e by sum 1/j! up to a tail below 2/n!; zeta(3) by
  Amdeberhan and Zeilberger's series (1997), about 10 bits a term;
- zeta(k), k != 3: P. Borwein's alternating series (1991) with Chebyshev
  weights, whose error after n terms is below 3 (3+sqrt 8)^-n / (1 - 2^(1-k)),
  and exactly 1 once zeta(k) - 1 < 2^(1-k) is below the unit;
- sin(pi/m)/(pi/m): the Taylor series of cos(pi/(m 2^r)) by rectangular
  splitting, r doublings of the angle, and one square root;
- algebraic roots (p/q)^(r/s): Newton's iteration in fixed point, the
  precision doubling each step up to the working shift, within 2 units;
  the shift grows for a small root, so that every value keeps its bits.

Values are memoised in process, keyed by the constant and the working shift.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction

from .cf import (
    _count,
    _first,
    _is_integer_tail,
    _limit,
    _limit_tol,
    _mpf,
    _positive,
    _recurrence,
    _scaled_terms,
)
from .dyadic import round_rational, round_to, to_str
from .errors import (
    EmptyRange,
    HypothesisViolation,
    NonIntegerTerms,
    Record,
    UnsupportedConstant,
)
from .families import LimitClaim
from .poly import _floor_nth_root, _scan_bound, degree, leading_coefficient

_GUARD_BITS = 32
# tietze_check declines to certify from a later term index: declining is
# sound, and scanning this far is not useful
_MAX_CERT_INDEX = 200000


class TietzeReport(Record):
    __slots__ = ("holds", "N0", "method", "scan_limit")


class GrowthBound(Record):
    """A denominator growth bound; `C` and `phi` are mpmath mpf numbers."""

    __slots__ = ("kind", "k", "D", "epsilon", "C", "phi")


class VerificationReport(Record):
    __slots__ = ("preset", "params", "terms", "claimed", "oracle", "abs_err", "verdict",
                 "method")

    def to_json(self):  # every field, with params as strings
        return dict(super().to_json(), params={k: str(v) for k, v in sorted(self.params.items())})


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
    scan_limit = _count(scan_limit, "scan_limit", 1)
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
    eff = max(scan_limit, n_cert)
    last_failure = 0  # every term is read and checked to be integral, whatever the certificate
    terms = _integer_terms(_first(_scaled_terms(cf), eff + 1))
    for n, ((a, b), (a_next, _)) in enumerate(itertools.pairwise(terms), 1):
        need = abs(a) + (1 if a_next < 0 else 0)
        if b < 1 or b < need:
            last_failure = n
    if not (_poly_eventually_nonneg(q) and _poly_eventually_nonneg(b_ok)):
        return TietzeReport(False, None, "AsymptoticPlusScan", eff)
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


def _least_candidates(bs, log_p, log_q, k, wide):
    """The indices n (from 1) where B_n / (g^n (n!)^k) can be least as
    growth_diagnostics compares it, for B_n = B / M with (B, M) = bs[n - 1]
    and g = p/q with log_p, log_q the float log2 of p and q.

    l_n = log2 B - log2 M - n log2 g - k log2 n! in floats (log2 of a huge
    Fraction overflows) is within e = 8 (N + 8) u (S + 1) + (N + 8) 2^(4 - wide)
    of the log2 of the ratio as compared, u = 2^-53 and S the summed log2
    sizes at n = N: each of the O(N) float steps errs by u times its size,
    and GoldenRatio's mpf ratios by (3n + 2) 2^-wide.  So the least compared
    ratio has l_n <= min l + 2e.
    """
    N = len(bs)
    log_facts = list(itertools.accumulate(map(math.log2, range(1, N + 1))))
    logs = [math.log2(B) - math.log2(M) - n * (log_p - log_q) - k * log_fact
            for n, (B, M), log_fact in zip(itertools.count(1), bs, log_facts)]
    size = sum(map(math.log2, bs[-1])) + N * (abs(log_p) + abs(log_q)) + k * log_facts[-1] + 1
    bar = min(logs) + 2 * (N + 8) * (size * 2.0**-50 + 2.0 ** (4 - wide))
    return [n for n, log in enumerate(logs, 1) if log <= bar]


def growth_diagnostics(cf, N, epsilon=Fraction(1), precision_bits=128):
    """Exhibit an empirical lower-bound constant for denominator growth.

    For a polynomial tail with non-constant b the bound is
    B_n >= C (|D|/(1+eps))^n (n!)^k with k = deg b and D its leading
    coefficient; otherwise B_n >= C phi^n with phi the golden ratio.  C is
    the least ratio over n = 1..N, exact for FactorialPower and in mpf for
    GoldenRatio, compared only at the indices _least_candidates keeps.
    Requires every realized term >= 1.  A float epsilon is read through its
    shortest repr, as cf's limit tolerances are: 0.1 is 1/10.
    """
    import mpmath

    try:  # before _count: any N below 1, a fraction too, is an empty range
        empty = N < 1
    except TypeError:  # not a number: _count names it
        empty = False
    if empty:
        raise EmptyRange()
    N = _count(N, "N")
    precision_bits = _count(precision_bits, "precision_bits", 1)
    epsilon = _positive(epsilon, "epsilon")
    bs, M = [], 1  # B_n = B / M, M > 0 as the steps are sign-normalised; b0 moves only A_n
    for _, B, m, *_ in _recurrence(Fraction(0), _first(_terms_at_least_one(cf), N)):
        M *= m
        bs.append((B, M))
    k = degree(cf.tail.b) if cf.tail is not None else 0
    wide = precision_bits + _GUARD_BITS
    with mpmath.workprec(wide):
        phi = (1 + mpmath.sqrt(5)) / 2
        if k >= 1:
            D = leading_coefficient(cf.tail.b)
            base = abs(D) / (1 + epsilon)
            p, q = base.numerator, base.denominator
            least = min(
                Fraction(bs[n - 1][0] * q**n, bs[n - 1][1] * p**n * math.factorial(n) ** k)
                for n in _least_candidates(bs, math.log2(p), math.log2(q), k, wide)
            )
            C = _mpf(round_rational(least, wide, 0), wide)
            kind, kk, DD = "FactorialPower", k, D
        else:
            ns = _least_candidates(bs, math.log2(1 + math.sqrt(5)), 1.0, 0, wide)
            powers = list(itertools.accumulate(itertools.repeat(phi, ns[-1]), operator.mul))
            C = min(_mpf(round_rational(Fraction(*bs[n - 1]), wide, 0), wide) / powers[n - 1] for n in ns)
            kind, kk, DD = "GoldenRatio", 0, Fraction(1)
        with mpmath.workprec(precision_bits):
            return GrowthBound(kind, kk, DD, epsilon, +C, +phi)


# ---------------------------------------------------------------------------
# fixed-point reference constants

_memo = {}


def _split(a, b, leaf):
    """(P, Q, T) of the terms a..b-1 by binary splitting (Haible and
    Papanikolaou, 1998): with (p_n, q_n, t_n) = leaf(n), P and Q are the
    products of p_n and q_n, and T / Q = sum_n t_n / q_n prod_{a<=i<n} p_i / q_i,
    exactly."""
    if b == a + 1:
        return leaf(a)
    m = (a + b) // 2
    p1, q1, t1 = _split(a, m, leaf)
    p2, q2, t2 = _split(m, b, leaf)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def _chudnovsky_term(a):  # q = a^3 640320^3 / 24, and p < 0 makes the series alternate
    p = -(6 * a - 5) * (2 * a - 1) * (6 * a - 1) if a else 1
    return p, a * a * a * 10939058860032000 or 1, p * (13591409 + 545140134 * a)


@functools.cache  # one pi per shift for PiOver4, BrounckerPi and SineProduct
def _fp_pi(shift):
    # pi = 426880 sqrt(10005) Q / T; the series alternates and each term is
    # below 2^-45 times the one before (the ratio tends to 2^-47.1), so n
    # terms leave a relative error below 2^-45n
    _, q, t = _split(0, shift // 45 + 2, _chudnovsky_term)
    return 426880 * math.isqrt(10005 << (2 * shift)) * q // t


def _fp_e(shift):
    # sum_{j<n} 1/j! by splitting, within 1/2 unit of e as 2/n! < 2^-(shift+1):
    # Stirling's n! > (n/e)^n, with n from Newton's method on n log2(n/e) =
    # shift + 2, which stays above the root; one floor division loses 1 unit
    n = x = shift + 2
    for _ in range(4):
        n -= (n * math.log2(n / math.e) - x) / math.log2(n)
    _, q, t = _split(0, math.ceil(n), lambda j: (1, j or 1, 1))
    return (t << shift) // q


def _apery_term(n):
    p = -(n**5) or 1
    return p, 32 * (2 * n + 1) ** 5, p * (205 * n * n + 250 * n + 77)


def _fp_zeta(k, shift):
    if k < 2:
        raise UnsupportedConstant(f"Zeta({k})")
    if k >= shift + 5:  # zeta(k) - 1 < 2^(1-k) <= 2^-(shift+4): below 1/16 unit
        return 1 << shift
    if k == 3:
        # Amdeberhan and Zeilberger (1997): zeta(3) = 1/64 sum_n (-1)^n
        # (205n^2 + 250n + 77) (n!)^10 / ((2n+1)!)^5 = T / 2Q, term n below
        # 532 n^2 2^-(10n+6); the n terms here leave under 1/2 unit, the
        # floor division 1 more
        _, q, t = _split(0, shift // 10 + shift.bit_length() // 5 + 2, _apery_term)
        return (t << shift) // (2 * q)
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
    """(m, w - e) for a = (p/q)^(r/s) = a' 2^e with 1 < a' < 8, where m is
    within 2 units of a' 2^w and w = shift + max(e, 0): Newton's iteration
    x <- ((s-1) x + c / x^(s-1)) / s on x^s = c = a'^s in units 2^-K, from
    the floor root at k = 2 g + 16 bits, g = bits(s) + 4, with K halving
    down from w.  With x^(s-1) cut to K bits, a step from k to K <= 2k - g
    lands within 3/2 units of Newton's exact step, which lies at most
    (s-1) eps^2 / 2 (1 - |eps|)^(-s-1) relative above a' for x = a' (1 + eps):
    under 1.01 units for x within 2, so within 2 units again."""
    if p <= 0 or q <= 0 or s < 1:
        raise UnsupportedConstant(f"Root({p},{q},{r},{s})")
    p, q = (p**r, q**r) if r >= 0 else (q**-r, p**-r)
    g, e = s.bit_length() + 4, (p.bit_length() - q.bit_length() - 1) // s
    p, q = (p, q << s * e) if e >= 0 else (p << -s * e, q)
    ks, k = [shift + max(e, 0)], 2 * g + 16
    while ks[-1] // 2 + g > k:
        ks.append(ks[-1] // 2 + g)
    x = _floor_nth_root((p << s * k) // q, s)
    for K in reversed(ks):
        y = x << (K - k)
        v = y ** (s - 1) >> (s - 2) * K if s > 1 else 1 << K
        x, k = ((s - 1) * y + (p << 2 * K) // (q * v)) // s, K
    return x, k - e


def _fp_sine_product(m, shift):
    """m sin(x) / pi at x = pi/m: cos y at y = x / 2^r by rectangular
    splitting of its Taylor series (Brent & Zimmermann, Modern Computer
    Arithmetic, 4.4.3), r doublings c <- 2c^2 - 1 and s = sqrt(1 - c^2).
    In units 2^-w, with Y = y^2 < 2^-10: the powers Y^j are within 3 units;
    Horner's T_j = 1 - Y T_(j+1) / ((2j+1)(2j+2)) takes the k steps of a
    block from them by floor divisions, after one product by Y^k, and keeps
    T within 8 units, so cos y is within 9 with the first omitted term.  A
    doubling maps an error e to at most 4e + 2, leaving c within 10 4^r;
    sin x >= 2/m puts s within 5 4^r m^2 + m units of relative error,
    under 2^-(shift+5) for w = shift + 2r + 2 bits(m) + 8.  pi's error
    moves sin(x)/x by at most its relative size and the last division adds
    2^(1-shift): all far below 2^(4-bits).  m = 1 is sin pi = 0."""
    if m < 1:
        raise UnsupportedConstant(f"SineProduct({m})")
    if m == 1:
        return 0
    pi = _fp_pi(shift)
    r = 3 * _floor_nth_root(shift, 3) // 2
    w = shift + 2 * r + 2 * m.bit_length() + 8
    y = (pi << (w - r - shift)) // m
    # term n of cos y, Y^n / (2n)!, is below 2^-e for e = -n log2 Y + log2 (2n)!:
    # sum the n terms before the first one under half a unit
    n, e, log_inv_y = 0, 0.0, 2 * (r + math.log2(m) - 1.66)  # log2 pi < 1.66
    while e < w + 1:
        n += 1
        e += log_inv_y + math.log2((2 * n - 1) * 2 * n)
    k = math.isqrt(n)
    powers = [1 << w, y * y >> w]
    for _ in range(k - 1):
        powers.append(powers[-1] * powers[1] >> w)
    c = 0
    for i in range(k * -(-n // k) - k, -1, -k):  # blocks of terms i..i+k-1, last first
        c = powers[k] * c >> w
        for j in range(i + k - 1, i - 1, -1):
            c = powers[j - i] - c // ((2 * j + 1) * (2 * j + 2))
    for _ in range(r):
        c = (c * c >> (w - 1)) - (1 << w)
    s = math.isqrt((1 << (2 * w)) - c * c)
    return (m * s << shift) // (pi << (w - shift))


def _int_param(constant, name):
    """constant's parameter name as an exact integer: an int, an integral
    Fraction or an integer string, else UnsupportedConstant."""
    value = constant.params.get(name)
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            value = None
    if not (isinstance(value, (int, Fraction)) and value.denominator == 1):
        raise UnsupportedConstant(constant.describe())
    return int(value)


# constant name -> (its integer parameter names, its mantissa at a shift, or
# for Root, whose size varies, a mantissa and the shift it is at)
_ORACLES = {
    "PiOver4": ((), lambda shift: _fp_pi(shift) // 4),
    "E": ((), _fp_e),
    "BrounckerPi": ((), lambda shift: (4 << (2 * shift)) // _fp_pi(shift)),
    "Zeta": (("k",), _fp_zeta),
    "Root": (tuple("pqrs"), _fp_root),
    "SineProduct": (("m",), _fp_sine_product),
}


def _mantissa(constant, shift):
    if constant.name not in _ORACLES:
        raise UnsupportedConstant(constant.name)
    names, mantissa = _ORACLES[constant.name]
    m = mantissa(*(_int_param(constant, name) for name in names), shift)
    return m if constant.name == "Root" else (m, shift)


def _oracle(constant, precision_bits):
    """(m, shift), m / 2^shift within 2^(4-bits) of the constant, relative;
    shift is precision_bits + 32, or more for a small Root, whose m keeps
    at least that many bits."""
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")
    key = (constant.describe(), precision_bits + _GUARD_BITS)
    if key not in _memo:
        _memo[key] = _mantissa(constant, key[1])
    return _memo[key]


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

    The value comes from one run of cf._limit on the Richardson path, which
    only verify_limit takes, reading the member's terms once: the estimate
    of that path ("richardson"), else the plain last approximant ("plain"),
    run at tol / 10^6 so that early stopping never hides a max-terms-limited
    estimate.  The verdict compares d = |estimate - oracle| against tol and
    the oracle's bound e = |m / 2^shift| 2^(4-bits) for a named constant
    m / 2^shift (e = 0 for an exact claim) exactly, cross-multiplying the
    integers of the estimate p/q, tol and _limit's gap pair.  Pass:
    d <= tol + e, the estimate is within tol of the claim up to the
    oracle's error.  Fail: the evaluation converged and d > gap + e, with
    gap its error_bound (the last gap, an estimate, not a bound).
    Inconclusive: otherwise, that is unconverged or within gap + e; an
    extrapolated estimate never counts as converged.  oracle and abs_err
    print as mpmath did: the estimate and the oracle rounded to
    precision_bits, and their distance at precision_bits + 32 bits.
    """
    tol, terms, precision_bits = _limit_tol(tol, terms, precision_bits)
    claim = member.limit
    if claim.kind == "named":  # first: below 64 bits the oracle refuses before the loop runs
        mant, shift = _oracle(claim.constant, precision_bits)
    value, gap, n, converged, method = _limit(member.cf, tol / 10 ** 6, terms, precision_bits, True)
    # d = |value - claim| = dist / q_ref and the oracle's bound e / (q_ref / q 2^f)
    p, q = value.numerator, value.denominator
    if claim.kind == "named":
        oracle = round_to(mant, -shift, precision_bits)
        dist, q_ref, e, f = abs((p << shift) - mant * q), q << shift, abs(mant), precision_bits - 4
    else:
        r = claim.value
        oracle = round_rational(r, precision_bits, 0)
        dist, q_ref, e, f = abs(p * r.denominator - r.numerator * q), q * r.denominator, 0, 0

    def within(x, y):  # d <= x / y + the oracle's bound
        return dist * y << f <= (x * q_ref << f) + e * q * y

    if within(tol.numerator, tol.denominator):
        verdict = "Pass"
    elif converged and not within(*(gap or (0, 1))):
        verdict = "Fail"
    else:
        verdict = "Inconclusive"
    wide = precision_bits + _GUARD_BITS
    (m1, e1), (m2, e2) = round_rational(value, precision_bits), oracle
    e = min(e1, e2)
    diff = round_to(abs((m1 << (e1 - e)) - (m2 << (e2 - e))), e, wide)
    return VerificationReport(
        preset=preset,
        params=dict(params or {}),
        terms=n,
        claimed=claim.describe(),
        oracle=to_str(oracle, precision_bits),
        abs_err=to_str(diff, precision_bits),
        verdict=verdict,
        method=method,
    )
