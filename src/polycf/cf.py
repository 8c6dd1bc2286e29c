"""Continued-fraction model, convergent engine, and limit estimation.

A continued fraction b0 + K(a_n/b_n) is stored as an exact leading term, a
finite prefix of exact rational (a_i, b_i) pairs, and an optional symbolic
tail of rational functions.  The k-th tail term (k >= 1 past the prefix)
evaluates the tail functions at argument start_index + k - 1.
"""

import collections
import itertools
import math
import operator
from fractions import Fraction

from .errors import (
    NoSuchTerm,
    PoleAtArgument,
    Record,
    ZeroPartialNumerator,
    ZeroScaleFactor,
)
from .poly import (
    IntPolynomial,
    RationalFunction,
    _exact_div,
    _poly_gcd,
    has_integer_root_at_or_after,
    json_list,
    json_value,
    ratfn_from_string,
)

# beyond this many terms the exact backend's integers get unwieldy
_EXACT_TERM_LIMIT = 300
_FLOAT_GUARD_BITS = 32
# the float kernel shifts its integers once they pass its bit budget by this
# much, so that a shift comes every few terms rather than every term
_SHIFT_SLACK_BITS = 64
# extrapolate: the first checkpoint, the largest Richardson order m, and how
# far (in bits) a gap-doubling ratio may sit from 2^-(c+1)
_FIRST_CHECKPOINT = 50
_RICHARDSON_ORDER = 30
_RATIO_SLACK_BITS = 0.125
# integer_tail_form trial-divides its kappa argument below this (about 2 ms)
_TRIAL_BOUND = 10000


def _as_fraction(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"exact rational required, got {v!r}")


def _as_ratfn(v):
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, str):
        return ratfn_from_string(v)
    return RationalFunction(v)


class _Undefined:
    """Approximant with a zero canonical denominator."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Undefined"


UNDEFINED = _Undefined()


class CFTail(Record):
    __slots__ = ("a", "b", "start_index")

    def __init__(self, a, b, start_index=1):
        self._set(_as_ratfn(a), _as_ratfn(b), start_index)
        if not isinstance(start_index, int):
            raise TypeError("start_index must be an integer")


class CFSpec(Record):
    __slots__ = ("b0", "prefix", "tail")

    def __init__(self, b0=Fraction(0), prefix=(), tail=None):
        self._set(_as_fraction(b0),
                  tuple((_as_fraction(a), _as_fraction(b)) for a, b in prefix),
                  tail if tail is None or isinstance(tail, CFTail) else CFTail(*tail))

    @classmethod
    def _make(cls, b0, prefix, tail=None):
        """Trusted constructor: b0 and every prefix value are already
        Fractions, prefix is a tuple of pairs, tail is None or a CFTail."""
        out = object.__new__(cls)
        out._set(b0, prefix, tail)
        return out


class Convergent(Record):
    __slots__ = ("index", "A", "B")

    def __init__(self, index, A, B):  # direct: convergents builds one per term
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def value(self):
        return self.A / self.B if self.B != 0 else UNDEFINED


class ApproximantSequence(Record):
    __slots__ = ("entries",)

    def values(self):
        return [value for _, value in self.entries]

    def __getitem__(self, i):
        return self.entries[i]

    def __len__(self):
        return len(self.entries)


class LimitEstimate(Record):
    """A limit estimate; `value` and `error_bound` are mpmath mpf numbers.

    `method` is "plain" for an approximant A_n/B_n and "richardson" for an
    extrapolated value.  Despite its name, `error_bound` is an estimate,
    not a bound: on the plain path it is the last gap |A_n/B_n - A_l/B_l|
    between defined approximants (0 for a finite CF, infinite before the
    first gap), and on the Richardson path it is infinite.  `converged` says
    only that two gaps fell below tol, and the true error can be far larger:
    evaluate(ex4.2 with A = 0, 1e-9, 10^4) stops converged at 9,587 terms
    with error_bound 1.0e-9, while its distance to the limit is 9.6e-6.
    """

    __slots__ = ("value", "error_bound", "terms_used", "converged", "method")


def term_at(cf, n):
    """Exact (a_n, b_n) for n >= 1; term errors are raised lazily here."""
    if n < 1:
        raise NoSuchTerm(n)
    if n <= len(cf.prefix):
        a, b = cf.prefix[n - 1]
    elif cf.tail is None:
        raise NoSuchTerm(n)
    else:
        k = n - len(cf.prefix)
        arg = cf.tail.start_index + k - 1
        a = cf.tail.a(arg)
        b = cf.tail.b(arg)
    if a == 0:
        raise ZeroPartialNumerator(n)
    return a, b


def convergents(cf, N):
    """Exact canonical pairs (A_n, B_n) for n = 0..N."""
    pairs = _canonical_pairs(cf.b0, _first(_scaled_terms(cf), N))
    return [Convergent(0, cf.b0, Fraction(1))] + [
        Convergent(n, A, B) for n, (A, B) in enumerate(pairs, 1)
    ]


def _canonical_pairs(b0, steps):
    """Exact (A_n, B_n) for the steps' terms: the kernel's pairs divided by
    its scale M_n = den(b0) m_1 ... m_n, normalised only where M_n != 1."""
    M = b0.denominator
    for A, B, m, _ in _recurrence(b0, steps):
        M *= m
        yield (Fraction(A), Fraction(B)) if M == 1 else (Fraction(A, M), Fraction(B, M))


def approximants(cf, N):
    """Approximant values A_n/B_n for n = 0..N; UNDEFINED where B_n = 0."""
    return ApproximantSequence(tuple((conv.index, conv.value) for conv in convergents(cf, N)))


def _mpf(x, precision_bits):
    """The mpf of a dyadic (man, exp) of at most precision_bits bits; None is +inf."""
    import mpmath

    if x is None:
        return mpmath.inf
    with mpmath.workprec(precision_bits):
        return mpmath.mpf(x)


def _scaled_terms(cf):
    """Integer steps (a, b, m) for terms n = 1, 2, ... of cf.

    Term a_n = p/q, b_n = r/s becomes a = p*s, b = r*q, m = q*s: the
    recurrence A <- b*A + a*A_prev, A_prev <- m*A is the exact one with every
    value multiplied by m.  Tail terms come from the numerator and
    denominator polynomials stepped by forward differences; constant
    denominators are folded into the numerator polynomials once.  Term errors
    are raised lazily, when the term is reached, as term_at raises them.
    """
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
        for n, a, b in zip(itertools.count(first), a_vals, b_vals):
            if a == 0:
                raise ZeroPartialNumerator(n)
            yield a, b, m
        return
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


def _check_count(N):
    if N < 0:
        raise ValueError(f"cannot read a negative number of terms ({N})")


def _first(stream, N):
    """Items 1..N of a stream over terms n = 1, 2, ...; past the end of a
    finite CF, NoSuchTerm(n) is raised when term n is reached."""
    _check_count(N)
    n = 0
    for n, item in zip(range(1, N + 1), stream):
        yield item
    if n < N:
        raise NoSuchTerm(n + 1)


def _iter_terms(cf, N=None):
    """Exact (a_n, b_n) for n = 1..N, or n = 1, 2, ... without N: the view
    (a/m, b/m) of _scaled_terms, normalised only where m != 1."""
    terms = (
        (Fraction(a), Fraction(b)) if m == 1 else (Fraction(a, m), Fraction(b, m))
        for a, b, m in _scaled_terms(cf)
    )
    return terms if N is None else _first(terms, N)


def _recurrence(b0, steps, budget=None, gaps=False):
    """The recurrence kernel, in Python integers: (A, B, m, D) after each of
    the integer steps (a, b, m) of _scaled_terms, starting from b0.

    (A, A_prev, B, B_prev) hold A_n, A_{n-1}, B_n, B_{n-1} times one common
    scale, so A/B is the approximant whatever the scale is.  Without a
    budget the integers are never rounded, and the scale after term n is
    den(b0) times the step scales m of terms 1..n.  With a budget b, once
    every nonzero one of the four has more than b + slack bits, all four are
    shifted right by the same amount, so that the smallest keeps b bits.

    Gaps.  With gaps, D is the gap numerator A B_l - A_l B against the
    previous pair (A_l, B_l), the one yielded before (for term 1, b0 as
    num/den), exactly; otherwise D is None and the kernel does no work for
    it.  The kernel keeps the determinant E = A B_prev - A_prev B of its
    state.  A step gives D = -a E (the b-terms cancel) and E = m D, since
    then A_prev = m A_l and B_prev = m B_l: one product with a small term
    each, where forming D directly takes two full-width products.  A shift
    by k writes X = 2^k X' + r_X with 0 <= r_X < 2^k for each of the four,
    so against the unshifted previous pair
        m D' = A' B_prev - A_prev B' = (E - r_A B_prev + A_prev r_B) / 2^k,
        E' = A' B_prev' - A_prev' B' = (m D' - A' r_{B_prev} + r_{A_prev} B') / 2^k.
    Both left sides are integers, so both right shifts are exact divisions
    and D and E stay exact at every step.

    Truncation error.  A common shift changes no ratio of the four, so A/B
    is unchanged by the scaling itself.  The floor of the shift moves each
    integer by less than one unit, which is less than 2^-b of its own size:
    a relative perturbation of the state no larger than one rounding to a
    b-bit mantissa.  It runs through the linear recurrence as the values
    do, so it reaches A/B amplified only by the recurrence's own
    conditioning, as rounding in any b-bit arithmetic would be.  There is at
    most one shift per term, so the shifts of N terms add up to less than
    N * 2^-b relative before that amplification.  The budget is set by the
    smallest value, not the largest, because A_{n-1} can be smaller than A_n
    by a factor near b_n (2^40 and more in the zeta(k) families, whose
    recurrences cancel): a budget on the largest value gives up those bits
    of A_{n-1}.
    """
    A_prev, B_prev = b0.denominator, 0
    A, B = b0.numerator, b0.denominator
    E = -B * B
    D = None
    limit = None if budget is None else budget + _SHIFT_SLACK_BITS
    for a, b, m in steps:
        if gaps:
            D = -a * E
            E = D if m == 1 else m * D
        if m == 1:
            A, A_prev = b * A + a * A_prev, A
            B, B_prev = b * B + a * B_prev, B
        else:
            A, A_prev = b * A + a * A_prev, m * A
            B, B_prev = b * B + a * B_prev, m * B
        if limit is not None and (top := B_prev.bit_length()) > limit:
            # B_prev is nonzero here: `or top` skips the zeros
            shift = min(
                A.bit_length() or top, A_prev.bit_length() or top, B.bit_length() or top, top
            ) - budget
            if shift > _SHIFT_SLACK_BITS:
                if gaps:
                    mask = (1 << shift) - 1
                    r_A_prev, r_B_prev = A_prev & mask, B_prev & mask
                    mD = (E - (A & mask) * B_prev + A_prev * (B & mask)) >> shift
                A >>= shift
                A_prev >>= shift
                B >>= shift
                B_prev >>= shift
                if gaps:
                    D = mD if m == 1 else mD // m
                    E = (mD - A * r_B_prev + r_A_prev * B) >> shift
        yield A, B, m, D


def _limit_tol(tol, max_terms, precision_bits):
    """tol as a Fraction, after checking tol, max_terms and precision_bits as
    the limit loop and verify_limit both need them.  A float goes through its
    shortest repr, so 1e-10 becomes 1/10^10 rather than the nearest double."""
    tol = tol if isinstance(tol, Fraction) else Fraction(str(tol))
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_terms < 2:
        raise ValueError("max_terms must be at least 2")
    if precision_bits < 1:
        raise ValueError("precision_bits must be at least 1")
    return tol


def evaluate(cf, tol, max_terms, precision_bits=128, backend="auto"):
    """Estimate the limit by iterating approximants (method "plain").

    Stops once two consecutive gaps between defined approximants fall below
    tol, compared in integers as |D| tol_den < tol_num |B B_last| with
    D = A B_last - A_last B; a finite CF yields its exact final value with
    error bound 0.  D comes from the kernel's determinant recurrence, or is
    formed directly for the one step after an undefined approximant (the
    kernel's previous pair is then not the last defined one).  The
    comparison is screened by bit lengths first: with
    L = bitlen(D) + bitlen(tol_den) and R = bitlen(tol_num) + bitlen(B) +
    bitlen(B_last), the left side lies in [2^(L-2), 2^L) and the right in
    [2^(R-3), 2^R) (D = 0 is small), so L <= R - 3 decides small and
    L >= R + 2 decides not small without a product; only the four values
    between compare exactly.  Both backends run the kernel of _recurrence:
    "exact" never rounds and is authoritative for moderate term counts,
    "float" gives it the budget b = precision_bits + guard +
    bitlen(max_terms), so that its shifts add up to less than
    max_terms * 2^-b <= 2^-(precision_bits + guard) relative.  The value and
    the last gap, exact Fractions, become mpf once.  A failure to converge
    is reported through converged=False, not an exception.  error_bound is
    the last gap, an estimate and not a bound (see LimitEstimate).
    """
    return _estimate(_limit(cf, tol, max_terms, precision_bits, backend, False), precision_bits)


def tail_class(cf):
    """The class of cf's tail read from leading coefficients: "parabolic",
    "positive", or None for a tail that converges faster than any power of
    1/n (or no tail).

    With a(n) ~ alpha n^p and b(n) ~ beta n^q the tail is
    - parabolic when p = 2q and beta^2 + 4 alpha = 0: the tail's
      characteristic equation x^2 = beta x + alpha (after scaling by n^q)
      has a double root, so neither solution dominates geometrically
      (Lorentzen & Waadeland, Continued Fractions vol. 1);
    - positive when p = 2q + 2 and alpha, beta > 0: the terms are eventually
      positive and the Seidel-Stern series, whose terms d_n have
      d_n d_{n+1} = b_n b_{n+1} / a_{n+1} ~ n^-2, diverges like the harmonic
      series, so the CF converges, but only like a power of 1/n (for
      p > 2q + 2 it diverges, for p < 2q + 2 it converges faster).
    Either class can converge algebraically.  It is a necessary condition
    for extrapolate's Richardson path, which the gap-ratio test completes;
    without a class extrapolate returns evaluate's plain estimate.
    """
    tail = cf.tail
    if tail is None or tail.a.is_zero or tail.b.is_zero:
        return None
    a, b = tail.a, tail.b
    p = a.num.degree - a.den.degree
    q = b.num.degree - b.den.degree
    # alpha = na/da and beta = nb/db, compared in integers
    na, da = a.num.leading_coefficient, a.den.leading_coefficient
    nb, db = b.num.leading_coefficient, b.den.leading_coefficient
    if p == 2 * q and nb * nb * da + 4 * na * db * db == 0:
        return "parabolic"
    if p == 2 * q + 2 and na * da > 0 and nb * db > 0:
        return "positive"
    return None


def _checkpoints(max_terms):
    """The doubling schedule 50, 100, 200, ... up to max_terms."""
    points = []
    n = _FIRST_CHECKPOINT
    while n <= max_terms:
        points.append(n)
        n *= 2
    return points


def _richardson_weights(n):
    """Integer weights u_0..u_m and their common denominator d that
    extrapolate to x = 0 through the nodes x_i = 1/n_i, n_i = n - 2i, with
    m = min(order, n // 4), so that every node is at least n/2.

    The Lagrange weight of node i at 0 is n_i^m / prod_{j != i} (n_i - n_j);
    with n_i - n_j = 2 (j - i) that is u_i / d for u_i = (-1)^i C(m, i) n_i^m
    and d = 2^m m!.
    """
    m = min(_RICHARDSON_ORDER, n // 4)
    u = [(-1) ** i * math.comb(m, i) * (n - 2 * i) ** m for i in range(m + 1)]
    return u, math.factorial(m) << m


def _ratio_settled(g0, g1, g2):
    """Whether the gap ratios g1/g0 and g2/g1 both lie within
    _RATIO_SLACK_BITS of 2^-(c+1) for one integer c >= 1."""
    if not (g0 and g1 and g2):
        return False
    e1 = math.log2(g0) - math.log2(g1)
    e2 = math.log2(g1) - math.log2(g2)
    c1 = round(e1)
    return c1 >= 2 and abs(e1 - c1) <= _RATIO_SLACK_BITS and abs(e2 - c1) <= _RATIO_SLACK_BITS


def extrapolate(cf, tol, max_terms, precision_bits=128):
    """Richardson estimate of the limit of an algebraically converging CF
    (method "richardson"), or evaluate's plain estimate where the method
    does not apply (method "plain").

    It applies when tail_class(cf) names a class and the approximants f_n
    behave like f + c_1/n^c + c_2/n^(c+1) + ... for an integer c >= 1 on each
    parity of n.  At each checkpoint n of the doubling schedule 50, 100,
    200, ... (up to max_terms) the last pairs give the estimate
    sum u_i f_{n_i} / d of _richardson_weights, the value at x = 0 of the
    polynomial in x = 1/n through the nodes of one parity, so alternating
    CFs need no special case.  The gap g(n) = |f_n - f_{n-2}| behaves like
    n^-(c+1), so the doubling ratio g(2n)/g(n) tends to 2^-(c+1).  From the
    third checkpoint on, the last two ratios must both lie near 2^-(c+1) for
    one integer c >= 1 (_ratio_settled): a logarithmically converging CF
    such as entry13 (ratios 0.38, 0.39 drifting towards 1/2) fails this
    test.  The run stops once two successive estimates differ by at most
    tol, or at the last checkpoint.

    The kernel runs once.  Without a class or three checkpoints the run is
    evaluate's, with its automatic backend.  A failed ratio test or a zero
    B_i in a checkpoint's window turns the method down, and evaluate's stop
    rule reads on from that pair to max_terms, forming each gap directly, so
    such a CF stops no earlier than the pair after that checkpoint.

    Precision.  An error e in the f_{n_i} moves the estimate by up to
    sum |u_i| / d times e, so the fixed-point values carry
    ceil(log2 sum |u_i| / d) guard bits more than evaluate's float backend,
    computed from the last (largest) window before the run.

    A Richardson estimate never counts as converged, and its error_bound is
    infinite.  terms_used is the number of terms read.
    """
    return _estimate(_limit(cf, tol, max_terms, precision_bits, "auto", True), precision_bits)


def _limit(cf, tol, max_terms, precision_bits, backend, extrapolating):
    """The loop behind evaluate and extrapolate: one kernel run, read by the
    Richardson checkpoints while that method applies, else by the plain
    stop rule.  Returns the exact parts (value, gap, terms_used, converged,
    method): the estimate and the last gap as Fractions, the gap None where
    there is none yet."""
    tol = _limit_tol(tol, max_terms, precision_bits)
    if backend == "auto":
        backend = "exact" if max_terms <= _EXACT_TERM_LIMIT else "float"
    if backend not in ("exact", "float"):
        raise ValueError(f"unknown backend {backend!r}")
    points = _checkpoints(max_terms) if extrapolating and tail_class(cf) else []
    pairs = budget = None  # pairs: the Richardson window while that method applies
    if len(points) >= 3:
        last, d = _richardson_weights(points[-1])
        guard = math.ceil(Fraction(sum(map(abs, last)), d)).bit_length()
        bits = precision_bits + _FLOAT_GUARD_BITS + guard
        budget = bits + points[-1].bit_length()
        pairs = collections.deque(maxlen=2 * len(last) - 1)
    elif backend == "float":
        budget = precision_bits + _FLOAT_GUARD_BITS + max_terms.bit_length()
    steps = itertools.islice(_scaled_terms(cf), max_terms)
    kernel = _recurrence(cf.b0, steps, budget, gaps=pairs is None)
    tol_num, tol_den = tol.numerator, tol.denominator
    offset = tol_den.bit_length() - tol_num.bit_length()
    A_last, B_last = cf.b0.numerator, cf.b0.denominator
    last_bits = B_last.bit_length()
    gap, B_gap = 0, 0  # the last gap is gap / (B_last B_gap); none yet while B_gap is 0
    adjacent = True  # the kernel's previous pair is (A_last, B_last)
    small_prev = converged = False
    estimates, parity_gaps = [], []
    n = 0
    for n, (A, B, _, D) in enumerate(kernel, 1):
        if pairs is not None:
            pairs.append((A, B))
            if n != points[len(estimates)]:
                continue
            u, d = _richardson_weights(n)
            window = [pairs[-1 - 2 * i] for i in range(len(u))]
            if all(B_i for _, B_i in window):
                # f_{n_i} in units of 2^-bits
                values = [(A_i << bits) // B_i for A_i, B_i in window]
                estimates.append(Fraction(sum(map(operator.mul, u, values)), d << bits))
                parity_gaps.append(abs(values[0] - values[1]))
                if len(parity_gaps) < 3:
                    continue
                if _ratio_settled(*parity_gaps[-3:]):
                    if abs(estimates[-1] - estimates[-2]) <= tol or n == points[-1]:
                        break
                    continue
            # turned down: the plain rule reads on from this pair
            A_last, B_last = next(p for p in itertools.islice(reversed(pairs), 1, None) if p[1])
            last_bits = B_last.bit_length()
            pairs = None
        if not B:
            adjacent = False
            continue
        if D is None or not adjacent:
            D = A * B_last - A_last * B
            adjacent = True
        B_bits = B.bit_length()
        excess = D.bit_length() - B_bits - last_bits + offset  # L - R
        if excess >= 2 and D:
            small = False
        elif excess <= -3:
            small = True
        else:
            small = abs(D) * tol_den < tol_num * abs(B * B_last)
        gap, B_gap = D, B_last
        A_last, B_last, last_bits = A, B, B_bits
        if small and small_prev:
            converged = True
            break
        small_prev = small
    else:
        if n < max_terms:  # a finite CF: its exact final value
            converged, gap, B_gap = True, 0, 1
    richardson = pairs is not None
    gap_den = abs(B_last * B_gap)
    return (
        estimates[-1] if richardson else Fraction(A_last, B_last),
        Fraction(abs(gap), gap_den) if gap_den else None,
        n,
        converged,
        "richardson" if richardson else "plain",
    )


def _estimate(parts, precision_bits):
    """The LimitEstimate of _limit's parts, value and gap rounded as
    mpmath.mpf(num) / den at precision_bits + 32 bits, then to precision_bits."""
    from .dyadic import round_rational

    value, gap, *rest = parts
    return LimitEstimate(*(_mpf(round_rational(q, precision_bits), precision_bits)
                           for q in (value, gap)), *rest)


def similarity_scale(cf, r):
    """Rescale terms by a_n' = r_n r_{n-1} a_n, b_n' = r_n b_n with r_0 = 1.

    Every approximant value is preserved exactly.  r may be a finite sequence
    of rationals (r_0..r_m, producing a prefix-only CF of m terms) or a
    rational function of the term index (scaling prefix and tail symbolically).
    """
    if isinstance(r, (RationalFunction, IntPolynomial)):
        return _similarity_symbolic(cf, _as_ratfn(r))
    return _similarity_sequence(cf, [_as_fraction(x) for x in r])


def _similarity_sequence(cf, r):
    if not r or r[0] != 1:
        raise ValueError("scale sequence must start with r_0 = 1")
    for i, x in enumerate(r):
        if x == 0:
            raise ZeroScaleFactor(i)
    return CFSpec(cf.b0, _scaled(list(_iter_terms(cf, len(r) - 1)), r), None)


def _similarity_symbolic(cf, r):
    if r(0) != 1:
        raise ValueError("scale function must satisfy r(0) = 1")
    m = len(cf.prefix)
    prefix = []
    for n, (a, b) in enumerate(cf.prefix, 1):
        rn = r(n)
        if rn == 0:
            raise ZeroScaleFactor(n)
        prefix.append((rn * r(n - 1) * a, rn * b))
    tail = None
    if cf.tail is not None:
        # tail argument x maps to term index x - delta
        delta = cf.tail.start_index - m - 1
        r_here = r.shift(-delta)
        r_before = r.shift(-delta - 1)
        if has_integer_root_at_or_after(r_here.num * r_before.num, cf.tail.start_index):
            raise ZeroScaleFactor(cf.tail.start_index)
        tail = CFTail(
            r_here * r_before * cf.tail.a,
            r_here * cf.tail.b,
            cf.tail.start_index,
        )
    return CFSpec(cf.b0, tuple(prefix), tail)


def _is_integer_tail(tail):
    return tail.a.den == 1 and tail.b.den == 1


def to_integer_cf(cf, N):
    """Clear denominators from terms 1..N by a term-by-term similarity.

    An already-integer CF (including its symbolic tail, when present) is
    returned unchanged; otherwise the result is a prefix-only CF whose first
    N terms are integers and whose approximants match the input's exactly.
    """
    steps = list(_first(_scaled_terms(cf), N))
    integral = all(a % m == 0 and b % m == 0 for a, b, m in steps)  # m | a, also for m < 0
    if integral and (cf.tail is None or _is_integer_tail(cf.tail)):
        return cf
    terms = [(Fraction(a, m), Fraction(b, m)) for a, b, m in steps]
    return CFSpec(cf.b0, _scaled(terms, _lcm_scales(terms)), None)


def _lcm_scales(terms):
    """r_0 = 1 and r_n = lcm(den(r_{n-1} a_n), den b_n), the least scales
    that make terms 1..n integral."""
    rs = [Fraction(1)]
    for a_n, b_n in terms:
        rs.append(Fraction(math.lcm((rs[-1] * a_n).denominator, b_n.denominator)))
    return rs


def _scaled(terms, rs):
    """Terms scaled by the similarity r_0, r_1, ...: (r_n r_{n-1} a_n, r_n b_n)."""
    return tuple((r * r_prev * a_n, r * b_n) for r_prev, r, (a_n, b_n) in zip(rs, rs[1:], terms))


def _least_square_root_multiple(d):
    """A k > 0 with k * k divisible by d > 0 after trial division below
    _TRIAL_BOUND = B: least when the cofactor left is below B^3, so 1, p, p^2
    (its isqrt) or pq; a larger cofactor is taken whole, so k stays valid."""
    k, p = 1, 2
    while p < _TRIAL_BOUND and p * p <= d:
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        k *= p ** ((e + 1) // 2)
        p += 1
    r = math.isqrt(d)
    return k * (r if r * r == d else d)


def _integer_prefix(terms, r_last):
    """The prefix of integer_tail_form with its last term scaled by r_last,
    or None when that term stays fractional."""
    rs = _lcm_scales(terms[:-1])
    if len(rs) > 1:
        rs[-1] *= (r_last * rs[-1] * terms[-1][0]).denominator
    prefix = _scaled(terms, rs + [r_last])
    return prefix if all(v.denominator == 1 for v in prefix[-1]) else None


def integer_tail_form(cf):
    """Tail version of to_integer_cf: the same approximants from integer
    prefix terms and a polynomial tail, for a CF with a rational tail.

    The tail is scaled by r(x) = kappa den_b(x) E(x) / (F(x-1) G(x)).  With
    P = den_b(x) den_b(x-1) a(x), E is the primitive part of P's denominator
    (1 when P is a polynomial), F the factor of E with F(x) F(x-1) dividing
    E, G the factor of num_b with G(x) G(x-1) dividing P's numerator, and
    kappa a positive integer that makes r(x) r(x-1) a(x) integral: valid, and
    the least one unless _least_square_root_multiple leaves a large cofactor.
    Prefix term n < m is scaled as in to_integer_cf, by
    lcm(den(r_{n-1} a_n), den b_n), and the last one by r at its argument,
    so that the tail's closed form holds from its first term; r_{m-1} is
    also multiplied by den(r(m) r_{m-1} a_m), which keeps term m-1 integral
    and makes a'_m so.  Where r is zero or infinite at that argument, b'_m
    or (with m = 1) a'_m is still fractional, or there is no prefix, tail
    terms move into the prefix until none of these holds.  Past it, a zero
    or pole of r marks a zero numerator or a pole of the input's tail.
    """
    a, b = cf.tail.a, cf.tail.b
    P = RationalFunction(a.num * b.den * b.den.shift(-1), a.den)
    G = _poly_gcd(b.num, P.num)
    G = _poly_gcd(G, _poly_gcd(_exact_div(P.num, G), G.shift(-1)).shift(1))
    # P's denominator is c E with F(x) F(x-1) dividing E; after E <- E/F(x-1),
    # r(x) r(x-1) a(x) = kappa^2 Q(x) / c
    c, E = P.den.content, P.den.primitive_part()
    F = _poly_gcd(E, E.shift(1))
    F = _poly_gcd(F, _poly_gcd(_exact_div(E, F), F.shift(-1)).shift(1))
    E = _exact_div(E, F.shift(-1))
    Q = _exact_div(P.num * _exact_div(E, F).shift(-1), G * G.shift(-1))
    kappa = _least_square_root_multiple(c // math.gcd(c, Q.content))
    scale = kappa * b.den * E
    stream, start = _iter_terms(cf), cf.tail.start_index
    terms = list(itertools.islice(stream, len(cf.prefix)))
    while True:
        if terms and scale(start - 1) != 0 and G(start - 1) != 0:
            prefix = _integer_prefix(terms, Fraction(scale(start - 1), G(start - 1)))
            if prefix is not None:
                break
        terms.append(next(stream))
        start += 1
    tail_a = IntPolynomial(q * kappa * kappa // c for q in Q.coeffs)
    tail_b = kappa * _exact_div(b.num, G) * E
    return CFSpec(cf.b0, prefix, CFTail(tail_a, tail_b, start))


def tail_cf(cf, k):
    """Drop the first k terms and zero the leading term."""
    if k < 0:
        raise ValueError("k must be non-negative")
    for _ in _iter_terms(cf, k):
        pass
    m = len(cf.prefix)
    if k < m:
        return CFSpec(Fraction(0), cf.prefix[k:], cf.tail)
    tail = None
    if cf.tail is not None:
        tail = CFTail(cf.tail.a, cf.tail.b, cf.tail.start_index + (k - m))
    return CFSpec(Fraction(0), (), tail)


def cf_to_json(cf):
    """CF JSON: rationals as "p/q" strings, tail functions as coeff arrays."""
    tail = cf.tail
    return {
        "b0": str(cf.b0),
        "prefix": [[str(a), str(b)] for a, b in cf.prefix],
        "tail": None if tail is None else {
            "a": tail.a.to_json(), "b": tail.b.to_json(), "start_index": tail.start_index},
    }


def cf_from_json(data):
    """Inverse of cf_to_json; malformed input raises ValueError with its path."""
    data = json_value(data, "$", "object")
    prefix = []
    for i, pair in enumerate(json_list(data.get("prefix", []), "$.prefix", "list")):
        if len(pair) != 2:
            raise ValueError(f"$.prefix[{i}]: expected a pair [a, b]")
        prefix.append(tuple(json_list(pair, f"$.prefix[{i}]", "rational")))
    tail = data.get("tail")
    if tail is not None:
        t = json_value(tail, "$.tail", "object")
        tail = CFTail(
            RationalFunction.from_json(t.get("a"), "$.tail.a"),
            RationalFunction.from_json(t.get("b"), "$.tail.b"),
            json_value(t.get("start_index"), "$.tail.start_index", "int"),
        )
    b0 = json_value(data.get("b0"), "$.b0", "rational")
    return CFSpec(b0, tuple(prefix), tail)
