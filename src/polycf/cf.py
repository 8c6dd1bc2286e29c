"""Continued-fraction model, convergent engine, and limit estimation.

A continued fraction b0 + K(a_n/b_n) is stored as an exact leading term, a
finite prefix of exact rational (a_i, b_i) pairs, and an optional symbolic
tail of rational functions.  The k-th tail term (k >= 1 past the prefix)
evaluates the tail functions at argument start_index + k - 1.
"""

import collections
import functools
import itertools
import math
import operator
import sys
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
    _scan_bound,
    degree,
    has_integer_root_at_or_after,
    json_list,
    json_value,
    leading_coefficient,
    ratfn_from_string,
)

# the limit loop's kernel is exact up to this many terms and budgeted beyond
_EXACT_TERM_LIMIT = 300
_FLOAT_GUARD_BITS = 32
# the budgeted kernel shifts its integers once they pass its bit budget by this
# much, so that a shift comes every few terms rather than every term
_SHIFT_SLACK_BITS = 256
# past its first shift the budgeted kernel keeps its determinant as a
# mantissa of this many bits times a power of two
_DET_BITS = 128
# _limit's Richardson path: the first checkpoint, the largest Richardson order
# m, and how far (in bits) a gap-doubling ratio may sit from 2^-(c+1)
_FIRST_CHECKPOINT = 50
_RICHARDSON_ORDER = 30
_RATIO_SLACK_BITS = 0.125
# the kernel state (A, B, m, D, err, x) of an enumerated kernel item (n, state)
_STATE = operator.itemgetter(1)
# integer_tail_form trial-divides its kappa argument below this (about 2 ms)
_TRIAL_BOUND = 10000


def _as_fraction(v, name, *index):
    """v as a Fraction; an int or a string goes through json_value's bounds.
    An error names the argument v was passed as: name, or name[i][j] for
    the indices i, j of an item."""
    if isinstance(v, Fraction):
        return v
    path = name + "".join(f"[{i}]" for i in index)
    if isinstance(v, (int, str)):
        return json_value(v, path, "rational")
    raise TypeError(f"{path}: exact rational required, got {v!r}")


def _as_ratfn(v):
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, str):
        return ratfn_from_string(v)
    return RationalFunction(v)


def _prefix_pair(item, i):
    """Prefix item i as a pair of Fractions, named as cf_from_json names it."""
    try:
        a, b = item
    except (TypeError, ValueError):
        raise ValueError(f"prefix[{i}]: expected a pair [a, b]") from None
    return _as_fraction(a, "prefix", i, 0), _as_fraction(b, "prefix", i, 1)


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
        self._set(_as_ratfn(a), _as_ratfn(b), _integer(start_index, "start_index"))


class CFSpec(Record):
    __slots__ = ("b0", "prefix", "tail")

    def __init__(self, b0=Fraction(0), prefix=(), tail=None):
        self._set(_as_fraction(b0, "b0"),
                  tuple(_prefix_pair(item, i) for i, item in enumerate(prefix)),
                  tail if tail is None or isinstance(tail, CFTail) else CFTail(*tail))

    @classmethod
    def _make(cls, b0, prefix, tail=None):
        """Trusted constructor: b0 and every prefix value are already
        Fractions, prefix is a tuple of pairs, tail is None or a CFTail."""
        out = object.__new__(cls)
        out._set(b0, prefix, tail)
        return out


class Convergent(Record):
    """The canonical pair (A_n, B_n) of index n, each a reduced Fraction.
    __init__ stores the fields through the slot descriptors' __set__, bound
    below: convergents builds one per row, and that takes about 0.4 us against
    0.7 us through object.__setattr__'s lookup by name (timeit, Python 3.11)."""

    __slots__ = ("index", "A", "B")

    def __init__(self, index, A, B):
        _set_index(self, index)
        _set_A(self, A)
        _set_B(self, B)

    @property
    def value(self):
        return self.A / self.B if self.B != 0 else UNDEFINED


_set_index, _set_A, _set_B = (getattr(Convergent, name).__set__ for name in Convergent.__slots__)


class LimitEstimate(Record):
    """evaluate's estimate; `value` and `error_bound` are mpmath mpf numbers.

    `method` is "plain", for an approximant A_n/B_n (only verify_limit takes
    _limit's Richardson path).  Despite its name, `error_bound` is an
    estimate, not a bound: it is the last gap |A_n/B_n - A_l/B_l| between
    adjacent defined approximants (0 for a finite CF with a defined final
    approximant, infinite before the first gap or across an undefined one).
    `converged` says only that two consecutive gaps, with no undefined
    approximant between them, fell below tol, and the true error can be far
    larger: evaluate(ex4.2 with A = 0, 1e-9, 10^4) stops converged at 9,587
    terms with error_bound 1.0e-9, while its distance to the limit is
    9.6e-6.
    """

    __slots__ = ("value", "error_bound", "terms_used", "converged", "method")


def term_at(cf, n):
    """Exact (a_n, b_n) for an integer n >= 1, with the term errors in the
    order of the term stream: a pole of a or b, a zero numerator, then
    NoSuchTerm(n).  The reader of single exact terms outside the kernel."""
    n = _integer(n, "n")
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


def _lowest(p, q):
    """The Fraction p/q for integers p/q already in lowest terms with q > 0,
    built without Fraction's gcd, as Python 3.12's Fraction._from_coprime_ints
    builds it.  Every other trusted build goes through _fraction."""
    out = object.__new__(Fraction)
    out._numerator = p
    out._denominator = q
    return out


def _fraction(p, q):
    """Fraction(p, q) of integers, by its gcd, sign rule and error, then _lowest."""
    if q == 0:
        raise ZeroDivisionError('Fraction(%s, 0)' % p)
    g = math.gcd(p, q)
    return _lowest(p // g, q // g) if q > 0 else _lowest(-p // g, -q // g)


def convergents(cf, N):
    """Exact canonical pairs (A_n, B_n) for n = 0..N, each built in one loop
    from one kernel run started at c, for b0 = c + r/q with 0 <= r < q:
    A_n = (q A + r B) / (q M) and B_n = B / M from the kernel's pair (A, B)
    and scale M = m_1 ... m_n (A_n is linear in b0 and B_n free of it).

    Where M = 1 (every term so far integral, as for every preset) the row
    is built by _lowest, with no gcd: B_n = B/1 is in lowest terms, and so
    is A_n = A/1 for an integer b0 (r = 0, q = 1).  For a fractional b0,
    A_n = (q A + r B)/q, and since r is prime to q, gcd(q A + r B, q) =
    gcd(B, q) = gcd(B mod q, q) = g (Euclid's step): g is read from B_n and
    B_{n-1} mod q, stepped on a tee of the steps, and A_n divided by it only
    where g != 1.  Rows with q = 1 skip that mirror, which slowed ex3.3
    (A = 1) at 1,000 rows from 4.5 to 5.0-5.2 ms and exact-core's op_p90_s
    by 2-4%.  Rows with M != 1 go through _fraction.  Past the end of a
    finite CF, NoSuchTerm(n) is raised when term n is reached."""
    N = _count(N, "N")
    q = cf.b0.denominator
    c, r = divmod(cf.b0.numerator, q)
    rows, M, n = [Convergent(0, cf.b0, Fraction(1))], 1, 0
    steps = _scaled_terms(cf)
    if q == 1:
        for n, (A, B, m, _D, _err, _x) in zip(range(1, N + 1), _recurrence(Fraction(c), steps)):
            M *= m
            rows.append(Convergent(n, _lowest(A, 1), _lowest(B, 1)) if M == 1
                        else Convergent(n, _fraction(A, M), _fraction(B, M)))
    else:
        steps, mirror = itertools.tee(steps)
        R, R_prev = 1, 0  # B and B_prev mod q
        for n, (A, B, m, _D, _err, _x), (a, b, _m) in zip(
                range(1, N + 1), _recurrence(Fraction(c), steps), mirror):
            M *= m
            A, R, R_prev = q * A + r * B, (b * R + a * R_prev) % q, m * R % q
            if M != 1:
                rows.append(Convergent(n, _fraction(A, q * M), _fraction(B, M)))
            else:
                g = math.gcd(R, q)
                rows.append(Convergent(n, _lowest(A, q) if g == 1 else _lowest(A // g, q // g),
                                       _lowest(B, 1)))
    if n < N:
        raise NoSuchTerm(n + 1)
    return rows


def approximants(cf, N):
    """Approximant values A_n/B_n for n = 0..N; UNDEFINED where B_n = 0."""
    return [conv.value for conv in convergents(cf, N)]


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
    denominator polynomials stepped by forward differences.  Term errors are
    raised lazily, when the term is reached, as term_at raises them: the
    prefix and a rational tail (poles to check) step through the per-term
    generator _per_term_steps.  Constant tail denominators (every preset after
    integer_tail_form) are folded into the numerator polynomials once, and
    the tail then steps inside itertools, with no Python frame per term,
    until takewhile meets the first zero numerator; the per-term tail steps,
    all dropped by filterfalse, then raise its ZeroPartialNumerator.
    """
    tail = cf.tail
    if tail is None or tail.a.den.degree or tail.b.den.degree:
        return _per_term_steps(cf.prefix, tail)
    q, s = tail.a.den.coeffs[0], tail.b.den.coeffs[0]
    a_vals = (tail.a.num * s).values_from(tail.start_index)
    b_vals = (tail.b.num * q).values_from(tail.start_index)
    return itertools.chain(
        _per_term_steps(cf.prefix, None),
        zip(itertools.takewhile(bool, a_vals), b_vals, itertools.repeat(q * s)),
        # every step is a truthy tuple: only the error at that zero gets through
        itertools.filterfalse(None, _per_term_steps((), tail, len(cf.prefix))),
    )


def _per_term_steps(prefix, tail, skipped=0):
    """The steps of _scaled_terms, one term at a time, for terms
    n = skipped + 1, ... of prefix, then of tail (or none)."""
    for n, (a, b) in enumerate(prefix, skipped + 1):
        if a == 0:
            raise ZeroPartialNumerator(n)
        q, s = a.denominator, b.denominator
        yield a.numerator * s, b.numerator * q, q * s
    if tail is None:
        return
    x0 = tail.start_index
    columns = (tail.a.num, tail.a.den, tail.b.num, tail.b.den)
    for n, x, p, q, r, s in zip(
        itertools.count(skipped + len(prefix) + 1),
        itertools.count(x0),
        *(poly.values_from(x0) for poly in columns),
    ):
        if q == 0 or s == 0:
            raise PoleAtArgument(x)
        if p == 0:
            raise ZeroPartialNumerator(n)
        yield p * s, r * q, q * s


def _first(stream, N):
    """Items 1..N of a stream over terms n = 1, 2, ..., for a count N read by
    _count; past the end of a finite CF, NoSuchTerm(n) is raised when term n
    is reached."""
    n = 0
    for n, item in zip(range(1, N + 1), stream):
        yield item
    if n < N:
        raise NoSuchTerm(n + 1)


def _recurrence(b0, steps, budget=None, gaps=False):
    """The recurrence kernel, in Python integers: (A, B, m, D, err, x) after
    each of the integer steps (a, b, m) of _scaled_terms, starting from b0.

    (A, A_prev, B, B_prev) hold A_n, A_{n-1}, B_n, B_{n-1} times one common
    scale, so A/B is the approximant whatever the scale is.  Without a
    budget the integers are never rounded, and the scale after term n is
    den(b0) times the step scales m of terms 1..n.  With a budget b, once
    every nonzero one of the four has more than b + _SHIFT_SLACK_BITS bits
    (256), all four are shifted right by the same amount, so that the
    smallest keeps b bits.  A shift costs about as much as a step, and the
    slack spaces the shifts by at least 256 bits of growth.

    Gaps.  With gaps, D 2^x is the gap numerator A B_l - A_l B against the
    previous pair (A_l, B_l), the one yielded before (for term 1, b0 as
    num/den): exact, with x = 0, while err is None, else within
    2^err |D 2^x| of it if err <= -2; without gaps D and err are None and
    x is 0.  The kernel keeps the determinant of its state as E 2^x, with
    E = A B_prev - A_prev B exactly (x = 0) up to its first shift.  A step
    gives D = -a E (the b-terms cancel) and E = m D, since then
    A_prev = m A_l and B_prev = m B_l: one product with a small term each,
    where forming D directly takes two full-width products, and no change
    of relative error.  A shift by k writes X = 2^k X' + r_X with
    0 <= r_X < 2^k, so
        m D' = A' B_prev - A_prev B' = (E - r_A B_prev + A_prev r_B) / 2^k,
        E' = A' B_prev' - A_prev' B' = (m D' - A' r_{B_prev} + r_{A_prev} B') / 2^k,
    and the kernel drops the r terms, which only moves exponents: as
    E = m D, D' = D 2^(x-k) and E' = E 2^(x-2k), with no division by m.
    With M the largest bit length of the four before the shift, the r
    terms of the first line are below 2^(k+M+1) and those of the second
    below 2^(M+1), so D' and E' move by less than t |D 2^x| / 2^k and
    t |E 2^x| / 2^(2k), for t = 2^(k+M+3-L) and L = bl(E) + x: a relative
    error psi becomes at most psi + t.  Then E' is cut to its top
    W = _DET_BITS (128) bits, the fixed precision of Brent and Zimmermann,
    Modern Computer Arithmetic, ch. 3; that moves it by less than 2^(1-W)
    of itself, which brings psi <= 1/2 to at most psi + 2^(2-W).  So
    between shifts E has W bits plus the small factors of the steps since,
    not the state's width.  The kernel sums the two terms of each shift as
    count 2^emax (emax the largest exponent over them):
    err = emax + bl(count).  Rounding each shift's bound up to a whole bit
    instead would lose a bit per shift.

    Truncation error.  A common shift changes no ratio of the four, so A/B
    is unchanged by the scaling itself.  The floor of the shift moves each
    integer by less than one unit, which is less than 2^-b of its own size:
    a relative perturbation of the state no larger than one rounding to a
    b-bit mantissa.  It runs through the linear recurrence as the values
    do, so it reaches A/B amplified only by the recurrence's own
    conditioning, as rounding in any b-bit arithmetic would be.  There is at
    most one shift per term, so the shifts of N terms add up to less than
    N * 2^-b relative before that amplification, whatever the slack.  The
    budget is set by the smallest value, not the largest, because A_{n-1}
    can be smaller than A_n by a factor near b_n (2^40 and more in the
    zeta(k) families, whose recurrences cancel): a budget on the largest
    value gives up those bits of A_{n-1}.
    """
    A_prev, B_prev = b0.denominator, 0
    A, B = b0.numerator, b0.denominator
    E = -B * B
    D, err, count, emax, x = None, None, 0, -math.inf, 0
    limit = None if budget is None else budget + _SHIFT_SLACK_BITS
    for a, b, m in steps:
        if gaps:  # D and E both have the exponent x here
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
            lengths = (A.bit_length() or top, A_prev.bit_length() or top,
                       B.bit_length() or top, top)
            shift = min(lengths) - budget
            if shift > _SHIFT_SLACK_BITS:
                A >>= shift
                A_prev >>= shift
                B >>= shift
                B_prev >>= shift
                if gaps:
                    e = shift + max(lengths) + 3 - E.bit_length() - x
                    count, emax = count + 2, max(emax, e, 2 - _DET_BITS)
                    err = emax + count.bit_length()
                    cut = max(E.bit_length() - _DET_BITS, 0)
                    E, x = E >> cut, x - 2 * shift + cut
                    yield A, B, m, D, err, x + shift - cut  # x - shift before the cut
                    continue
        yield A, B, m, D, err, x


def _integer(v, name):
    """v read with operator.index, as islice and shifts read counts; a
    TypeError names v otherwise."""
    try:
        return operator.index(v)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {v!r}") from None


def _count(v, name, least=0):
    """v as a count: an integer (read with operator.index) from least to
    sys.maxsize, the largest stop itertools.islice takes.  Every public count
    is read here, before any term is; an error names the argument."""
    v = _integer(v, name)
    if v < least:
        raise ValueError(f"{name} must be at least {least}")
    if v > sys.maxsize:
        raise ValueError(f"{name} must be at most {sys.maxsize}")
    return v


def _positive(v, name):
    """v as a positive Fraction.  A float goes through its shortest repr, so
    1e-10 becomes 1/10^10 rather than the nearest double."""
    v = v if isinstance(v, Fraction) else _as_fraction(str(v), name)
    if v <= 0:
        raise ValueError(f"{name} must be positive")
    return v


def _limit_tol(tol, max_terms, precision_bits):
    """(tol, max_terms, precision_bits) as read for the limit loop and
    verify_limit: max_terms (at least 2) and precision_bits (at least 1) as
    counts, then tol as a positive Fraction."""
    max_terms = _count(max_terms, "max_terms", 2)
    precision_bits = _count(precision_bits, "precision_bits", 1)
    return _positive(tol, "tol"), max_terms, precision_bits


def evaluate(cf, tol, max_terms, precision_bits=128):
    """Estimate the limit by iterating approximants (method "plain").

    Stops once two consecutive gaps between defined approximants fall below
    tol, compared in integers as |D| tol_den < tol_num |B B_last| with
    D = A B_last - A_last B.  An undefined approximant (B = 0) between two
    gaps makes them not consecutive, and no last gap is reported across
    one, so 1 + K(1/0), whose approximants alternate between 1 and
    undefined, never converges and reports error bound +inf.  A finite CF
    whose final approximant is defined yields that exact value with error
    bound 0, and one whose final approximant is undefined its last defined
    one, unconverged.  The comparison is screened by bit lengths first: with
    L = bitlen(D) + bitlen(tol_den) and R = bitlen(tol_num) + bitlen(B) +
    bitlen(B_last), the left side lies in [2^(L-2), 2^L) and the right in
    [2^(R-3), 2^R) (D = 0 is small), so L <= R - 3 decides small and
    L >= R + 2 decides not small without a product; only the four values
    between compare exactly.  D comes from the kernel's determinant
    recurrence; past the kernel's first shift that D 2^x is approximate
    and only decides "not small" (L from bitlen(D) + x - 1, its bound at
    most 2^-2 of it).  Other steps form D directly, as does the one after an
    undefined approximant (the kernel's previous pair is then not the last
    defined one).  For max_terms up to _EXACT_TERM_LIMIT = 300 the kernel of
    _recurrence never rounds; beyond, it runs with the budget
    b = precision_bits + guard + bitlen(max_terms), so that its shifts add
    up to less than max_terms * 2^-b <= 2^-(precision_bits + guard)
    relative.  The value and the last gap, formed exactly once at the
    end, become mpf once, by round_rational.  A failure to converge is
    reported through converged=False, not an exception.  error_bound is
    the last gap, an estimate and not a bound (see LimitEstimate).
    """
    from .dyadic import round_rational

    tol, max_terms, precision_bits = _limit_tol(tol, max_terms, precision_bits)
    value, gap, *rest = _limit(cf, tol, max_terms, precision_bits, False)
    return LimitEstimate(*(_mpf(round_rational(q, precision_bits), precision_bits)
                           for q in (value, gap and Fraction(*gap))), *rest)


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
    for verify_limit's Richardson path, which the gap-ratio test completes;
    without a class _limit runs evaluate's plain rule.
    """
    tail = cf.tail
    if tail is None or tail.a.is_zero or tail.b.is_zero:
        return None
    p, q = degree(tail.a), degree(tail.b)
    alpha, beta = leading_coefficient(tail.a), leading_coefficient(tail.b)
    if p == 2 * q and beta * beta + 4 * alpha == 0:
        return "parabolic"
    if p == 2 * q + 2 and alpha > 0 and beta > 0:
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


@functools.cache
def _richardson_weights(n):
    """(u, d, guard): the integer weights u = (u_0, ..., u_m) and their common
    denominator d that extrapolate to x = 0 through the nodes x_i = 1/n_i,
    n_i = n - 2i, with m = min(order, n // 4), so that every node is at
    least n/2; and guard = bitlen(ceil(sum |u_i| / d)), the bits an error
    in the node values gains.  Cached: it is called for the checkpoints
    50 * 2^k only, and every run at a checkpoint reads the same weights.

    The Lagrange weight of node i at 0 is n_i^m / prod_{j != i} (n_i - n_j);
    with n_i - n_j = 2 (j - i) that is u_i / d for u_i = (-1)^i C(m, i) n_i^m
    and d = 2^m m!.
    """
    m = min(_RICHARDSON_ORDER, n // 4)
    u = tuple((-1) ** i * math.comb(m, i) * (n - 2 * i) ** m for i in range(m + 1))
    d = math.factorial(m) << m
    return u, d, (-(-sum(map(abs, u)) // d)).bit_length()


def _within(e0, e1, tol_num, tol_den):
    """Whether the estimates S0/q0 and S1/q1 (q0, q1 > 0) differ by at most
    tol = tol_num/tol_den, by cross-multiplying."""
    (S0, q0), (S1, q1) = e0, e1
    return abs(S1 * q0 - S0 * q1) * tol_den <= tol_num * q0 * q1


def _ratio_settled(g0, g1, g2):
    """Whether the gap ratios g1/g0 and g2/g1 both lie within
    _RATIO_SLACK_BITS of 2^-(c+1) for one integer c >= 1."""
    if not (g0 and g1 and g2):
        return False
    e1 = math.log2(g0) - math.log2(g1)
    e2 = math.log2(g1) - math.log2(g2)
    c1 = round(e1)
    return c1 >= 2 and abs(e1 - c1) <= _RATIO_SLACK_BITS and abs(e2 - c1) <= _RATIO_SLACK_BITS


def _limit(cf, tol, max_terms, precision_bits, extrapolating):
    """The loop behind evaluate (not extrapolating) and verify_limit
    (extrapolating): one kernel run in two phases.

    Phase 1, Richardson, runs when extrapolating, with a tail_class and
    three checkpoints of the doubling schedule 50, 100, 200, ... up to
    max_terms, for approximants f_n ~ f + c_1/n^c + c_2/n^(c+1) + ... on
    each parity of n.  At checkpoint n the estimate is the value at x = 0 of
    the polynomial in x = 1/n through the nodes of n's parity (so
    alternating CFs need no special case), by the weights of
    _richardson_weights, with its guard bits above the plain budget.  As
    the parity gap |f_n - f_{n-2}| ~ n^-(c+1), from the third checkpoint on
    the last two doubling ratios must lie near 2^-(c+1) for one integer
    c >= 1 (_ratio_settled), which logarithmic convergence (entry13) fails.
    The phase returns once two successive estimates differ by at most tol,
    or at the last checkpoint: never converged, with no gap.  A window with
    a zero B_i or a failed ratio test turns the method down, and hands that
    checkpoint's pair, and the last defined pair before it, to phase 2:
    evaluate's plain stop rule, which reads on to the end.  Returns the
    exact parts (value, gap, terms_used, converged, method): the estimate
    as a Fraction, and the last gap |A_N/B_N - A_l/B_l| as the integer pair
    (|A_N B_l - A_l B_N|, |B_N B_l|), not reduced, or None where there is
    none yet."""
    tol, max_terms, precision_bits = _limit_tol(tol, max_terms, precision_bits)
    points = _checkpoints(max_terms) if extrapolating and tail_class(cf) else []
    richardson, budget = len(points) >= 3, None
    if richardson:
        last, _, guard = _richardson_weights(points[-1])
        bits = precision_bits + _FLOAT_GUARD_BITS + guard
        budget = bits + points[-1].bit_length()
    elif max_terms > _EXACT_TERM_LIMIT:
        budget = precision_bits + _FLOAT_GUARD_BITS + max_terms.bit_length()
    steps = itertools.islice(_scaled_terms(cf), max_terms)
    kernel = enumerate(_recurrence(cf.b0, steps, budget, gaps=not richardson), 1)
    tol_num, tol_den = tol.numerator, tol.denominator
    A_last, B_last = cf.b0.numerator, cf.b0.denominator
    adjacent, n = True, 0  # adjacent: the kernel's previous pair is (A_last, B_last)
    if richardson:  # phase 1: the window of the kernel's states (A, B, ...), filled in C
        pairs = collections.deque(maxlen=2 * len(last) - 1)
        estimates, parity_gaps = [], []  # estimates: pairs (S, q) for the value S/q
        for point in points:
            pairs.extend(map(_STATE, itertools.islice(kernel, point - n)))
            n = point
            u, d, _ = _richardson_weights(n)
            window = [pairs[-1 - 2 * i] for i in range(len(u))]
            if not all(s[1] for s in window):
                break
            values = [(s[0] << bits) // s[1] for s in window]  # f_{n_i} in units of 2^-bits
            estimates.append((sum(map(operator.mul, u, values)), d << bits))
            parity_gaps.append(abs(values[0] - values[1]))
            if len(parity_gaps) >= 3:
                if not _ratio_settled(*parity_gaps[-3:]):
                    break
                if n == points[-1] or _within(*estimates[-2:], tol_num, tol_den):
                    return Fraction(*estimates[-1]), None, n, False, "richardson"
        # turned down: the plain rule reads on from this checkpoint's pair
        A_last, B_last = next(s for s in itertools.islice(reversed(pairs), 1, None) if s[1])[:2]
        adjacent = bool(pairs[-2][1])
        kernel = itertools.chain([(n, pairs[-1])], kernel)
    # phase 2: the plain stop rule
    offset, last_bits = tol_den.bit_length() - tol_num.bit_length(), B_last.bit_length()
    A_gap, B_gap, gap = 0, 0, None  # (A_gap, B_gap): the defined pair before the last one
    small_prev = converged = False
    for n, (A, B, _, D, err, x) in kernel:
        if not B:  # undefined: the run of small gaps starts again after it
            adjacent = small_prev = False
            continue
        B_bits = B.bit_length()
        if err is not None and adjacent and err <= -2 and D and (
                D.bit_length() + x - B_bits - last_bits + offset >= 3):
            # past a shift the kernel's D 2^x only settles "not small": bl(exact) >= bl(D) + x - 1
            small = False
        else:
            if D is None or not adjacent or err is not None:
                D = A * B_last - A_last * B
            excess = D.bit_length() - B_bits - last_bits + offset  # L - R
            if excess >= 2 and D:
                small = False
            elif excess <= -3:
                small = True
            else:
                small = abs(D) * tol_den < tol_num * abs(B * B_last)
        if adjacent:
            A_gap, B_gap = A_last, B_last
        else:  # no last gap across an undefined approximant
            A_gap = B_gap = 0
            adjacent = True
        A_last, B_last, last_bits = A, B, B_bits
        if small and small_prev:
            converged = True
            break
        small_prev = small
    else:
        if n < max_terms and adjacent:  # a finite CF whose final approximant is defined
            converged, gap = True, (0, 1)
    if gap is None and B_gap:  # the last gap, formed exactly once
        gap = abs(A_last * B_gap - A_gap * B_last), abs(B_last * B_gap)
    return Fraction(A_last, B_last), gap, n, converged, "plain"


def similarity_scale(cf, r):
    """Rescale terms by a_n' = r_n r_{n-1} a_n, b_n' = r_n b_n with r_0 = 1.

    Every approximant value is preserved exactly.  r may be a finite sequence
    of rationals (r_0..r_m, producing a prefix-only CF of m terms) or a
    rational function of the term index, or a string read as one (scaling
    prefix and tail symbolically).
    """
    if isinstance(r, (RationalFunction, IntPolynomial, str)):
        return _similarity_symbolic(cf, _as_ratfn(r))
    return _similarity_sequence(cf, [_as_fraction(x, "r", i) for i, x in enumerate(r)])


def _similarity_sequence(cf, r):
    if not r or r[0] != 1:
        raise ValueError("scale sequence must start with r_0 = 1")
    for i, x in enumerate(r):
        if x == 0:
            raise ZeroScaleFactor(i)
    return CFSpec(cf.b0, _scaled([term_at(cf, n) for n in range(1, len(r))], r), None)


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
    N = _count(N, "N")
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
    if cf.tail is None:
        raise ValueError("integer_tail_form needs a CF with a tail")
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
    terms, start = [term_at(cf, n) for n in range(1, len(cf.prefix) + 1)], cf.tail.start_index
    while True:
        if terms and scale(start - 1) != 0 and G(start - 1) != 0:
            prefix = _integer_prefix(terms, Fraction(scale(start - 1), G(start - 1)))
            if prefix is not None:
                break
        terms.append(term_at(cf, len(terms) + 1))
        start += 1
    tail_a = IntPolynomial(q * kappa * kappa // c for q in Q.coeffs)
    tail_b = kappa * _exact_div(b.num, G) * E
    return CFSpec(cf.b0, prefix, CFTail(tail_a, tail_b, start))


def tail_cf(cf, k):
    """Drop the first k >= 0 terms and zero the leading term.  Terms 1..k
    are read by term_at up to the last that can fail: term m + 1 of a finite
    CF or a zero tail numerator, else the term at the tail's scan bound."""
    k = _count(k, "k")
    m, tail = len(cf.prefix), cf.tail
    if tail is None or tail.a.is_zero:
        last = m + 1
    else:
        start = tail.start_index
        last = m + 1 + max(_scan_bound(tail.a, start), _scan_bound(tail.b, start)) - start
    for n in range(1, min(k, last) + 1):
        term_at(cf, n)
    if k < m:
        return CFSpec(Fraction(0), cf.prefix[k:], tail)
    if tail is not None:
        tail = CFTail(tail.a, tail.b, tail.start_index + (k - m))
    return CFSpec(Fraction(0), (), tail)


def cf_from_json(data):
    """Inverse of CFSpec.to_json; malformed input raises ValueError with its path."""
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
