"""Constructions of continued fractions from sequences, series, and products,
plus contractions and the Bauer-Muir transformation.

Every series and product construction goes through one Euler term rule:
_euler_term on rational functions for euler_tail, and the same rule on the
integer numerators and denominators of the values in _euler_body for the
finite ones.  euler_tail and bauer_muir_tail return CFs with a symbolic
tail, from which the families are built.

All constructions here are exact: every output approximant is a prescribed
rational function of the inputs (partial sums, partial products, or a fixed
combination of the source approximants), and the test suite checks those
correspondences term by term.
"""

import itertools
import operator
from fractions import Fraction

from .cf import CFSpec, CFTail, _as_fraction, _as_ratfn, _check_count, _first, _scaled_terms
from .errors import (
    DegenerateTerm,
    NonzeroW0,
    Record,
    RepeatedValue,
    TransformDoesNotExist,
    UnitTerm,
    ZeroEvenDenominator,
    ZeroOddDenominator,
    ZeroTerm,
    ZeroW,
)


class SeriesSpec(Record):
    """Terms a_0, a_1, ... of a series; approximants track partial sums."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self._set(tuple(_as_fraction(t) for t in terms))

    def partial_sums(self):
        return list(itertools.accumulate(self.terms))


class ProductSpec(Record):
    """Factors a_1, a_2, ... of a product; approximants track partial products."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self._set(tuple(_as_fraction(t) for t in factors))

    def partial_products(self):
        return list(itertools.accumulate(self.factors, operator.mul))


class BauerMuirResult(Record):
    """Transformed fraction together with the modifying sequence w and the
    existence margins lambda_n = a_n - w_{n-1} (b_n + w_n), all nonzero: tuples
    from bauer_muir, rational functions of n from bauer_muir_tail."""

    __slots__ = ("cf", "w", "existence_margin")


def _as_sequence(x, attr):
    if isinstance(x, (SeriesSpec, ProductSpec)):
        x = getattr(x, attr)
    return [_as_fraction(t) for t in x]


def _euler_term(rho, u_2, u_1, u):
    """Term n >= 2 of the Euler construction: (-rho_n u_{n-2} u_n, u_{n-1} + rho_n u_n).

    For increments c_n = h_n u_n with h_1 = 1 and term ratio
    rho_n = h_n / h_{n-1}, the CF with first term (u_1, 1), then these terms
    with u_0 = 1, has n-th approximant c_1 + ... + c_n.  It is Euler's CF
    (c_1, 1), (-c_2, c_1 + c_2), (-c_{n-2} c_n, c_{n-1} + c_n) after the
    similarity r_n = 1 / h_{n-1}.  The arguments are either values, for one
    term, or rational functions of n (u_2 and u_1 being u shifted by -2 and
    -1), for the whole tail.
    """
    return -rho * u_2 * u, u_1 + rho * u


def _euler_body(u, rho=None):
    """Euler terms for the Fractions u_1..u_N, with rho[n-1] = rho_n (rho_1 is
    unused) or rho_n = 1 throughout when rho is None: _euler_term on values,
    formed from the numerators P and denominators Q of u (u_0 = 1) and of
    rho_n = rp/rq, each value normalised once."""
    P, Q = [1] + [x.numerator for x in u], [1] + [x.denominator for x in u]
    terms = [(u[0], Fraction(1))] if u else []
    for n in range(2, len(P)):
        rp, rq = (1, 1) if rho is None else (rho[n - 1].numerator, rho[n - 1].denominator)
        terms.append((
            Fraction(-rp * P[n - 2] * P[n], rq * Q[n - 2] * Q[n]),
            Fraction(P[n - 1] * rq * Q[n] + rp * P[n] * Q[n - 1], Q[n - 1] * rq * Q[n]),
        ))
    return tuple(terms)


def bernoulli_from_sequence(K):
    """CF whose n-th approximant is K_n, for a sequence with K_n != K_{n-1}."""
    K = [_as_fraction(t) for t in K]
    if not K:
        raise ValueError("sequence must contain at least K_0")
    deltas = []
    for n in range(1, len(K)):
        d = K[n] - K[n - 1]
        if d == 0:
            raise RepeatedValue(n)
        deltas.append(d)
    return CFSpec._make(K[0], _euler_body(deltas))


def euler_from_series(a):
    """CF whose n-th approximant is the partial sum a_0 + ... + a_n."""
    a = _as_sequence(a, "terms")
    if not a:
        raise ValueError("series must contain at least a_0")
    for n in range(1, len(a)):
        if a[n] == 0:
            raise ZeroTerm(n)
    return CFSpec._make(a[0], _euler_body(a[1:]))


def generalized_euler(a, b):
    """CF whose n-th approximant is b_n + (a_0 + ... + a_n).

    The weight sequence b modifies each partial sum; increments
    c_n = a_n + b_n - b_{n-1} must be nonzero.
    """
    a = _as_sequence(a, "terms")
    b = [_as_fraction(t) for t in b]
    if not a or len(b) != len(a):
        raise ValueError("need weights b_0..b_N matching terms a_0..a_N")
    c = []
    for n in range(1, len(a)):
        cn = a[n] + b[n] - b[n - 1]
        if cn == 0:
            raise DegenerateTerm(n)
        c.append(cn)
    return CFSpec._make(a[0] + b[0], _euler_body(c))


def product_to_cf(a):
    """CF whose n-th approximant is the partial product a_1 ... a_n (x_0 = 1).

    The Euler construction with u_n = a_n - 1 and rho_n = a_{n-1}.
    """
    a = _as_sequence(a, "factors")
    for n in range(1, len(a) + 1):
        v = a[n - 1]
        if v == 0:
            raise ZeroTerm(n)
        if v == 1:
            raise UnitTerm(n)
    return CFSpec._make(Fraction(1), _euler_body([v - 1 for v in a], [1] + a[:-1]))


def generalized_product(a, b):
    """CF whose n-th approximant is b_n * (a_1 ... a_n), with x_0 = b_0.

    The Euler construction with u_n = a_n b_n - b_{n-1} and rho_n = a_{n-1};
    requires every u_n != 0.
    """
    a = _as_sequence(a, "factors")
    b = [_as_fraction(t) for t in b]
    if len(b) != len(a) + 1:
        raise ValueError("need weights b_0..b_N matching factors a_1..a_N")
    u = []
    for n in range(1, len(a) + 1):
        v = a[n - 1] * b[n] - b[n - 1]
        if v == 0:
            raise DegenerateTerm(n)
        u.append(v)
    return CFSpec._make(b[0], _euler_body(u, [1] + a[:-1]))


def euler_tail(b0, u, rho=1):
    """Symbolic Euler CF whose n-th approximant is b0 + h_1 u(1) + ... + h_n u(n),
    where h_1 = 1 and h_n / h_{n-1} = rho(n), for rational functions u and rho.

    Terms 1 and 2 form the prefix; from term 3 on the tail is
    a(n) = -rho(n) u(n-2) u(n), b(n) = u(n-1) + rho(n) u(n) in the term
    index.  The weighted product w(n) a(1)...a(n) is the case
    u = a w - w(n-1), rho = a(n-1), b0 = w(0).  Raises DegenerateTerm when a
    prefix numerator vanishes; a tail numerator vanishes only where rho or u
    has an integer root.
    """
    u = _as_ratfn(u)
    rho = _as_ratfn(rho)
    one = Fraction(1)
    prefix = ((u(1), one), _euler_term(rho(2), one, u(1), u(2)))
    for n, (a, _) in enumerate(prefix, 1):
        if a == 0:
            raise DegenerateTerm(n)
    tail = CFTail(*_euler_term(rho, u.shift(-2), u.shift(-1), u), 3)
    return CFSpec(_as_fraction(b0), prefix, tail)


def _checked_steps(cf, wv, N):
    """Columns a, m, S, L, P, Q over n = 1..N of the integer steps (a, b, m) of cf and
    w_n = P[n]/Q[n]: b_n + w_n = S[n]/(m[n] Q[n]) and lambda_n = L[n]/(m[n] Q[n-1] Q[n]),
    each margin checked as its term is read, before any error from a later term."""
    P, Q = [x.numerator for x in wv], [x.denominator for x in wv]
    columns = [(None, None, None, None)]
    for n, (a, b, m) in enumerate(_first(_scaled_terms(cf), N), 1):
        S = b * Q[n] + P[n] * m
        L = a * Q[n - 1] * Q[n] - P[n - 1] * S
        if L == 0:
            raise TransformDoesNotExist(n)
        columns.append((a, m, S, L))
    return (*zip(*columns), P, Q)


def _contracted(a, b, m, j, error):
    """Integer c, d, den of the contraction term joining terms j+1 and j+2,
    (-a_j a_{j+1} b_{j+2}, a_{j+2} b_j + b_{j+1} b_{j+2} b_j + a_{j+1} b_{j+2}) / b_j
    as (c/den, d/den), from step columns; raises error(j) when b_j = 0."""
    if b[j] == 0:
        raise error(j)
    den = m[j + 1] * m[j + 2] * b[j]
    c = -a[j] * a[j + 1] * b[j + 2]
    d = a[j + 2] * m[j + 1] * b[j] + (b[j + 1] * b[j] + a[j + 1] * m[j]) * b[j + 2]
    return c, d, den


def even_part(cf, N):
    """Contraction whose k-th convergent pair equals (A_{2k}, B_{2k}).

    Consumes terms 1..2N of the input; requires b_{2k} != 0 for the
    denominators that get divided through.  Term k is the _contracted
    term at j = 2k - 2, each value normalised once.
    """
    _check_count(N)
    # step 0 = (-1, 1, 0), b_0 infinite with a_0 = -b_0, gives (a_1 b_2, a_2 + b_1 b_2)
    a, b, m = zip((-1, 1, 0), *_first(_scaled_terms(cf), 2 * N))
    rows = (_contracted(a, b, m, j, ZeroEvenDenominator) for j in range(0, 2 * N, 2))
    return CFSpec._make(cf.b0, tuple((Fraction(c, den), Fraction(d, den)) for c, d, den in rows))


def odd_part(cf, N):
    """Contraction whose k-th convergent pair equals (A_{2k+1}, B_{2k+1}).

    The leading term becomes A_1/B_1, so equality at k = 0 holds in value
    only.  Consumes terms 1..2N+1; requires b_1 and the divided-through odd
    denominators to be nonzero.  Term k is the _contracted term at
    j = 2k - 1, with d_1 and c_2 times b_1, each value normalised once.
    """
    _check_count(N)
    a, b, m = zip((None, None, None), *_first(_scaled_terms(cf), 2 * N + 1))
    if b[1] == 0:
        raise ZeroOddDenominator(1)
    b0 = Fraction(cf.b0.numerator * b[1] + a[1] * cf.b0.denominator, cf.b0.denominator * b[1])
    terms = []
    for j in range(1, 2 * N, 2):
        c, d, den = _contracted(a, b, m, j, ZeroOddDenominator)
        c_den = d_den = den
        if j == 1:
            d, d_den = d * b[1], den * m[1]
        elif j == 3:
            c, c_den = c * b[1], den * m[1]
        terms.append((Fraction(c, c_den), Fraction(d, d_den)))
    return CFSpec._make(b0, tuple(terms))


def _w_values(w, count):
    if callable(w):
        return [_as_fraction(w(n)) for n in range(count)]
    vals = [_as_fraction(x) for x in w]
    if len(vals) < count:
        raise ValueError(f"need w_0..w_{count - 1}, got {len(vals)} values")
    return vals[:count]


def bauer_muir(cf, w, N):
    """Bauer-Muir transform against the modifying sequence w_0..w_N.

    The result's convergent pairs satisfy C_n = A_n + w_n A_{n-1} and
    D_n = B_n + w_n B_{n-1} for all n.  Exists iff every margin
    lambda_n = a_n - w_{n-1} (b_n + w_n) is nonzero.  Each term value and
    margin is normalised once, from the columns of _checked_steps.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    wv = _w_values(w, N + 1)
    a, m, S, L, P, Q = _checked_steps(cf, wv, N)
    lam = tuple(Fraction(L[n], m[n] * Q[n - 1] * Q[n]) for n in range(1, N + 1))
    terms = [(lam[0], Fraction(S[1], m[1] * Q[1]))]
    for n in range(2, N + 1):
        # (a_{n-1} lambda_n / lambda_{n-1}, b_n + w_n - w_{n-2} lambda_n / lambda_{n-1})
        den = m[n] * Q[n] * L[n - 1]
        c, d = a[n - 1] * L[n] * Q[n - 2], S[n] * L[n - 1] - P[n - 2] * L[n] * m[n - 1]
        terms.append((Fraction(c, den), Fraction(d, den)))
    out = CFSpec._make(cf.b0 + wv[0], tuple(terms))
    return BauerMuirResult(out, tuple(wv), lam)


def bauer_muir_tail(cf, w, w0):
    """Bauer-Muir transform of a CF with a symbolic tail against w_0 and the
    rational function w(n), n >= 1.

    With m prefix terms, the terms before k = max(3, m + 2) come from
    bauer_muir; from term k on the result has the symbolic tail
    (a(n-1) lambda(n) / lambda(n-1), b(n) + w(n) - w(n-2) lambda(n) / lambda(n-1))
    with lambda(n) = a(n) - w(n-1) (b(n) + w(n)), all in the term index.
    The result's w and existence_margin are the rational functions w and
    lambda.
    """
    w = _as_ratfn(w)
    m = len(cf.prefix)
    k = max(3, m + 2)
    head = bauer_muir(cf, [w0] + [w(n) for n in range(1, k)], k - 1).cf
    shift = cf.tail.start_index - m - 1
    a, b = cf.tail.a.shift(shift), cf.tail.b.shift(shift)
    lam = a - w.shift(-1) * (b + w)
    ratio = lam / lam.shift(-1)
    tail = CFTail(a.shift(-1) * ratio, b + w - w.shift(-2) * ratio, k)
    return BauerMuirResult(CFSpec(head.b0, head.prefix, tail), w, lam)


def extension_bmoe(cf, w, N):
    """Interleaving extension for a modifying sequence with w_0 = 0.

    Produces 2N+1 terms whose odd-indexed approximants are the Bauer-Muir
    approximants and whose even-indexed ones are the original approximants.
    Requires w_1..w_N nonzero and every margin lambda_1..lambda_{N+1} nonzero.
    Each value is normalised once, from the columns of _checked_steps.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    wv = _w_values(w, N + 2)
    if wv[0] != 0:
        raise NonzeroW0(wv[0])
    for j in range(1, N + 1):
        if wv[j] == 0:
            raise ZeroW(j)
    a, m, S, _, P, Q = _checked_steps(cf, wv, N + 1)
    terms = [(Fraction(a[1], m[1]), Fraction(S[1], m[1] * Q[1]))]
    for n in range(2, N + 2):
        # (-w_{n-1}, 1), then q = a_n / w_{n-1} and b_n + w_n - q over one denominator
        den, q = m[n] * Q[n] * P[n - 1], a[n] * Q[n - 1] * Q[n]
        terms += [(-wv[n - 1], Fraction(1)), (Fraction(q, den), Fraction(S[n] * P[n - 1] - q, den))]
    return CFSpec._make(cf.b0, tuple(terms))
