"""Constructions of continued fractions from sequences, series, and products,
plus contractions and the Bauer-Muir transformation.

Every series and product construction, finite or symbolic, goes through one
Euler term rule (_euler_term); euler_tail and bauer_muir_tail return CFs
with a symbolic tail, from which the families are built.

All constructions here are exact: every output approximant is a prescribed
rational function of the inputs (partial sums, partial products, or a fixed
combination of the source approximants), and the test suite checks those
correspondences term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf import CFSpec, CFTail, _as_fraction, _as_ratfn, _check_count, _iter_terms
from .errors import (
    DegenerateTerm,
    NonzeroW0,
    RepeatedValue,
    TransformDoesNotExist,
    UnitTerm,
    ZeroEvenDenominator,
    ZeroOddDenominator,
    ZeroTerm,
    ZeroW,
)


@dataclass(frozen=True)
class SeriesSpec:
    """Terms a_0, a_1, ... of a series; approximants track partial sums."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(_as_fraction(t) for t in self.terms))

    def partial_sums(self):
        out = []
        total = Fraction(0)
        for t in self.terms:
            total += t
            out.append(total)
        return out


@dataclass(frozen=True)
class ProductSpec:
    """Factors a_1, a_2, ... of a product; approximants track partial products."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "factors", tuple(_as_fraction(t) for t in self.factors)
        )

    def partial_products(self):
        out = []
        total = Fraction(1)
        for t in self.factors:
            total *= t
            out.append(total)
        return out


@dataclass(frozen=True)
class BauerMuirResult:
    """Transformed fraction together with the modifying sequence w and the
    existence margins lambda_n = a_n - w_{n-1} (b_n + w_n), all nonzero: tuples
    from bauer_muir, rational functions of n from bauer_muir_tail."""

    cf: CFSpec
    w: tuple
    existence_margin: tuple


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
    """Euler terms for u_1..u_N, with rho[n-1] = rho_n (rho_1 is unused) or
    rho_n = 1 throughout when rho is None."""
    u = [Fraction(1)] + list(u)
    terms = [(u[1], Fraction(1))] if len(u) > 1 else []
    for n in range(2, len(u)):
        r = 1 if rho is None else rho[n - 1]
        terms.append(_euler_term(r, u[n - 2], u[n - 1], u[n]))
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
    return CFSpec(K[0], _euler_body(deltas), None)


def euler_from_series(a):
    """CF whose n-th approximant is the partial sum a_0 + ... + a_n."""
    a = _as_sequence(a, "terms")
    if not a:
        raise ValueError("series must contain at least a_0")
    for n in range(1, len(a)):
        if a[n] == 0:
            raise ZeroTerm(n)
    return CFSpec(a[0], _euler_body(a[1:]), None)


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
    return CFSpec(a[0] + b[0], _euler_body(c), None)


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
    return CFSpec(Fraction(1), _euler_body([v - 1 for v in a], [1] + a[:-1]), None)


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
    return CFSpec(b[0], _euler_body(u, [1] + a[:-1]), None)


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


def _checked_terms(cf, wv, N):
    """Terms 1..N of cf and their margins lambda_n = a_n - w_{n-1} (b_n + w_n),
    each checked as its term is read, before any error from a later term."""
    terms, lam = [], []
    for n, (a, b) in enumerate(_iter_terms(cf, N), 1):
        lam.append(a - wv[n - 1] * (b + wv[n]))
        if lam[-1] == 0:
            raise TransformDoesNotExist(n)
        terms.append((a, b))
    return terms, lam


def even_part(cf, N):
    """Contraction whose k-th convergent pair equals (A_{2k}, B_{2k}).

    Consumes terms 1..2N of the input; requires b_{2k} != 0 for the
    denominators that get divided through.
    """
    _check_count(N)
    a, b = zip((None, None), *_iter_terms(cf, 2 * N))  # a_n = a[n], b_n = b[n]
    terms = []
    for k in range(1, N + 1):
        if k == 1:
            c = b[2] * a[1]
            d = b[2] * b[1] + a[2]
        else:
            if b[2 * k - 2] == 0:
                raise ZeroEvenDenominator(2 * k - 2)
            ratio = b[2 * k] / b[2 * k - 2]
            c = -a[2 * k - 2] * a[2 * k - 1] * ratio
            d = a[2 * k] + b[2 * k - 1] * b[2 * k] + a[2 * k - 1] * ratio
        terms.append((c, d))
    return CFSpec(cf.b0, tuple(terms), None)


def odd_part(cf, N):
    """Contraction whose k-th convergent pair equals (A_{2k+1}, B_{2k+1}).

    The leading term becomes A_1/B_1, so equality at k = 0 holds in value
    only.  Consumes terms 1..2N+1; requires b_1 and the divided-through odd
    denominators to be nonzero.
    """
    _check_count(N)
    a, b = zip((None, None), *_iter_terms(cf, 2 * N + 1))
    if b[1] == 0:
        raise ZeroOddDenominator(1)
    b0 = (cf.b0 * b[1] + a[1]) / b[1]
    terms = []
    for k in range(1, N + 1):
        if k == 1:
            c = -a[1] * a[2] * b[3] / b[1]
            d = b[1] * (a[3] + b[2] * b[3]) + a[2] * b[3]
        elif k == 2:
            if b[3] == 0:
                raise ZeroOddDenominator(3)
            c = -a[3] * a[4] * b[5] * b[1] / b[3]
            d = a[5] + b[4] * b[5] + a[4] * b[5] / b[3]
        else:
            if b[2 * k - 1] == 0:
                raise ZeroOddDenominator(2 * k - 1)
            ratio = b[2 * k + 1] / b[2 * k - 1]
            c = -a[2 * k - 1] * a[2 * k] * ratio
            d = a[2 * k + 1] + b[2 * k] * b[2 * k + 1] + a[2 * k] * ratio
        terms.append((c, d))
    return CFSpec(b0, tuple(terms), None)


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
    lambda_n = a_n - w_{n-1} (b_n + w_n) is nonzero.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    wv = _w_values(w, N + 1)
    source, lam = _checked_terms(cf, wv, N)
    terms = [(lam[0], source[0][1] + wv[1])]
    for n in range(2, N + 1):
        (a_prev, _), (_, b) = source[n - 2], source[n - 1]
        ratio = lam[n - 1] / lam[n - 2]
        terms.append((a_prev * ratio, b + wv[n] - wv[n - 2] * ratio))
    out = CFSpec(cf.b0 + wv[0], tuple(terms), None)
    return BauerMuirResult(out, tuple(wv), tuple(lam))


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
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    wv = _w_values(w, N + 2)
    if wv[0] != 0:
        raise NonzeroW0(wv[0])
    for j in range(1, N + 1):
        if wv[j] == 0:
            raise ZeroW(j)
    source, _ = _checked_terms(cf, wv, N + 1)
    a1, b1 = source[0]
    terms = [(a1, b1 + wv[1])]
    for j, (a_next, b_next) in enumerate(source[1:], 1):
        terms.append((-wv[j], Fraction(1)))
        q = a_next / wv[j]
        terms.append((q, b_next + wv[j + 1] - q))
    return CFSpec(cf.b0, tuple(terms), None)
