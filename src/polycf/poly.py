"""Exact integer polynomials and rational functions in one variable n."""

import itertools
import math
import operator
import re
from fractions import Fraction

from .errors import PoleAtArgument, ZeroFunction


# the degree of the zero function: compares below every integer and absorbs +
MINUS_INFINITY = -math.inf
# largest exponent of n in a polynomial string: ex2.5, the slowest preset
# to build, takes about 0.1 s at c = n^32+2, and its polynomial gcds grow
# like the fifth power of the degree
_MAX_POLY_EXPONENT = 32
# largest degree of num plus den in JSON input: ex2.5 at c of degree 32 over
# 32, the largest preset output, has 192; at 96 over 96 the gcd takes 0.7 s
# on c(n)^2/(c(n-1)c(n-2)), c = n^48+2, and 2 s with random 20-digit
# coefficients, growing like the fifth power of the degree
_MAX_JSON_DEGREE = 192
# most decimal digits in a coefficient of a polynomial string, above the 13
# of 10^12 in the CLI tests: ex2.5's gcds take about 2 s on a random degree-32 c
# with 16-digit coefficients, 4.6 s at 30 digits and 41 s at 100
_MAX_POLY_DIGITS = 16
# most decimal digits in a coefficient of JSON input: ex3.4's output has 42 at
# k = 40 (47 at A = 10^6), every preset's at its defaults at most 6; the gcd
# of a random 96-over-96 tail takes 10 s at 48 digits and 35 s at 100
_MAX_JSON_DIGITS = 48
# largest decimal exponent in a rational string, far past the 1233 digits of
# 4096-bit precision: 1e-10000 parses in 0.2 ms, but Fraction's cost and that
# of exact arithmetic on its value grow faster than the exponent
_MAX_DECIMAL_EXPONENT = 10000


def _floor_nth_root(m, d):
    """Largest r >= 0 with r**d <= m (0 for m <= 0), for d >= 1: isqrt, or
    Newton steps g -> ((d-1) g + m // g^(d-1)) // d, which fall from any g >= r
    to r (Brent and Zimmermann, Modern Computer Arithmetic, 1.5), started one
    unit above the root of m's top bits.  For r of more than 32 bits those
    give about 16 bits more than half of r's, so one step at full width lands
    on r, or rarely r + 1, and one exact check g^d <= m ends it; otherwise,
    and for shorter roots, the steps go on until they stop falling."""
    if m <= 0:
        return 0
    if d == 1:
        return m
    if d == 2:
        return math.isqrt(m)
    k = m.bit_length() // (2 * d)
    if k > 16:
        g = (_floor_nth_root(m >> ((k - 16) * d), d) + 1) << (k - 16)
        g = ((d - 1) * g + m // g ** (d - 1)) // d
        if g ** d <= m:
            return g
    else:
        g = (_floor_nth_root(m >> (k * d), d) + 1) << k if k else 1 << (m.bit_length() // d + 1)
    while True:
        nxt = ((d - 1) * g + m // g ** (d - 1)) // d
        if nxt >= g:
            return g
        g = nxt


def _ceil_nth_root(m, d):
    """Smallest t >= 0 with t**d >= m."""
    r = _floor_nth_root(m, d)
    return r if r**d >= m else r + 1


def _as_int(c):
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    raise TypeError(f"integer coefficient required, got {c!r}")


class IntPolynomial:
    """Polynomial with integer coefficients, stored ascending by power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cleaned = [c if type(c) is int else _as_int(c) for c in coeffs]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        self.coeffs = tuple(cleaned)

    @classmethod
    def _make(cls, coeffs):
        """Trusted constructor: coeffs is a tuple of ints, already trimmed."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def variable(cls):
        return cls((0, 1))

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    @property
    def leading_coefficient(self):
        if not self.coeffs:
            raise ZeroFunction("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def content(self):
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def __call__(self, n):
        result = 0
        for c in reversed(self.coeffs):
            result = result * n + c
        return result

    def values_from(self, x):
        """Iterator over p(x), p(x + 1), p(x + 2), ... by forward differences.

        The difference table at x is built once; after that each value costs
        deg(p) integer additions, all done inside itertools.
        """
        row = [self(x + i) for i in range(len(self.coeffs))]
        if not row:
            return itertools.repeat(0)
        heads = []
        while row:
            heads.append(row[0])
            row = [hi - lo for lo, hi in zip(row, row[1:])]
        values = itertools.repeat(heads.pop())
        for head in reversed(heads):
            values = itertools.accumulate(values, initial=head)
        return values

    def __add__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        while merged and merged[-1] == 0:
            merged.pop()
        return IntPolynomial._make(tuple(merged))

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial._make(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        p, q = (self, other) if len(self.coeffs) <= len(other.coeffs) else (other, self)
        if len(p.coeffs) <= 1:
            # a constant factor: 0 and 1 give an operand back, others scale
            if not p.coeffs or p.coeffs[0] == 1:
                return q if p.coeffs else p
            return q._scaled(p.coeffs[0])
        out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
        for i, a in enumerate(p.coeffs):
            for j, b in enumerate(q.coeffs, i):
                out[j] += a * b
        return IntPolynomial._make(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = _ONE
        for _ in range(exponent):
            result = result * self
        return result

    def shift(self, h):
        """Return the polynomial p(n + h)."""
        h = _as_int(h)
        out = []
        for c in reversed(self.coeffs):
            # Horner's rule: out <- (n + h) out + c
            prev = out
            out = [h * x for x in prev] + [0]
            for i, x in enumerate(prev):
                out[i + 1] += x
            out[0] += c
        return IntPolynomial._make(tuple(out))

    def root_bound(self):
        """Integer bound R with every complex root strictly inside |z| < R.

        Minimum of the Cauchy bound and a Fujiwara-type bound; the latter stays
        small for products of low-root factors whose expanded middle
        coefficients are enormous.
        """
        if len(self.coeffs) <= 1:
            return 0
        lead = abs(self.coeffs[-1])
        n = len(self.coeffs) - 1
        top = max(abs(c) for c in self.coeffs[:-1])
        cauchy = 1 + -(-top // lead)
        fuji = 0
        for i, c in enumerate(self.coeffs[:-1]):
            if c == 0:
                continue
            m = -(-abs(c) // lead)
            fuji = max(fuji, _ceil_nth_root(m, n - i))
        return min(cauchy, 2 * fuji + 1)

    def primitive_part(self):
        c = self.content
        return self if c in (0, 1) else self._scaled(1, c)

    def _scaled(self, c, d=1):
        """c p / d, for a nonzero int c and an int d that divides c p."""
        return IntPolynomial._make(tuple(c * k // d for k in self.coeffs))

    def to_json(self):
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data, path="$"):
        """Inverse of to_json; malformed input raises ValueError with its path."""
        return cls(json_list(data, path, "int"))

    def __eq__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            if power == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                term = f"{mag}n" if power == 1 else f"{mag}n^{power}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _as_polynomial(v):
    if isinstance(v, IntPolynomial):
        return v
    if isinstance(v, int):
        return IntPolynomial((v,))
    if isinstance(v, Fraction) and v.denominator == 1:
        return IntPolynomial((v.numerator,))
    return NotImplemented


def _pseudo_remainder(a, b):
    """Remainder of lc(b)^k a on division by b, in integers (ascending lists)."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(a) > db:
        c, shift = a.pop(), len(a) - db
        a = [x * lead for x in a]
        for j, bc in enumerate(b[:-1]):
            a[shift + j] -= c * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_gcd(p, q):
    """Primitive integer gcd with positive leading coefficient.

    Euclid's algorithm on pseudo-remainders, each made primitive, so every
    coefficient stays an integer (the primitive remainder sequence).
    """
    a, b = p.coeffs, q.coeffs
    while b:
        if len(b) == 1:
            return _ONE
        a, b = b, IntPolynomial._make(tuple(_pseudo_remainder(a, b))).primitive_part().coeffs
    a = IntPolynomial._make(a).primitive_part()
    return a if a.is_zero or a.coeffs[-1] > 0 else -a


def _exact_div(p, g):
    """p / g for a g that divides p in Z[x], as every caller's g does: a
    primitive gcd of p (Gauss's lemma), or a product of such factors."""
    if g.coeffs == (1,):
        return p
    num = list(p.coeffs)
    dg, lead = len(g.coeffs) - 1, g.coeffs[-1]
    quot = [0] * max(len(num) - dg, 0)
    for i in range(len(num) - 1, dg - 1, -1):
        quot[i - dg] = c = num[i] // lead
        for j, gc in enumerate(g.coeffs):
            num[i - dg + j] -= c * gc
    return IntPolynomial._make(tuple(quot))


_ONE = IntPolynomial._make((1,))


def _as_num_den(v):
    if isinstance(v, RationalFunction):
        return v.num, v.den
    if isinstance(v, IntPolynomial):
        return v, _ONE
    if isinstance(v, int):
        return IntPolynomial((v,)), _ONE
    if isinstance(v, Fraction):
        return IntPolynomial((v.numerator,)), IntPolynomial((v.denominator,))
    return None


def _reduced(num, den):
    """The RationalFunction num/den in normal form, for polynomials num, den.

    A constant side shares no non-constant factor with the other, so there
    only the contents are reduced.
    """
    if den.is_zero:
        raise ZeroFunction("division by the zero function")
    if num.is_zero:
        den = _ONE
    else:
        if len(num.coeffs) > 1 and len(den.coeffs) > 1:
            g = _poly_gcd(num, den)
            num, den = _exact_div(num, g), _exact_div(den, g)
        c = math.gcd(num.content, den.content)
        sign = 1 if den.coeffs[-1] > 0 else -1
        if c != 1 or sign < 0:
            num, den = num._scaled(sign, c), den._scaled(sign, c)
    return RationalFunction._make(num, den)


def _binary(op):
    """A RationalFunction operator: op on the (num, den) pairs of self and other."""

    def method(self, other):
        parts = _as_num_den(other)
        return NotImplemented if parts is None else op(self.num, self.den, *parts)

    return method


class RationalFunction:
    """Quotient of integer polynomials, kept in primitive reduced form.

    The polynomial gcd of numerator and denominator is removed, the pair is
    scaled so gcd(content(num), content(den)) = 1, and the denominator has a
    positive leading coefficient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        top = _as_num_den(num)
        bottom = _as_num_den(den)
        if top is None or bottom is None:
            raise TypeError(f"cannot build a rational function from {num!r}/{den!r}")
        r = _reduced(top[0] * bottom[1], top[1] * bottom[0])
        self.num, self.den = r.num, r.den

    @classmethod
    def _make(cls, num, den):
        """Trusted constructor: num/den is already in normal form."""
        out = object.__new__(cls)
        out.num, out.den = num, den
        return out

    @classmethod
    def variable(cls):
        return cls(IntPolynomial.variable())

    @property
    def is_zero(self):
        return self.num.is_zero

    def __call__(self, n):
        bottom = self.den(n)
        if bottom == 0:
            raise PoleAtArgument(n)
        return Fraction(self.num(n), bottom) if isinstance(bottom, int) else self.num(n) / bottom

    def shift(self, h):
        """Return the rational function r(n + h).

        A shift keeps the normal form (no common factor, coprime contents,
        positive leading denominator coefficient), so none is recomputed.
        """
        return RationalFunction._make(self.num.shift(h), self.den.shift(h))

    # a/b (self) with c/d (other)
    __add__ = __radd__ = _binary(lambda a, b, c, d: _reduced(a * d + c * b, b * d))
    __sub__ = _binary(lambda a, b, c, d: _reduced(a * d - c * b, b * d))
    __rsub__ = _binary(lambda a, b, c, d: _reduced(c * b - a * d, b * d))
    __mul__ = __rmul__ = _binary(lambda a, b, c, d: _reduced(a * c, b * d))
    __truediv__ = _binary(lambda a, b, c, d: _reduced(a * d, b * c))
    __rtruediv__ = _binary(lambda a, b, c, d: _reduced(c * b, d * a))

    def __neg__(self):
        return RationalFunction._make(-self.num, self.den)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("rational-function exponent must be a non-negative integer")
        return RationalFunction._make(self.num**exponent, self.den**exponent)

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data, path="$"):
        """Inverse of to_json; malformed input raises ValueError with its path."""
        obj = json_value(data, path, "object")
        num, den = (IntPolynomial.from_json(obj.get(k), f"{path}.{k}") for k in ("num", "den"))
        if den.is_zero:
            raise ValueError(f"{path}.den: the zero polynomial")
        if num.degree + den.degree > _MAX_JSON_DEGREE:
            raise ValueError(f"{path}: degree {num.degree} over {den.degree}, above {_MAX_JSON_DEGREE} in all")
        if _digits_above(num.coeffs + den.coeffs, _MAX_JSON_DIGITS):
            raise ValueError(f"{path}: a coefficient above {_MAX_JSON_DIGITS} digits")
        return cls(num, den)

    def __eq__(self, other):
        parts = _as_num_den(other)
        if parts is None:
            return NotImplemented
        other = other if isinstance(other, RationalFunction) else _reduced(*parts)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den.degree == 0 and self.den.coeffs[0] == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"


def degree(r):
    """Degree of a rational function; MINUS_INFINITY for zero."""
    if r.is_zero:
        return MINUS_INFINITY
    return r.num.degree - r.den.degree


def leading_coefficient(r):
    """Leading coefficient of numerator over leading coefficient of
    denominator; the zero function raises ZeroFunction."""
    return Fraction(r.num.leading_coefficient, r.den.leading_coefficient)


def _scan_bound(r, from_n):
    """Last integer argument that could sit at or before a root or pole."""
    return max(r.num.root_bound(), r.den.root_bound(), from_n - 1)


def _keeps_sign(p, from_n):
    """Whether by Descartes' rule of signs p(n) keeps one sign for n >= from_n:
    p(x + from_n) has no sign change among its coefficients and p(from_n) != 0."""
    q = p.shift(from_n).coeffs
    return bool(q) and q[0] != 0 and (min(q) >= 0 or max(q) <= 0)


def _signs(r, from_n):
    """The one scan behind the sign predicates: the first pole n >= from_n
    raises PoleAtArgument, found from the denominator's integer values up to
    its root bound; then, lazily and with no Fraction built, num(n) den(n) for
    n = from_n, ..., _scan_bound(r, from_n) + 1, or for n = from_n alone when
    num and den both _keeps_sign.  Their signs are those of r(n), n >= from_n."""
    r = r if isinstance(r, RationalFunction) else RationalFunction(r)
    den_keeps = _keeps_sign(r.den, from_n)
    if not den_keeps:
        den_values = itertools.islice(r.den.values_from(from_n), max(r.den.root_bound() + 1 - from_n, 0))
        for pole in itertools.compress(itertools.count(from_n), map(operator.not_, den_values)):
            raise PoleAtArgument(pole)
    last = from_n if den_keeps and _keeps_sign(r.num, from_n) else _scan_bound(r, from_n) + 1
    num_values = itertools.islice(r.num.values_from(from_n), last + 1 - from_n)
    return map(operator.mul, num_values, r.den.values_from(from_n))


def eventually_positive(r, from_n):
    """Exact test of r(n) > 0 for every integer n >= from_n; a pole raises."""
    return all(s > 0 for s in _signs(r, from_n))


def eventually_nonnegative(r, from_n):
    """Exact test of r(n) >= 0 for every integer n >= from_n; a pole raises."""
    return all(s >= 0 for s in _signs(r, from_n))


def has_integer_root_at_or_after(r, from_n):
    """Exact test for an integer n >= from_n with r(n) = 0, which for the
    reduced r is a root of the numerator, never a pole: _signs reads it alone."""
    return 0 in _signs(r.num if isinstance(r, RationalFunction) else RationalFunction(r).num, from_n)


def json_value(value, path, kind):
    """One value of parsed JSON input, checked: kind "object" or "list" is a
    JSON object or array, "int" an integer or decimal-integer string, and
    "rational" an integer or a string such as "p/q" with q != 0.

    Malformed input raises ValueError naming its JSON path, as does a
    decimal exponent above _MAX_DECIMAL_EXPONENT, before Fraction expands it.
    """
    if kind in ("object", "list"):
        if isinstance(value, dict if kind == "object" else list):
            return value
    elif isinstance(value, (int, str)) and not isinstance(value, bool):
        exp = _DECIMAL_EXP_RE.search(value) if isinstance(value, str) else None
        if exp and not _at_most(exp.group(1), _MAX_DECIMAL_EXPONENT):
            raise ValueError(f"{path}: decimal exponent above {_MAX_DECIMAL_EXPONENT}")
        try:
            return int(str(value), 10) if kind == "int" else Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{path}: expected {kind}, got {value!r}")


def json_list(value, path, kind):
    """A JSON array whose items are each json_value(item, path[i], kind)."""
    items = json_value(value, path, "list")
    return [json_value(v, f"{path}[{i}]", kind) for i, v in enumerate(items)]


_TERM_RE = re.compile(r"([+-]?)(\d+)?(?:\*?n(?:[\^](\d+))?)?$")
# one side of a rational-function string: text with no parentheses, inside
# at most one pair of them (the group lengths must then match)
_SIDE_RE = re.compile(r"(\(?)([^()]*)(\)?)")
# the exponent digits of a decimal string such as "1.5e-20", as Fraction reads it
_DECIMAL_EXP_RE = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _at_most(digits, bound):
    """Whether the decimal digits (underscores allowed) name at most bound,
    decided without converting a long string."""
    digits = digits.replace("_", "").lstrip("0")
    return len(digits) <= len(str(bound)) and int(digits or "0") <= bound


def _digits_above(coeffs, digits):
    """Whether an int of coeffs has more than digits decimal digits."""
    limit = 10**digits
    return any(not -limit < c < limit for c in coeffs)


def poly_from_string(text):
    """Parse strings like "3n^2 - n + 1" into an IntPolynomial; an exponent
    above _MAX_POLY_EXPONENT raises ValueError before anything is built, and
    a coefficient above _MAX_POLY_DIGITS digits before any gcd reads it."""
    s = text.replace(" ", "").replace("**", "^")
    if not s:
        raise ValueError("empty polynomial string")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise ValueError(f"cannot parse polynomial {text!r}")
    coeffs = {}
    for chunk in chunks:
        m = _TERM_RE.fullmatch(chunk)
        if not m or (m.group(2) is None and "n" not in chunk):
            raise ValueError(f"cannot parse polynomial term {chunk!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) is not None else 1
        if "n" not in chunk:
            power = 0
        elif m.group(3) is None:
            power = 1
        elif _at_most(m.group(3), _MAX_POLY_EXPONENT):
            power = int(m.group(3))
        else:
            raise ValueError(f"exponent of n above {_MAX_POLY_EXPONENT} in {chunk[:40]!r}")
        coeffs[power] = coeffs.get(power, 0) + sign * coeff
    out = [0] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    if _digits_above(out, _MAX_POLY_DIGITS):
        raise ValueError(f"coefficient above {_MAX_POLY_DIGITS} digits in {text[:40]!r}")
    return IntPolynomial(out)


def ratfn_from_string(text):
    """Parse "p" or "p/q": at most one "/", and each side a poly_from_string
    string inside at most one pair of parentheses; a zero q raises ValueError."""
    sides = [_SIDE_RE.fullmatch(side) for side in text.replace(" ", "").split("/")]
    if len(sides) > 2 or not all(m and len(m[1]) == len(m[3]) for m in sides):
        raise ValueError(f"cannot parse rational function {text!r}")
    top, *bottom = (poly_from_string(m[2]) for m in sides)
    if bottom and bottom[0].is_zero:
        raise ValueError(f"zero denominator in {text!r}")
    return RationalFunction(top, *bottom)
