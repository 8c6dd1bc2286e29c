"""Infinite families of continued fractions with exactly known limits.

Each constructor returns a FamilyMember: a CFSpec (usually with a symbolic
tail), a claimed limit (exact rational or a named constant), and a list of
machine-checked hypotheses.  A member whose hypotheses all hold is verified;
a failed hypothesis flags the member unverified but never blocks
construction, since convergence can hold outside the certified range.
Construction raises only when the CF itself does not exist, for instance
when a first term is zero (DegenerateTerm) or undefined (PoleAtArgument).

The closed-form families compose the package's transforms, each followed by
the integer form cf.integer_tail_form: family_zeta, family_pi and
family_binomial are the symbolic Euler construction (transforms.euler_tail)
of their perturbed partial sums, with term ratio rho = 1, -1 and
(alpha-n+2) x/(n-1); family_sin_product is the weighted product (Euler with
u = a w - w(n-1) and rho = a(n-1)); family_e_bauer_muir is Bauer-Muir
(transforms.bauer_muir_tail) on the e preset.  A terminating binomial series
is the finite transforms.generalized_euler of its terms instead.  Presets
ex3.3, ex3.4, ex3.5, ex4.2 and ex5.6 are members of these five.  A g_nonzero
hypothesis says that u(n) has no integer root n >= 1, so no tail numerator
vanishes.

Every Pincherle preset is _pincherle, pincherle_family's construction of
(H, b) without its hypotheses, followed by the integer form where the tail
is not already integral: family_rational_limit (ex1.1), pincherle_poly_family
(ex2.4, H = f/g and b = c/d), ex2.2 (H = n + 2) and ex2.5 (H = 1 and
b = c(n)^2/c(n-1)).  These state hypotheses of their own instead of
pincherle_family's three.
"""

from fractions import Fraction

from .cf import CFSpec, CFTail, _as_fraction, _as_ratfn, integer_tail_form
from .errors import HypothesisViolation, PoleAtArgument, Record
from .poly import (
    RationalFunction,
    degree,
    eventually_nonnegative,
    eventually_positive,
    has_integer_root_at_or_after,
    json_value,
    leading_coefficient,
)
from .transforms import bauer_muir_tail, euler_tail, generalized_euler

_N = RationalFunction.variable()
# largest zeta exponent family_zeta builds; see its docstring
_ZETA_MAX_K = 40
# 2 + K((n+1)/(n+1)), the e preset
_E_CF = CFSpec(Fraction(2), (), CFTail(_N, _N, 2))


class Hypothesis(Record):
    __slots__ = ("name", "holds", "detail")
    _defaults = {"detail": ""}


class NamedConstant(Record):
    """Reference constant identified by name plus exact integer parameters.

    Known names: PiOver4, E, Zeta (k), Root (p, q, r, s meaning (p/q)^(r/s)),
    SineProduct (m, meaning m sin(pi/m)/pi), BrounckerPi (4/pi).
    """

    __slots__ = ("name", "params")

    def __init__(self, name, params=None):
        self._set(name, {} if params is None else params)

    def describe(self):
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.name}({inner})"


class LimitClaim(Record):
    __slots__ = ("kind", "value", "constant")
    _defaults = {"value": None, "constant": None}

    @classmethod
    def exact(cls, value):
        return cls(kind="exact", value=_as_fraction(value, "value"))

    @classmethod
    def named(cls, name, **params):
        return cls(kind="named", constant=NamedConstant(name, dict(params)))

    def describe(self):
        if self.kind == "exact":
            return str(self.value)
        return self.constant.describe()

    def to_json(self):
        if self.kind == "exact":
            return {"kind": "exact", "value": str(self.value)}
        return {
            "kind": "named",
            "name": self.constant.name,
            "params": {k: str(v) for k, v in sorted(self.constant.params.items())},
        }


class FamilyMember(Record):
    __slots__ = ("cf", "limit", "hypotheses")
    _defaults = {"hypotheses": ()}

    @property
    def verified(self):
        return all(h.holds for h in self.hypotheses)


def _hyp(name, check, detail):
    try:
        ok = bool(check())
    except PoleAtArgument as e:
        return Hypothesis(name, False, f"{detail}; pole at n = {e.argument}")
    return Hypothesis(name, ok, detail)


def _growth_ok(b):
    d = degree(b)
    return d > 0 or (d == 0 and leading_coefficient(b) > 1)


def _pincherle(H, b):
    """The CF and limit of pincherle_family(H, b), without its hypotheses,
    for rational functions H and b."""
    try:
        h_m1 = H(-1)
        h_0 = H(0)
    except PoleAtArgument as e:
        raise HypothesisViolation("limit_defined", f"H has a pole at n = {e.argument}")
    if h_m1 == 0:
        raise HypothesisViolation("limit_defined", "H(-1) must be nonzero")
    a = (H + b * H.shift(-1)) / H.shift(-2)
    return CFSpec(Fraction(0), (), CFTail(a, b, 1)), LimitClaim.exact(h_0 / h_m1)


def pincherle_family(H, b):
    """CF with a_n = (H(n) + b(n) H(n-1)) / H(n-2) and denominators b(n).

    Under the hypotheses the limit is H(0)/H(-1) regardless of b, so one
    choice of H yields an infinite class of fractions with a common limit.
    """
    H = _as_ratfn(H)
    b = _as_ratfn(b)
    cf, limit = _pincherle(H, b)
    hyps = (
        _hyp("H_positive", lambda: eventually_positive(H, -1), "H(n) > 0 for n >= -1"),
        _hyp("b_positive", lambda: eventually_positive(b, 1), "b(n) > 0 for n >= 1"),
        _hyp(
            "b_growth",
            lambda: _growth_ok(b),
            "degree(b) > 0, or b constant with value > 1",
        ),
    )
    return FamilyMember(cf, limit, hyps)


def pincherle_poly_family(f, g, c, d):
    """Polynomial form of the same construction, with H = f/g and b = c/d:
    pincherle_family followed by the integer form.

    The limit f(0) g(-1) / (g(0) f(-1)) is independent of c and d.
    """
    f, g, c, d = (_as_ratfn(v) for v in (f, g, c, d))
    cf, limit = _pincherle(f / g, c / d)
    hyps = (
        _hyp(
            "fg_positive",
            lambda: eventually_positive(f * g, -1),
            "f(n), g(n) nonzero with equal signs for n >= -1",
        ),
        _hyp(
            "cd_positive",
            lambda: eventually_positive(c * d, 0),
            "c(n), d(n) nonzero with equal signs for n >= 0",
        ),
        _hyp(
            "cd_growth",
            lambda: _growth_ok(c / d),
            "degree(c) > degree(d), or equal degrees with larger leading "
            "coefficient in c",
        ),
    )
    return FamilyMember(integer_tail_form(cf), limit, hyps)


def _value_at_zero(f, name):
    try:
        return f(0)
    except PoleAtArgument as e:
        raise HypothesisViolation(
            "leading_term_defined", f"{name} has a pole at n = {e.argument}"
        )


def _u_nonzero(u, detail):
    return _hyp("g_nonzero", lambda: not has_integer_root_at_or_after(u, 1), detail)


def family_pi(f):
    """Perturbed alternating-odd-reciprocal series as a CF converging to pi/4.

    The n-th approximant is sum_{k=1..n} (-1)^(k-1)/(2k-1) + (-1)^(n-1)/f(n);
    the perturbation vanishes when f grows, leaving pi/4.  Built by the
    Euler construction with rho = -1 and u(n) = 1/(2n-1) + 1/f(n) + 1/f(n-1),
    followed by the integer form.
    """
    f = _as_ratfn(f)
    f0 = _value_at_zero(f, "f")
    if f0 == 0:
        raise HypothesisViolation("leading_term_defined", "f(0) must be nonzero")
    u = 1 / (2 * _N - 1) + 1 / f + 1 / f.shift(-1)
    cf = integer_tail_form(euler_tail(-1 / f0, u, -1))
    hyps = (
        _hyp("f_positive", lambda: eventually_positive(f, 1), "f(n) > 0 for n >= 1"),
        _hyp(
            "perturbation_vanishes",
            lambda: degree(f) >= 1,
            "degree(f) >= 1 so the perturbation 1/f(n) tends to 0",
        ),
        _u_nonzero(u, "u(n) = 1/(2n-1) + 1/f(n) + 1/f(n-1) nonzero for n >= 1"),
    )
    return FamilyMember(cf, LimitClaim.named("PiOver4"), hyps)


def family_zeta(k, d):
    """Perturbed partial sums of sum 1/n^k as a CF converging to zeta(k).

    The n-th approximant is sum_{j=1..n} 1/j^k + 1/d(n).  Built by the Euler
    construction with rho = 1 and u(n) = 1/n^k + 1/d(n) - 1/d(n-1), followed
    by the integer form.  The term 1/n^k is a dense polynomial of degree k,
    and the build's cost grows faster than k^5 (k = 100 takes about 150
    times as long as k = 40), so k is bounded by _ZETA_MAX_K before anything
    is built.
    """
    if not isinstance(k, int) or not 2 <= k <= _ZETA_MAX_K:
        raise ValueError(f"k must be an integer with 2 <= k <= {_ZETA_MAX_K}")
    d = _as_ratfn(d)
    d0 = _value_at_zero(d, "d")
    if d0 == 0:
        raise HypothesisViolation("leading_term_defined", "d(0) must be nonzero")
    u = 1 / _N ** k + 1 / d - 1 / d.shift(-1)
    cf = integer_tail_form(euler_tail(1 / d0, u))
    hyps = (
        _hyp(
            "d_growth",
            lambda: degree(d) >= 1,
            "degree(d) >= 1 so the perturbation 1/d(n) tends to 0",
        ),
        _u_nonzero(u, "u(n) = 1/n^k + 1/d(n) - 1/d(n-1) nonzero for n >= 1"),
    )
    return FamilyMember(cf, LimitClaim.named("Zeta", k=k), hyps)


def _binomial_finite(alpha, x, r):
    # s_0..s_alpha, then a zero term and weight for the exact sum; trailing
    # zero increments are dropped
    s = [Fraction(1)]
    for n in range(1, int(alpha) + 1):
        s.append(s[-1] * (alpha - n + 1) * x / n)
    terms = s + [Fraction(0)]
    weights = [r(n) * t for n, t in enumerate(s)] + [Fraction(0)]
    while len(terms) > 1 and terms[-1] + weights[-1] == weights[-2]:
        del terms[-1], weights[-1]
    return generalized_euler(terms, weights)


def family_binomial(alpha, x, r):
    """Perturbed binomial series as a CF converging to (1+x)^alpha.

    The n-th approximant is sum_{k=0..n} ff(alpha,k) x^k / k! + r(n) s_n,
    where ff is the falling factorial and s_n the n-th series term.  A
    non-negative integer alpha terminates the series and yields a finite CF
    with exact final value: generalized_euler of the terms s_n with weights
    r(n) s_n.  Otherwise the CF is built by the Euler construction with
    rho(n) = (alpha-n+2) x/(n-1) (the ratio s_{n-1}/s_{n-2}) and
    u(n) = (alpha-n+1) x (1+r(n))/n - r(n-1), followed by the integer form.
    """
    alpha = _as_fraction(alpha, "alpha")
    x = _as_fraction(x, "x")
    r = _as_ratfn(r)
    r0 = _value_at_zero(r, "r")
    hyps = [_hyp("x_bounded", lambda: abs(x) < 1, "|x| < 1")]
    if alpha.denominator == 1:
        limit = LimitClaim.exact((1 + x) ** int(alpha))
        if alpha >= 0:
            return FamilyMember(_binomial_finite(alpha, x, r), limit, tuple(hyps))
    else:
        base = 1 + x
        if base <= 0:
            raise HypothesisViolation("base_positive", "1 + x must be positive")
        limit = LimitClaim.named(
            "Root",
            p=base.numerator,
            q=base.denominator,
            r=alpha.numerator,
            s=alpha.denominator,
        )
    u = (alpha + 1 - _N) * x * (1 + r) / _N - r.shift(-1)
    rho = (alpha + 2 - _N) * x / (_N - 1)
    cf = integer_tail_form(euler_tail(1 + r0, u, rho))
    hyps.append(
        _u_nonzero(u, "u(n) = (alpha-n+1) x (1+r(n))/n - r(n-1) nonzero for n >= 1")
    )
    return FamilyMember(cf, limit, tuple(hyps))


def family_sin_product(m, A):
    """CF for the product (1 - 1/m^2)(1 - 1/(2m)^2)... = m sin(pi/m) / pi,
    built from factors a(n) = 1 - 1/(mn)^2 with weights w(n) = 1 + A/(n+1).

    The n-th approximant is w(n) a(1)...a(n): the product construction, i.e.
    Euler with u(n) = a(n) w(n) - w(n-1) and rho(n) = a(n-1), followed by
    the integer form.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
    if not isinstance(A, int):
        raise ValueError("A must be an integer")
    a = 1 - 1 / (m * _N) ** 2
    w = 1 + A / (_N + 1)
    u = a * w - w.shift(-1)
    cf = integer_tail_form(euler_tail(w(0), u, a.shift(-1)))
    hyps = (
        _hyp(
            "factors_positive",
            lambda: m >= 2,
            "m >= 2 so every factor 1 - 1/(mn)^2 is positive",
        ),
        _hyp(
            "weights_positive",
            lambda: A >= -1,
            "A >= -1 so every weight 1 + A/(n+1) is positive",
        ),
        _u_nonzero(u, "u(n) = a(n) w(n) - w(n-1) nonzero for n >= 1"),
    )
    return FamilyMember(cf, LimitClaim.named("SineProduct", m=m), hyps)


def family_e_bauer_muir(A):
    """CF for e: Bauer-Muir on the e preset 2 + K((n+1)/(n+1)) with w_0 = 0
    and w(n) = A(n+1), followed by the integer form."""
    if not isinstance(A, int):
        raise ValueError("A must be an integer")
    res = bauer_muir_tail(_E_CF, A * (_N + 1), 0)
    cf = integer_tail_form(res.cf)
    hyps = (
        _hyp("A_nonneg", lambda: A >= 0, "A >= 0"),
        _hyp(
            "transform_exists",
            lambda: not has_integer_root_at_or_after(res.existence_margin, 2),
            "lambda(n) = a(n) - w(n-1) (b(n) + w(n)) nonzero for n >= 2",
        ),
    )
    return FamilyMember(cf, LimitClaim.named("E"), hyps)


def family_rational_limit(f, m):
    """Two-parameter family of degree-3 CFs converging to 6m + 1.

    pincherle_family with H = m(n+1)(n+2)(n+3) + 1, whose H(0)/H(-1) is
    6m + 1, and b_n = f(n)(n(n-1)(n+1)m + 1) + 2(n^2-1)m - 2, for any f with
    f(n) >= 1 and any integer m >= 1.  Then
    a_n = f(n)(n(n+1)(n+2)m + 1) + 2m n^2 + 6m n + 4m - 1.
    """
    f = _as_ratfn(f)
    if not isinstance(m, int):
        raise ValueError("m must be an integer")
    H = m * (_N + 1) * (_N + 2) * (_N + 3) + 1
    b = f * (m * (_N - 1) * _N * (_N + 1) + 1) + 2 * m * (_N**2 - 1) - 2
    cf, limit = _pincherle(H, b)
    hyps = (
        _hyp(
            "f_at_least_one",
            lambda: eventually_nonnegative(f - 1, 1),
            "f(n) >= 1 for n >= 1",
        ),
        _hyp("m_positive", lambda: m >= 1, "m >= 1"),
    )
    return FamilyMember(cf, limit, hyps)


def ramanujan_entry13(a, b, d):
    """Arithmetic-progression CF with limit a.

    a = ab/(a+b+d) - (a+d)(b+d)/(a+b+3d) - (a+2d)(b+2d)/(a+b+5d) - ...
    Convergence holds on one of three branches: d nonzero with (a-b)/d < 0
    and b not of the form -kd for integer k >= 0; d nonzero with a = b;
    or d = 0 with |a| < |b|.
    """
    a = _as_fraction(a, "a")
    b = _as_fraction(b, "b")
    d = _as_fraction(d, "d")
    prefix = ((a * b, a + b + d),)
    p1 = d * _N + (a - d)
    p2 = d * _N + (b - d)
    tail_a = -1 * p1 * p2
    tail_b = 2 * d * _N + (a + b - d)
    cf = CFSpec(Fraction(0), prefix, CFTail(tail_a, tail_b, 2))
    branch = None
    if d != 0:
        q = -b / d
        excluded = q.denominator == 1 and q >= 0
        if (a - b) / d < 0 and not excluded:
            branch = "(a-b)/d < 0 with b never equal to -kd"
        elif a == b:
            branch = "a = b"
    elif abs(a) < abs(b):
        branch = "d = 0 and |a| < |b|"
    hyps = (
        Hypothesis(
            "convergence_branch",
            branch is not None,
            branch if branch is not None else "no convergence branch holds",
        ),
    )
    return FamilyMember(cf, LimitClaim.exact(a), hyps)


def _pincherle_at_least_2(H, b, name, x, n0):
    """The Pincherle preset (H, b) in integer form, whose one hypothesis is
    x(n) >= 2 for n >= n0, with x called name."""
    cf, limit = _pincherle(H, b)
    hyp = _hyp(f"{name}_at_least_2", lambda: eventually_nonnegative(x - 2, n0),
               f"{name}(n) >= 2 for n >= {n0}")
    return FamilyMember(integer_tail_form(cf), limit, (hyp,))


# preset -> (parameters, builder of the resolved parameters); a parameter is
# name -> (kind, default) with kinds int | rational | ratfn
_PRESETS = {
    "brouncker": ({}, lambda p: FamilyMember(
        CFSpec(Fraction(1), (), CFTail((2 * _N - 1) ** 2, 2, 1)),
        LimitClaim.named("BrounckerPi"),
    )),
    "e": ({}, lambda p: FamilyMember(_E_CF, LimitClaim.named("E"))),
    "ex1.1": ({"f": ("ratfn", "1"), "m": ("int", "1")},
              lambda p: family_rational_limit(p["f"], p["m"])),
    "ex2.2": ({"b": ("ratfn", "n+1")},
              lambda p: _pincherle_at_least_2(_N + 2, p["b"], "b", p["b"], 1)),
    "ex2.4": ({"c": ("ratfn", "n+2")}, lambda p: pincherle_poly_family(_N**2 + 1, 1, p["c"], 1)),
    "ex2.5": ({"c": ("ratfn", "n+3")}, lambda p: _pincherle_at_least_2(
        RationalFunction(1), p["c"] * p["c"] / p["c"].shift(-1), "c", p["c"], -1)),
    "ex3.3": ({"A": ("int", "1")}, lambda p: family_pi(p["A"] * (2 * _N - 1))),
    "ex3.4": ({"k": ("int", "2"), "A": ("int", "1")},
              lambda p: family_zeta(p["k"], p["A"] * (_N + 1))),
    "ex3.5": ({"A": ("int", "1")},
              lambda p: family_binomial(Fraction(1, 5), Fraction(5, 7), p["A"] * _N - 1)),
    "ex4.2": ({"A": ("int", "0")}, lambda p: family_sin_product(3, p["A"])),
    "ex5.6": ({"A": ("int", "1")}, lambda p: family_e_bauer_muir(p["A"])),
    "entry13": ({"a": ("rational", "1"), "b": ("rational", "1"), "d": ("rational", "1")},
                lambda p: ramanujan_entry13(p["a"], p["b"], p["d"])),
}
# copies: a caller that edits the public table changes no later build
PRESET_PARAMS = {preset: dict(spec) for preset, (spec, _) in _PRESETS.items()}


def _coerce(kind, value, name):
    """One preset parameter; malformed input raises ValueError naming it."""
    if kind == "ratfn":
        return _as_ratfn(value)
    if kind == "rational" and isinstance(value, Fraction):
        return value
    return json_value(value, name, kind)


def build_preset(preset, params=None):
    """Construct a named preset member; params override the defaults."""
    if preset not in _PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    spec, build = _PRESETS[preset]
    given = dict(params or {})
    resolved = {}
    for name, (kind, default) in spec.items():
        raw = given.pop(name, default)
        resolved[name] = _coerce(kind, raw, name)
    if given:
        extra = ", ".join(sorted(given))
        raise ValueError(f"unknown parameters for {preset}: {extra}")
    return build(resolved)
