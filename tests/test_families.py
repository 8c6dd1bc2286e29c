"""Unit tests for the identity families and their presets."""

import hashlib
import json
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polycf.analysis import tietze_check
from polycf.cf import (
    CFSpec,
    CFTail,
    approximants,
    evaluate,
    integer_tail_form,
    term_at,
    to_integer_cf,
)
from polycf.errors import (
    DegenerateTerm,
    HypothesisViolation,
    PoleAtArgument,
    PolycfError,
    ZeroEvenDenominator,
    ZeroPartialNumerator,
)
from polycf.families import (
    LimitClaim,
    NamedConstant,
    PRESET_PARAMS,
    build_preset,
    family_binomial,
    family_e_bauer_muir,
    family_pi,
    family_rational_limit,
    family_sin_product,
    family_zeta,
    pincherle_family,
    pincherle_poly_family,
    ramanujan_entry13,
)
from polycf.poly import (
    IntPolynomial,
    RationalFunction,
    degree,
    eventually_nonnegative,
    ratfn_from_string,
)
from polycf.transforms import (
    bauer_muir,
    bernoulli_from_sequence,
    even_part,
    extension_bmoe,
    odd_part,
)

F = Fraction


def _value(member, terms=200, tol=F(1, 10**12)):
    return evaluate(member.cf, tol, terms).value


def test_limit_claim_serialization():
    exact = LimitClaim.exact(F(7, 3))
    assert exact.describe() == "7/3"
    assert exact.to_json() == {"kind": "exact", "value": "7/3"}
    named = LimitClaim.named("Zeta", k=3)
    assert named.describe() == "Zeta(k=3)"
    assert named.to_json() == {"kind": "named", "name": "Zeta", "params": {"k": "3"}}
    assert NamedConstant("Root", {"p": 12, "q": 7, "r": 1, "s": 5}).describe() == (
        "Root(p=12,q=7,r=1,s=5)"
    )


def test_pincherle_family_limit_is_h_ratio():
    m = pincherle_family(ratfn_from_string("n+2"), ratfn_from_string("n+1"))
    assert m.limit.value == F(2)
    assert m.verified
    assert abs(_value(m) - 2) < 1e-10


def test_pincherle_family_limit_independent_of_b():
    for b in ("n", "2n+1", "n^2+1", "3"):
        m = pincherle_family(ratfn_from_string("n+2"), ratfn_from_string(b))
        assert m.limit.value == F(2)
        assert abs(_value(m) - 2) < 1e-9


def test_pincherle_family_flags_bad_hypotheses():
    m = pincherle_family(ratfn_from_string("n+2"), ratfn_from_string("1"))
    assert not m.verified
    assert [h.name for h in m.hypotheses if not h.holds] == ["b_growth"]


def test_pincherle_family_rejects_undefined_limit():
    with pytest.raises(HypothesisViolation):
        pincherle_family(ratfn_from_string("n+1"), ratfn_from_string("n"))
    for H, pole in (("1/(n+1)", -1), ("(n+2)/n", 0)):
        with pytest.raises(HypothesisViolation) as exc:
            pincherle_family(H, "n+2")
        assert (exc.value.name, exc.value.detail) == ("limit_defined", f"H has a pole at n = {pole}")


def test_leading_term_with_a_pole_is_refused():
    for build, name in ((lambda: family_pi("1/n"), "f"), (lambda: family_zeta(2, "1/n"), "d"),
                        (lambda: family_binomial(F(1, 2), F(1, 3), "1/n"), "r")):
        with pytest.raises(HypothesisViolation) as exc:
            build()
        assert (exc.value.name, exc.value.detail) == ("leading_term_defined",
                                                      f"{name} has a pole at n = 0")


def test_pincherle_callers_skip_pincherle_family_hypotheses(monkeypatch):
    # ex1.1, ex2.2, ex2.4 and ex2.5 state hypotheses of their own, so they build
    # the CF without pincherle_family's eventual-positivity scans
    import polycf.families as families

    want = {p: build_preset(p) for p in ("ex1.1", "ex2.2", "ex2.4", "ex2.5")}

    def refuse(H, b):
        raise AssertionError("pincherle_family called")

    monkeypatch.setattr(families, "pincherle_family", refuse)
    for preset, member in want.items():
        assert build_preset(preset) == member


def test_pincherle_poly_family_converges():
    one = IntPolynomial((1,))
    m = pincherle_poly_family(
        IntPolynomial((1, 0, 1)), one, ratfn_from_string("n+2"), one
    )
    assert m.verified
    assert m.limit.value == F(1, 2)
    assert abs(_value(m, 100) - 0.5) < 1e-9


def _hand_pincherle_poly(f, g, c, d):
    """Reference for pincherle_poly_family(f, g, c, d): its CF expanded by
    hand into two prefix terms and a tail from n = 3, and its limit."""
    denom = g(0) * f(-1)
    if denom == 0:
        raise HypothesisViolation("limit_defined", "g(0) f(-1) must be nonzero")
    prefix = (
        (
            g(-1) * (d(1) * f(1) * g(0) + c(1) * f(0) * g(1)),
            c(1) * f(-1) * g(0) * g(1),
        ),
        (
            d(1) * f(-1) * g(0) ** 2 * (d(2) * f(2) * g(1) + c(2) * f(1) * g(2)),
            c(2) * f(0) * g(2),
        ),
    )
    tail_a = (
        d.shift(-1)
        * f.shift(-3)
        * g.shift(-2)
        * (d * f * g.shift(-1) + c * f.shift(-1) * g)
    )
    tail_b = c * f.shift(-2) * g
    cf = CFSpec(F(0), prefix, CFTail(tail_a, tail_b, 3))
    return cf, f(0) * g(-1) / denom


def _term_bits(cf, n):
    a, b = term_at(cf, n)
    return max(x.bit_length() for v in (a, b) for x in (v.numerator, v.denominator))


_small_poly = (
    st.lists(st.integers(-3, 3), min_size=1, max_size=3)
    .filter(any)
    .map(lambda cs: RationalFunction(IntPolynomial(cs)))
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(f=_small_poly, g=_small_poly, c=_small_poly, d=_small_poly)
def test_pincherle_poly_family_matches_hand_form(f, g, c, d):
    try:
        want_cf, want_limit = _hand_pincherle_poly(f, g, c, d)
        want = approximants(want_cf, 25)
    except PolycfError:
        assume(False)
    member = pincherle_poly_family(f, g, c, d)
    assert member.limit.value == want_limit
    assert approximants(member.cf, 25) == want
    for n in range(1, 26):
        assert _term_bits(member.cf, n) <= _term_bits(want_cf, n), n


def test_integer_tail_form_drops_shifted_denominator_pair():
    # H = f/g with non-constant g puts g(n) g(n-1) in the denominator of
    # a(n) d(n) d(n-1); the integer form must keep only g(n), as the
    # hand-expanded tail d(n-1) f(n-3) g(n-2) (...) and c f(n-2) g does
    f, g, c = (ratfn_from_string(s) for s in ("n^2+1", "n+2", "n+2"))
    cf = integer_tail_form(pincherle_family(f / g, c).cf)
    hand, _ = _hand_pincherle_poly(f, g, c, RationalFunction(IntPolynomial((1,))))
    assert degree(cf.tail.b) == degree(hand.tail.b) == 4
    assert degree(cf.tail.a) == degree(hand.tail.a) == 7
    assert approximants(cf, 25) == approximants(hand, 25)


def test_integer_tail_form_needs_a_tail():
    with pytest.raises(ValueError, match="^integer_tail_form needs a CF with a tail$"):
        integer_tail_form(CFSpec(1, [(1, 1)]))


def _outcome(build):
    """build(), a CF as its JSON form, or the error it raises."""
    try:
        out = build()
    except PolycfError as e:
        return type(e).__name__, getattr(e, "index", str(e))
    return json.dumps(out.to_json(), sort_keys=True) if isinstance(out, CFSpec) else out


def _hand_ex25(c):
    """Reference for the ex2.5 preset's CF (limit 1): the form typed out by
    hand before it was built as _pincherle(1, c^2/c(n-1)) in integer form."""
    t1 = (c(0) + c(1) ** 2, c(1) ** 2)
    tail_a = c.shift(-2) * (c.shift(-1) + c * c)
    return CFSpec(F(0), (t1,), CFTail(tail_a, c * c, 2))


# c whose integer form is the hand form itself
_EX25_SAME_FORM = ["n+3", "n+1", "n+2", "n+4", "n+10", "2n+3", "n-1", "n-5", "n^2+2",
                   "n^2+n+2", "n^2-n+2", "n^2+3n+7", "n^3+2"]
# c whose integer form scales the tail less than the hand form does: constant
# and rational c, and c whose values share a factor with c(n-1)
_EX25_SMALLER_FORM = ["3", "5", "(n+3)/2", "(2n+1)/2", "(n^2+3)/(n+1)", "2n+4", "4n+4",
                      "4n^2+4n+6", "3n+6", "3n^2+3n+3", "4n+2", "2n^2+2n+4"]


def test_ex25_pincherle_construction_keeps_the_hand_form():
    for text in _EX25_SAME_FORM + _EX25_SMALLER_FORM:
        c = ratfn_from_string(text)
        member, hand = build_preset("ex2.5", {"c": c}), _hand_ex25(c)
        assert member.limit == LimitClaim.exact(1), text
        # c = n-1 and n-5 vanish at a later n: both forms have a zero numerator there
        want = _outcome(lambda: approximants(hand, 200))
        assert _outcome(lambda: approximants(member.cf, 200)) == want, text
        same = member.cf.to_json() == hand.to_json()
        assert same == (text in _EX25_SAME_FORM), text
        assert member.cf.tail.a.den == member.cf.tail.b.den == IntPolynomial((1,)), text
        if isinstance(want, list) and c.den == IntPolynomial((1,)):  # hand form integral too
            for n in range(1, 30):
                assert _term_bits(member.cf, n) <= _term_bits(hand, n), (text, n)


@pytest.mark.parametrize("text, error, index", [
    # c(0) = 0 makes b(1) = c(1)^2/c(0) a pole; the hand form's a_2 was 0
    ("n", PoleAtArgument, 2),
    ("4n", PoleAtArgument, 2),
    # c(0) + c(1)^2 = 0 is the first numerator, as in the hand form
    ("2n^2-1", ZeroPartialNumerator, 1),
])
def test_ex25_outside_c_at_least_2_raises(text, error, index):
    c = ratfn_from_string(text)
    with pytest.raises(error):
        build_preset("ex2.5", {"c": c})
    assert not eventually_nonnegative(c - 2, -1)
    with pytest.raises(ZeroPartialNumerator) as exc:
        term_at(_hand_ex25(c), index)
    assert exc.value.index == index


def _hand_binomial_finite(alpha, x, r):
    """Reference for the terminating family_binomial: the perturbed partial
    sums realized one by one, before the CF was generalized_euler's."""
    s = total = F(1)
    seq = [F(1) + r(0)]
    for n in range(1, int(alpha) + 1):
        s = s * (alpha - n + 1) * x / n
        total += s
        seq.append(total + r(n) * s)
    seq.append(total)
    while len(seq) > 1 and seq[-1] == seq[-2]:
        seq.pop()
    for n in range(1, len(seq)):
        if seq[n] == seq[n - 1]:
            raise DegenerateTerm(n)
    return bernoulli_from_sequence(seq)


def test_finite_binomial_is_generalized_euler_of_the_hand_sums():
    xs = [F(1, 3), F(-1, 2), F(2), F(0), F(-1)]
    rs = ["1", "0", "-1", "n", "-n", "n-2", "2n-3", "n^2-3n+2", "1/(n+1)", "1/(n-3)"]
    errors = set()
    for alpha in range(7):
        for x in xs:
            for text in rs:
                r = ratfn_from_string(text)
                got = _outcome(lambda: family_binomial(alpha, x, r).cf)
                want = _outcome(lambda: _hand_binomial_finite(F(alpha), x, r))
                assert got == want, (alpha, x, text)
                if isinstance(got, tuple):
                    errors.add(got[0])
    assert errors == {"DegenerateTerm", "PoleAtArgument"}


def test_family_pi_structure():
    m = family_pi(IntPolynomial((1, 1)))
    assert m.cf.b0 == F(-1)
    assert m.limit.constant.name == "PiOver4"
    assert m.verified
    est = evaluate(m.cf, F(1, 10**8), 3000)
    with mpmath.workprec(128):
        assert abs(est.value - mpmath.pi / 4) < 1e-3


def test_family_pi_constant_perturbation_flagged():
    # with constant f the perturbation never vanishes and the fraction
    # oscillates instead of converging
    m = family_pi(IntPolynomial((1,)))
    assert not m.verified
    assert [h.name for h in m.hypotheses if not h.holds] == ["perturbation_vanishes"]


def test_family_pi_rejects_zero_leading_term():
    with pytest.raises(HypothesisViolation):
        family_pi(IntPolynomial((0, 1)))


def test_family_zeta_validation():
    with pytest.raises(ValueError):
        family_zeta(1, IntPolynomial((1,)))
    with pytest.raises(HypothesisViolation):
        family_zeta(2, IntPolynomial((0, 1)))
    # a huge exponent is refused before 1/n^k is built
    for k in (41, 99999999999):
        with pytest.raises(ValueError, match="2 <= k <= 40"):
            family_zeta(k, IntPolynomial((1, 1)))


def test_family_zeta_constant_d_flagged():
    m = family_zeta(2, IntPolynomial((1,)))
    assert not m.verified
    assert [h.name for h in m.hypotheses if not h.holds] == ["d_growth"]


def test_family_zeta_k2_converges():
    m = family_zeta(2, IntPolynomial((1, 1)))
    assert m.limit.constant.describe() == "Zeta(k=2)"
    assert m.verified
    est = evaluate(m.cf, F(1, 10**10), 2000)
    with mpmath.workprec(128):
        assert abs(est.value - mpmath.zeta(2)) < 1e-6


def test_family_binomial_finite_case():
    # nonnegative integer exponent gives a terminating fraction with an
    # exact rational limit
    m = family_binomial(3, F(1, 3), ratfn_from_string("1"))
    assert m.limit.kind == "exact"
    assert m.limit.value == F(64, 27)  # (1 + 1/3)^3
    vals = approximants(m.cf, len(m.cf.prefix))
    assert vals[-1] == F(64, 27)


def test_family_binomial_symbolic_case():
    m = family_binomial(F(1, 2), F(1, 3), ratfn_from_string("1"))
    assert m.limit.constant.name == "Root"
    est = evaluate(m.cf, F(1, 10**12), 150)
    with mpmath.workprec(128):
        want = mpmath.sqrt(mpmath.mpf(4) / 3)
        assert abs(est.value - want) < 1e-10


def test_family_binomial_rejects_nonpositive_base():
    with pytest.raises(HypothesisViolation):
        family_binomial(F(1, 2), F(-1), ratfn_from_string("1"))


def test_family_binomial_bounds_x():
    m = family_binomial(F(1, 2), F(2), ratfn_from_string("1"))
    assert not m.verified


def test_family_sin_product_m3_display():
    m = family_sin_product(3, 0)
    a1, b1 = term_at(m.cf, 1)
    assert (a1, b1) == (F(-1), F(9))
    a2, b2 = term_at(m.cf, 2)
    assert (a2, b2) == (F(72), F(-44))
    est = evaluate(m.cf, F(1, 10**8), 2000)
    with mpmath.workprec(128):
        want = mpmath.sin(mpmath.pi / 3) / (mpmath.pi / 3)
        assert abs(est.value - want) < 1e-2


def test_family_sin_product_validation():
    with pytest.raises(ValueError):
        family_sin_product(0, 1)
    for m, A in ((3.0, 1), (F(3), 1), (3, 0.5), (3, F(1))):
        with pytest.raises(ValueError, match=r"must be an? (positive )?integer"):
            family_sin_product(m, A)
    with pytest.raises(DegenerateTerm):
        family_sin_product(1, 0)


def test_family_e_bauer_muir_prefix():
    m = family_e_bauer_muir(1)
    assert m.cf.b0 == F(2)
    assert term_at(m.cf, 1) == (F(2), F(4))
    assert term_at(m.cf, 2) == (F(-6), F(4))
    assert term_at(m.cf, 3) == (F(10), F(8))
    assert m.verified
    est = evaluate(m.cf, F(1, 10**14), 60)
    with mpmath.workprec(128):
        assert abs(est.value - mpmath.e) < 1e-10


def test_family_rational_limit_exact_target():
    for mm in (1, 2, 3):
        mem = family_rational_limit(IntPolynomial((1,)), mm)
        assert mem.limit.value == F(6 * mm + 1)
        assert abs(_value(mem, 100, F(1, 10**10)) - (6 * mm + 1)) < 1e-8


def test_integer_parameters_refuse_other_numbers():
    for x in (1.0, F(1), "1"):
        with pytest.raises(ValueError, match="A must be an integer"):
            family_e_bauer_muir(x)
        with pytest.raises(ValueError, match="m must be an integer"):
            family_rational_limit("1", x)


def test_family_rational_limit_first_terms():
    mem = family_rational_limit(IntPolynomial((1,)), 1)
    assert term_at(mem.cf, 1) == (F(18), F(-1))
    a2, _ = term_at(mem.cf, 2)
    assert a2 == F(48)  # (n+1)(n+2)^2 at n = 2


def test_ramanujan_entry13_branches():
    m = ramanujan_entry13(F(1), F(1), F(1))
    assert m.limit.value == F(1)
    assert m.verified
    # (a-b)/d > 0 and a != b: no branch applies
    m2 = ramanujan_entry13(F(2), F(1), F(1))
    assert not m2.verified
    # d = 0 with |a| < |b|
    m3 = ramanujan_entry13(F(1), F(3), F(0))
    assert m3.verified
    assert abs(_value(m3, 60) - 1) < 1e-12
    # (a-b)/d < 0, b never -kd
    m4 = ramanujan_entry13(1, 2, 1)
    assert m4.verified
    assert m4.hypotheses[0].detail == "(a-b)/d < 0 with b never equal to -kd"
    assert abs(_value(m4, 200, F(1, 10**6)) - 1) < 1e-2  # the error falls like 1/n


def test_ramanujan_entry13_prefix_and_tail():
    m = ramanujan_entry13(F(1), F(1), F(1))
    assert term_at(m.cf, 1) == (F(1), F(3))
    assert term_at(m.cf, 2) == (F(-4), F(5))  # -(n)(n) and 2n+1 at n = 2
    assert term_at(m.cf, 3) == (F(-9), F(7))


def test_preset_ids_and_params():
    for pid in PRESET_PARAMS:
        member = build_preset(pid)
        assert member.cf is not None
        assert member.limit is not None


def test_editing_preset_params_changes_no_build(monkeypatch):
    before = {pid: build_preset(pid) for pid in PRESET_PARAMS}
    monkeypatch.setitem(PRESET_PARAMS["ex2.2"], "b", ("ratfn", "1"))
    for spec in PRESET_PARAMS.values():
        for name in list(spec):
            if spec is not PRESET_PARAMS["ex2.2"]:
                monkeypatch.delitem(spec, name)
    assert {pid: build_preset(pid) for pid in PRESET_PARAMS} == before
    assert all(h.holds for h in build_preset("ex2.2").hypotheses)


def test_build_preset_param_coercion():
    m = build_preset("ex3.4", {"k": "3", "A": "2"})
    assert m.limit.constant.params["k"] == 3
    m2 = build_preset("ex1.1", {"f": "n^2", "m": "2"})
    assert m2.limit.value == F(13)
    # a rational parameter may be a Fraction, an int or a string
    for a in (F(1, 2), "1/2", "0.5"):
        assert build_preset("entry13", {"a": a}) == ramanujan_entry13(F(1, 2), 1, 1)


def test_build_preset_rejects_unknown():
    with pytest.raises(ValueError):
        build_preset("nope")
    with pytest.raises(ValueError):
        build_preset("e", {"bogus": "1"})


def test_preset_hypothesis_violations_raise():
    with pytest.raises(HypothesisViolation):
        build_preset("ex3.3", {"A": "0"})
    with pytest.raises(HypothesisViolation):
        build_preset("ex3.4", {"k": "2", "A": "0"})


def test_preset_default_members_verified():
    for pid in PRESET_PARAMS:
        member = build_preset(pid)
        failing = [h.name for h in member.hypotheses if not h.holds]
        assert member.verified, (pid, failing)


def test_preset_brouncker_value():
    m = build_preset("brouncker")
    est = evaluate(m.cf, F(1, 10**6), 5000)
    with mpmath.workprec(128):
        assert abs(est.value - 4 / mpmath.pi) < 1e-3


def test_preset_flagged_member_still_returned():
    m = build_preset("ex2.2", {"b": "1"})
    assert not m.verified
    assert m.cf is not None


# sha256 of the approximants 0..200 (reduced p/q strings, one per line),
# computed from the hand-typed coefficient forms the families once had.
# Every construction of the same member must keep these values exactly.
_PRESET_DIGESTS = {
    ("brouncker", ""):
        "064f69a7f988caa5586841130f39e6718a172c94d3ee4795c43a7565f290c83c",
    ("e", ""):
        "8e5b50862132ff9a8c175bc67da951b136beec68654eba150172e9c629ae602d",
    ("entry13", ""):
        "5b605ee42e3b48156df9fe849bfa82eac1e099c4403345432952c61aec51b5a1",
    ("entry13", "a=1,b=1,d=1"):
        "5b605ee42e3b48156df9fe849bfa82eac1e099c4403345432952c61aec51b5a1",
    ("ex1.1", ""):
        "5f98eb983f4838fc1e0623c5de939eeb616b8483a6c1ebf05d7671e75e450cf9",
    ("ex1.1", "f=1,m=1"):
        "5f98eb983f4838fc1e0623c5de939eeb616b8483a6c1ebf05d7671e75e450cf9",
    ("ex1.1", "f=1,m=2"):
        "1d6318946dc814c75532c58178401b43303b79944333268dfc7ea3c6cf33a958",
    ("ex1.1", "f=1,m=3"):
        "c90699a450f9362338d99616ff846d6366e561c9275fbb812b7f693f50ee521f",
    ("ex1.1", "f=n,m=1"):
        "0150b4f555fd1fde7cc0297a1e6faf1280854fb325794e8e4aaab343ca45893d",
    ("ex1.1", "f=n,m=2"):
        "e34d4baa926d6c235362733434089e1c932a7cfc8da25875958a6c7bb5a6400c",
    ("ex1.1", "f=n,m=3"):
        "85fbec63e34a10576c308cdbb6f7f726cb8844f5d37fe2b282db18dbfac798bc",
    ("ex1.1", "f=n^2,m=1"):
        "96c3b42d14ea290472a3c41efe1b70f8c02505a707c2b8445440a2fbf29111b0",
    ("ex1.1", "f=n^2,m=2"):
        "df9f161d230cfee2f952e7232bb7c195c94f2b6b1cdea84d99615f91ed12bdeb",
    ("ex1.1", "f=n^2,m=3"):
        "f5265bae1360ddc622335a4c50862dca773ccc58460f96ba6729ab535cf85372",
    ("ex2.2", ""):
        "84213a81b305f9148fa3114d94186652e58f624485c3068ca77a56bd4f6c749d",
    ("ex2.4", ""):
        "3d2088850614636f209915bee461249fa76c553126fc1f648c87abad3afb358c",
    ("ex2.5", ""):
        "7a20e0c1b2e07084d80d94a6570d1dde354d599ab250218ed60c9dc163457eeb",
    ("ex3.3", ""):
        "2731bdbfbbe1a6fd256190b01a7878845bfda7501874dc1475b1bd90f8d824c7",
    ("ex3.3", "A=1"):
        "2731bdbfbbe1a6fd256190b01a7878845bfda7501874dc1475b1bd90f8d824c7",
    ("ex3.3", "A=2"):
        "9e615eaaa5fbaa84a709e23bee795ca1ae4a08645a8f81987abf0ebaae59dacd",
    ("ex3.3", "A=3"):
        "e1e6841a885dcaf7c17c4205a730a307f39e0d55c813275ba7756bf28ebd7e8a",
    ("ex3.3", "A=4"):
        "65d983b3335c78bea00d1f9a4028dace0719c254386a0b57cd8bd9ac5e6a34f3",
    ("ex3.3", "A=5"):
        "7a96d5e5e79ec1832055cf99b11f2dc6dfbad34a83569dc4e1e71ab8d13a4706",
    ("ex3.4", ""):
        "a53b75ad91e07c778aa8de0531d624006f1c4941b7e5d6f2b4a47d54676c7836",
    ("ex3.4", "A=1,k=11"):
        "2ba9c16a7995e2ddab7380be798723841fa259e4df38eae080cd36a2cac480e4",
    ("ex3.4", "A=1,k=2"):
        "a53b75ad91e07c778aa8de0531d624006f1c4941b7e5d6f2b4a47d54676c7836",
    ("ex3.4", "A=1,k=3"):
        "17ba2d645807edd23b00ab1f41b5c90475f6c67184db60088fb3e2fe66b18742",
    ("ex3.4", "A=2,k=11"):
        "77fe8c7cb1c12bf7f972f917cff497436259249a59e3ded73ef98c545d7c6851",
    ("ex3.4", "A=2,k=2"):
        "576d02971988276c0db510c195647a43dc6d666a6c7618d6f52e05f5a086a818",
    ("ex3.4", "A=2,k=3"):
        "73a59b4ee07fc25e7d54a17ba702e95e09acf9091ce5c0782adbe47e122f46d4",
    ("ex3.4", "A=3,k=11"):
        "9ad74026ade6f0a8e94ac66b6d49e80a3ead58b82ddf279daea7b4db67c4e076",
    ("ex3.4", "A=3,k=2"):
        "5a7b4e0d1a530ab6e8d8991ec25521278a24315ee1589dc05d17a8d12f2ffe52",
    ("ex3.4", "A=3,k=3"):
        "61288c37b79c8adef5c953add4fea63892732ef2486eed0eae3ef27e53f88fba",
    ("ex3.5", ""):
        "ecace87178f8eba6150bdfc124ba7e18a8c751d19e1c5ea9e4919a8d9551087a",
    ("ex3.5", "A=1"):
        "ecace87178f8eba6150bdfc124ba7e18a8c751d19e1c5ea9e4919a8d9551087a",
    ("ex3.5", "A=2"):
        "c0bbf84727cf108d8f940ad6a4ff5ba9127acd82a440bfeeced54f1568470c64",
    ("ex3.5", "A=3"):
        "0f7ab18fe6fac49c586d543bd931240fc11442dcd4206cdffd579f13e09a245a",
    ("ex4.2", ""):
        "e42b54183107735819d878d0b9d4289ab0bf2e7607703c51af25a3f5696bf2d4",
    ("ex4.2", "A=-1"):
        "92091476279989220beaf696a92d70b1c64604d43aa66d0820a7ebb7dd568271",
    ("ex4.2", "A=0"):
        "e42b54183107735819d878d0b9d4289ab0bf2e7607703c51af25a3f5696bf2d4",
    ("ex4.2", "A=1"):
        "9fcaebd784a76473e418cb9f4e6c80ab41639bd6c87519088a52de0046630434",
    ("ex5.6", ""):
        "b00d8f13e779947e53efe3f0bb67e2f2a6f5a4bcfe916d8dddf517f596cb8b35",
    ("ex5.6", "A=0"):
        "8e5b50862132ff9a8c175bc67da951b136beec68654eba150172e9c629ae602d",
    ("ex5.6", "A=1"):
        "b00d8f13e779947e53efe3f0bb67e2f2a6f5a4bcfe916d8dddf517f596cb8b35",
    ("ex5.6", "A=2"):
        "fe44f622fd1b9dbf12d84c940182d0f8ed776936ca10377ff425f26e0c1da0ba",
    ("ex5.6", "A=3"):
        "1877880309af45bba840382ab7fd710957eaf94165bc504a79d36a9db6523aad",
}

# sha256 of json.dumps(cf.to_json(), sort_keys=True) for the same members:
# the symbolic forms `polycf family` prints.  An equivalent form written
# differently keeps the approximant pins but fails these.
_PRESET_FORM_DIGESTS = {
    ("brouncker", ""):
        "e3552e8d07a39ec9361754d1464eeb29cc99b60c22c36d9a031984b57a236f70",
    ("e", ""):
        "4cc5a1e011ca7cd0ea7b60c43aab548a728eb70ecfe92f420132a9affb7ed5af",
    ("entry13", ""):
        "f590973739837cebb4942a4121044defe7429d22ca14a20c25422542419f9727",
    ("entry13", "a=1,b=1,d=1"):
        "f590973739837cebb4942a4121044defe7429d22ca14a20c25422542419f9727",
    ("ex1.1", ""):
        "03ad72166facb66f23ffa6cff2d79bff794817340d456ed75a2ecadba3957c91",
    ("ex1.1", "f=1,m=1"):
        "03ad72166facb66f23ffa6cff2d79bff794817340d456ed75a2ecadba3957c91",
    ("ex1.1", "f=1,m=2"):
        "7760afd5dfe3da07f871f51adcbaefaaa684e904f4d35fe115ed9c12f320198a",
    ("ex1.1", "f=1,m=3"):
        "f8c9e8ecdc2801d688b0741acffb71187b28a4b2b17e6c7ebef19d4a09c6c9bf",
    ("ex1.1", "f=n,m=1"):
        "31d6be97ab4b18ba170011c4601812b2d00c33067c2e279875df6b65a06d43e8",
    ("ex1.1", "f=n,m=2"):
        "9b2a17010c29378e0b3270b767ef534c4d065708e3ba9fb208a957f5ab0805cc",
    ("ex1.1", "f=n,m=3"):
        "14633fe7fc9137cb1264f65d6b3c228d9229f1e0713e19bfc58194e4a217c154",
    ("ex1.1", "f=n^2,m=1"):
        "9b1713c94d6199d996b5b9b85fa000c92a38b7bf2e1b2d7a2eb4a25baa2e2c51",
    ("ex1.1", "f=n^2,m=2"):
        "af6fa5c2f79f960dace11631af5d03c5e7a7bc939fe3d691417e0bc7daaa6c9f",
    ("ex1.1", "f=n^2,m=3"):
        "e3128808105f29d3d52f3ed435db5cec37237c2a08d39d914d34accdc28bc3b9",
    ("ex2.2", ""):
        "06ceff089466b9feed093412c4f76a1b86acc6564db37122b5fddef92e950641",
    ("ex2.4", ""):
        "d2bf4bf0a0978f049868d30c22993f357a1f47582cf4c1d8a921a1986402d1e8",
    ("ex2.5", ""):
        "d5ed1bf74b14ae4cf9cf1bc34c59887cddbac3ef95a37d87f888dcd407d21860",
    ("ex3.3", ""):
        "474564901e026c5048e7c8c6acfeb1bb95cd49a81d8c384c931c63fd1e671571",
    ("ex3.3", "A=1"):
        "474564901e026c5048e7c8c6acfeb1bb95cd49a81d8c384c931c63fd1e671571",
    ("ex3.3", "A=2"):
        "032130605323d534476018d5f44a23883df54227941be292889da2250b330224",
    ("ex3.3", "A=3"):
        "bd925f2006061bf12809d454cfce3b95e266105d586dbb79cf3c4471a792a3c3",
    ("ex3.3", "A=4"):
        "b3b6866e10dbe0a10f36f2fbe66ab93acf86a83e2daab08d88eed027142ee7d2",
    ("ex3.3", "A=5"):
        "fc47d96fd469159f1e922481d18888dae5539a65f40ab8aac893c9f46311e90d",
    ("ex3.4", ""):
        "1f664f659e7782512a4b9fcadab427ef82467fc6e3496dce24b96cec5f4e6a0a",
    ("ex3.4", "A=1,k=11"):
        "5560befb5a561a7a2f22c3f92a1959c148ac1dfed948bf572758049e879133ba",
    ("ex3.4", "A=1,k=2"):
        "1f664f659e7782512a4b9fcadab427ef82467fc6e3496dce24b96cec5f4e6a0a",
    ("ex3.4", "A=1,k=3"):
        "b6e12a6522c17ca47c598fb8102e32fedeebeec1eb2d6d56ee254de207f0d797",
    ("ex3.4", "A=2,k=11"):
        "85834956464064dbe04789831547a9e49995a08e8ff131a25ceef75ca5bc098d",
    ("ex3.4", "A=2,k=2"):
        "9472f7c5a9b99619d4f903e12c8db0aaaf98a6ed0a6be794f5e75c026b16a71a",
    ("ex3.4", "A=2,k=3"):
        "5bb20860d72a5283ec4916e9d67592682db46de9a52b298ab261c26db15ebe5d",
    ("ex3.4", "A=3,k=11"):
        "2dd855566bedeead9461a29ee0dd6ccab37abd494d2f168e014eff47917f048b",
    ("ex3.4", "A=3,k=2"):
        "16e57ba5b707d95ad91a2b3d6be2bba5b89be3d845150755df4f244754648480",
    ("ex3.4", "A=3,k=3"):
        "66bcb309ec4cd2d5d63bceffd027b1fa688c1ce18988cf4a5994073f41dade4d",
    ("ex3.5", ""):
        "2c5d7b07f3cd8e9b11c29c735972b567bee5852e01e9256a606f54974304e867",
    ("ex3.5", "A=1"):
        "2c5d7b07f3cd8e9b11c29c735972b567bee5852e01e9256a606f54974304e867",
    ("ex3.5", "A=2"):
        "cb0615094a18e6cec8441a1ec2563d9acb8715563d8a52f635446d3892a8338f",
    ("ex3.5", "A=3"):
        "f83e131b0890c1b959d312b07b9e100f62a9ddd998e2f46bc6f2e0ee0da7afaf",
    ("ex4.2", ""):
        "68166203c45ce71606f67fe59530044c1ba10b4b87053756e0a10c95ebf2fc97",
    ("ex4.2", "A=-1"):
        "53d9655afb741c8f0e21addc5605433e3af60fe998fa9dec66d9866da31ede3b",
    ("ex4.2", "A=0"):
        "68166203c45ce71606f67fe59530044c1ba10b4b87053756e0a10c95ebf2fc97",
    ("ex4.2", "A=1"):
        "daab6b1dee42e3323e48a58920eb604889768a20ed17cab6c4ee1624ad3e4a36",
    ("ex5.6", ""):
        "e3700cc50b99206f734bcfac12ad06fc4be6bb5ef6b986e079ffd2dd70ad83d5",
    ("ex5.6", "A=0"):
        "5b3ad4d7cb92262e053fbeee53a018137a7d8cb7255868104acc971d9ade9d1b",
    ("ex5.6", "A=1"):
        "e3700cc50b99206f734bcfac12ad06fc4be6bb5ef6b986e079ffd2dd70ad83d5",
    ("ex5.6", "A=2"):
        "4e0684ae8440d8066436197d0a89e023603d6d2a7697214b0088ae54d433dffe",
    ("ex5.6", "A=3"):
        "a12623bd500572093f607ead2e62b65f458ee09fb2210abebf5c29612f26bf55",
}

# family arguments: strings with an n are rational functions, other strings
# rationals
_FAMILY_DIGESTS = [
    (family_zeta, (2, "n+1"),
     "a53b75ad91e07c778aa8de0531d624006f1c4941b7e5d6f2b4a47d54676c7836"),
    (family_zeta, (3, "2n+3"),
     "d2fa266808b27df9481bb1b29d6bb370bb11449d5fd32b5b3daba3016619ec26"),
    (family_zeta, (2, "n^2+1"),
     "aa421fa9dc84a4c6944bf399f7626dbf4e43a426b02a6b8fcfc3dc8fdb856800"),
    (family_pi, ("n+1",),
     "595ed4cc621977ea860cb6044d1fe930dcc2b7b1242269554a378ecbdff84876"),
    (family_pi, ("3n+2",),
     "cf05cba635de2e708fb710d68c9a9abdde22f17a5e67b46a663e3dfd76bd5ef9"),
    (family_pi, ("n^2+1",),
     "1507377f4a77a6517ad22b9903d345f1a291c8408d741f4288ef48558d24167e"),
    (family_binomial, ("1/2", "1/3", "1"),
     "9f77d6b756428c44e55d8a547b052c27abf0483aa685d84dcd5b99d99f8e5dc1"),
    (family_binomial, ("-3/2", "1/4", "n"),
     "fc9e667fe7e1232521fc3dc3b972e42410f13663da428da8f9c4152c520f4619"),
    (family_binomial, ("3", "1/3", "1"),
     "407c59e50d75f5062f08be1497df7ee6e7833838988385944af6f91d79f529ee"),
    (family_sin_product, (2, 1),
     "a92743df820998486502de09d48fd07f1f7d43a483f2cb5328549e9eac253845"),
    (family_sin_product, (3, -1),
     "92091476279989220beaf696a92d70b1c64604d43aa66d0820a7ebb7dd568271"),
    (family_sin_product, (4, 2),
     "ae16c5324cfec7889f332a8a38e0a46695b00b4a32a627b52518abc9b123c235"),
    # the weights vanish at n = 1, so the integer form's scale vanishes
    # just before the tail, which must then start one term later
    (family_sin_product, (3, -2),
     "e09e9ecb07877b2f8ebf6951ffc432a5d70d393a2bbf2038609b3e5757016412"),
    (family_e_bauer_muir, (4,),
     "068d8bcd9021e7c9f2a907d1cebf1aa966a2a93e6541948d0b171ee02da2b3d6"),
    (family_e_bauer_muir, (-2,),
     "68f2d6e30f864568391fb8f4bd5413c8947c2a5f1d835e730f164820459dea62"),
]


def _approximant_digest(cf, N=200):
    if cf.tail is None:
        N = min(N, len(cf.prefix))
    text = "\n".join(str(v) for v in approximants(cf, N))
    return hashlib.sha256(text.encode()).hexdigest()


def test_preset_approximants_pinned():
    from polycf.cli import _REPRODUCE_ROWS

    wanted = {(p, "") for p in PRESET_PARAMS}
    wanted |= {
        (p, ",".join(f"{k}={params[k]}" for k in sorted(params)))
        for p, params, *_ in _REPRODUCE_ROWS
    }
    assert wanted == set(_PRESET_DIGESTS)
    for (preset, label), want in _PRESET_DIGESTS.items():
        params = dict(kv.split("=") for kv in label.split(",")) if label else {}
        got = _approximant_digest(build_preset(preset, params).cf)
        assert got == want, (preset, label)


def test_preset_forms_pinned():
    assert set(_PRESET_FORM_DIGESTS) == set(_PRESET_DIGESTS)
    for (preset, label), want in _PRESET_FORM_DIGESTS.items():
        params = dict(kv.split("=") for kv in label.split(",")) if label else {}
        text = json.dumps(build_preset(preset, params).cf.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == want, (preset, label)


def test_family_approximants_pinned():
    def arg(v):
        if not isinstance(v, str):
            return v
        return ratfn_from_string(v) if "n" in v else F(v)

    for family, args, want in _FAMILY_DIGESTS:
        member = family(*(arg(v) for v in args))
        assert _approximant_digest(member.cf) == want, (family.__name__, args)


# every parameter value the benchmark draws for the presets built by Euler,
# product or Bauer-Muir constructions, and the Pincherle presets at their
# reproduce-paper rows
_CONSTRUCTED_PRESETS = (
    [("ex1.1", {"f": f, "m": str(m)}) for f in ("1", "n", "n^2") for m in (1, 2, 3)]
    + [("ex2.2", {}), ("ex2.4", {})]
    + [("ex3.3", {"A": str(a)}) for a in range(1, 6)]
    + [("ex3.4", {"k": str(k), "A": str(a)}) for k in (2, 3) for a in (1, 2, 3)]
    + [("ex3.5", {"A": str(a)}) for a in (1, 2, 3)]
    + [("ex4.2", {"A": str(a)}) for a in (-1, 0, 1)]
    + [("ex5.6", {"A": str(a)}) for a in range(4)]
)


def test_constructed_presets_integer_and_transformable():
    half = F(1, 2)
    N = 20
    for preset, params in _CONSTRUCTED_PRESETS:
        cf = build_preset(preset, dict(params)).cf
        assert all(a.denominator == 1 and b.denominator == 1 for a, b in cf.prefix)
        for fn in (cf.tail.a, cf.tail.b):
            assert fn.den == IntPolynomial((1,)), (preset, params)
        assert to_integer_cf(cf, 150) is cf
        assert tietze_check(cf, 200).scan_limit >= 200
        bauer_muir(cf, [half] * (N + 1), N)
        extension_bmoe(cf, [F(0)] + [half] * (N + 1), N)
        odd_part(cf, N)
        if (preset, params) == ("ex3.3", {"A": "2"}):
            with pytest.raises(ZeroEvenDenominator):  # b_2 = 4 - 2A = 0
                even_part(cf, N)
        else:
            even_part(cf, N)
