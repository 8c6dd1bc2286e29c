"""Acceptance gate: the project's acceptance grid, one test per criterion,
each at its pinned tolerance and term budget.

Every test funnels through _criterion, which records a single PASS/FAIL
line (shown in the terminal summary) and then asserts.  Tolerances and
term counts are written out literally rather than shared through helpers
so each criterion reads as its own statement.
"""

import json
import time
import traceback
from fractions import Fraction

import mpmath
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from polycf.analysis import (
    growth_diagnostics,
    reference_constant,
    tietze_check,
)
from polycf.cf import CFSpec, approximants, convergents, evaluate, term_at
from polycf.cli import main as cli_main
from polycf.families import LimitClaim, build_preset, pincherle_family
from polycf.poly import ratfn_from_string
from polycf.transforms import (
    bauer_muir,
    bernoulli_from_sequence,
    euler_from_series,
    even_part,
    extension_bmoe,
    generalized_euler,
    generalized_product,
    odd_part,
    product_to_cf,
)

from conftest import record_criterion

F = Fraction

E_CF = CFSpec(b0=F(2), tail=("n+1", "n+1"))


def _criterion(name, ok, detail=""):
    record_criterion(name, ok, detail)
    assert ok, f"{name} [{detail}]"


# Criteria 1a, 1b, 1c and 1e are derandomized hypothesis properties, run
# inside the criterion so that each still records one line.  Hypothesis
# tries the simplest example first, so each property runs one example more
# than the number of random draws it stands for.  Shrinking is off: these
# examples are long, and shrinking one that fails can take minutes.
def _property(max_examples):
    return settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        database=None,
        phases=[Phase.generate],
    )


def _fractions(lo, hi, den, nonzero=False):
    """F(p, q) for uniform integers lo <= p <= hi (p != 0 if nonzero) and
    1 <= q <= den: one choice per value, which hypothesis draws faster than
    the two of a builds()."""
    values = [F(p, q) for p in range(lo, hi + 1) if p or not nonzero for q in range(1, den + 1)]
    return st.sampled_from(values)


_FRACTION = _fractions(-9, 9, 6)
_NONZERO = _fractions(-9, 9, 6, nonzero=True)


def _draw_other(data, strategy, avoid):
    """A draw from strategy other than avoid."""
    v = data.draw(strategy)
    # filtering only after a collision keeps the common draw cheap
    return v if v != avoid else data.draw(strategy.filter(lambda x: x != avoid))


def _holds(prop):
    """Run a property: True, or False (with the falsifying example and its
    traceback on stderr) when it fails."""
    try:
        prop()
    except Exception:
        traceback.print_exc()
        return False
    return True


def test_criterion_1a_series_product_exactness():
    n = 60
    inputs = []

    @_property(41)
    @given(data=st.data())
    def bernoulli(data):
        seq = [data.draw(_FRACTION)]
        while len(seq) < n + 1:
            seq.append(_draw_other(data, _FRACTION, seq[-1]))
        inputs.append("bernoulli")
        assert approximants(bernoulli_from_sequence(seq), n) == seq

    @_property(41)
    @given(first=_FRACTION, rest=st.lists(_NONZERO, min_size=n, max_size=n))
    def euler(first, rest):
        terms = [first] + rest
        sums = []
        total = F(0)
        for t in terms:
            total += t
            sums.append(total)
        inputs.append("euler")
        assert approximants(euler_from_series(terms), n) == sums

    @_property(41)
    @given(data=st.data())
    def gen_euler(data):
        a = data.draw(st.lists(_FRACTION, min_size=n + 1, max_size=n + 1))
        b = [data.draw(_FRACTION)]
        for k in range(1, n + 1):
            # a[k] + b[k] - b[k - 1] != 0
            b.append(_draw_other(data, _FRACTION, b[-1] - a[k]))
        want = []
        total = F(0)
        for k in range(n + 1):
            total += a[k]
            want.append(b[k] + total)
        inputs.append("generalized-euler")
        assert approximants(generalized_euler(a, b), n) == want

    @_property(41)
    @given(facs=st.lists(_NONZERO.filter(lambda v: v != 1), min_size=n, max_size=n))
    def product(facs):
        prods = [F(1)]
        total = F(1)
        for fct in facs:
            total *= fct
            prods.append(total)
        inputs.append("product")
        assert approximants(product_to_cf(facs), n) == prods

    @_property(41)
    @given(data=st.data())
    def gen_product(data):
        a = data.draw(st.lists(_NONZERO, min_size=n, max_size=n))
        b = [data.draw(_NONZERO)]
        for k in range(1, n + 1):
            # a[k - 1] b[k] - b[k - 1] != 0
            b.append(_draw_other(data, _NONZERO, b[-1] / a[k - 1]))
        want = []
        total = F(1)
        for k in range(n + 1):
            if k:
                total *= a[k - 1]
            want.append(b[k] * total)
        inputs.append("generalized-product")
        assert approximants(generalized_product(a, b), n) == want

    failures = [
        prop.__name__
        for prop in (bernoulli, euler, gen_euler, product, gen_product)
        if not _holds(prop)
    ]
    _criterion(
        "1a series/product transforms match partial sums/products (n<=60)",
        len(inputs) >= 200 and not failures,
        f"{len(inputs)} randomized inputs",
    )


def test_criterion_1b_contraction_pairs():
    cases = []

    @_property(6)
    @given(
        b0=st.integers(0, 5).map(F),
        prefix=st.lists(
            st.tuples(_fractions(1, 9, 4), _fractions(1, 9, 4)), min_size=101, max_size=101
        ),
    )
    def contraction(b0, prefix):
        cf = CFSpec(b0=b0, prefix=tuple(prefix))
        cases.append(cf)
        conv = convergents(cf, 101)
        for k, c in enumerate(convergents(even_part(cf, 50), 50)):
            assert (c.A, c.B) == (conv[2 * k].A, conv[2 * k].B), ("even", k)
        for k, c in enumerate(convergents(odd_part(cf, 50), 50)):
            assert k == 0 or (c.A, c.B) == (conv[2 * k + 1].A, conv[2 * k + 1].B), ("odd", k)

    ok = _holds(contraction)
    _criterion(
        "1b even/odd contractions give pairs (A_2k,B_2k)/(A_2k+1,B_2k+1) (k<=50)",
        ok,
        f"{len(cases)} randomized positive CFs",
    )


def _bauer_muir_mismatches(cf, w_arg, w_vals):
    res = bauer_muir(cf, w_arg, 50)
    orig = convergents(cf, 50)
    new = convergents(res.cf, 50)
    bad = []
    for n in range(51):
        prev_a = orig[n - 1].A if n else F(1)
        prev_b = orig[n - 1].B if n else F(0)
        if new[n].A != orig[n].A + w_vals[n] * prev_a:
            bad.append((n, "C"))
        if new[n].B != orig[n].B + w_vals[n] * prev_b:
            bad.append((n, "D"))
    return bad


def test_criterion_1c_bauer_muir_pairs():
    cases = [E_CF]
    e_bad = _bauer_muir_mismatches(E_CF, ratfn_from_string("n+1"), [F(n + 1) for n in range(51)])
    pos = _fractions(1, 9, 3)

    @_property(5)
    @given(data=st.data())
    def random_case(data):
        prefix = tuple(data.draw(st.lists(st.tuples(pos, pos), min_size=50, max_size=50)))
        cf = CFSpec(b0=data.draw(st.integers(0, 3).map(F)), prefix=prefix)
        w = [data.draw(pos)]
        for n in range(1, 51):
            # lambda_n = a_n - w_(n-1) (b_n + w_n) != 0
            a_n, b_n = prefix[n - 1]
            w.append(_draw_other(data, pos, a_n / w[-1] - b_n))
        cases.append(cf)
        assert not _bauer_muir_mismatches(cf, w, w)

    ok = _holds(random_case)
    _criterion(
        "1c Bauer-Muir pairs equal (A_n + w_n A_n-1, B_n + w_n B_n-1) (n<=50)",
        ok and not e_bad,
        f"{len(cases)} cases",
    )


def test_criterion_1d_extension_interleaving():
    N = 21
    w = [F(0)] + [F(j + 1) for j in range(1, N + 2)]
    ext = extension_bmoe(E_CF, w, N)
    ev_vals = approximants(even_part(ext, 20), 20)
    orig_vals = approximants(E_CF, 20)
    even_ok = ev_vals == orig_vals
    od_vals = approximants(odd_part(ext, 20), 20)
    bm_vals = approximants(
        bauer_muir(E_CF, ratfn_from_string("n+1"), 21).cf, 21
    )
    odd_ok = od_vals == bm_vals[1:22]
    _criterion(
        "1d extension: even part recovers source, odd part recovers transform (20 indices)",
        even_ok and odd_ok,
        "base CF for e with w_n = n+1",
    )


def _determinant_mismatches(cf):
    conv = convergents(cf, 200)
    prod = F(1)
    bad = []
    for N in range(1, 201):
        prod *= term_at(cf, N)[0]
        lhs = conv[N].A * conv[N - 1].B - conv[N - 1].A * conv[N].B
        if lhs != (-1) ** (N - 1) * prod:
            bad.append(N)
    return bad


def test_criterion_1e_determinant_identity():
    cfs = [E_CF]
    e_bad = _determinant_mismatches(E_CF)

    @_property(2)
    @given(
        prefix=st.lists(
            st.tuples(st.integers(1, 9).map(F), st.integers(-9, 9).map(F)),
            min_size=200,
            max_size=200,
        )
    )
    def random_cf(prefix):
        cf = CFSpec(b0=F(3), prefix=tuple(prefix))
        cfs.append(cf)
        assert not _determinant_mismatches(cf)

    ok = _holds(random_cf)
    _criterion(
        "1e determinant identity holds exactly (N<=200)", ok and not e_bad, f"{len(cfs)} CFs"
    )


def test_criterion_2a_brouncker():
    t0 = time.time()
    member = build_preset("brouncker")
    est = evaluate(member.cf, F(1, 10**12), 10000, precision_bits=128)
    with mpmath.workprec(160):
        pi_ref = reference_constant(LimitClaim.named("PiOver4"), 160) * 4
        err = abs(4 / est.value - pi_ref)
        ok = err < mpmath.mpf("1e-3")
    elapsed = time.time() - t0
    _criterion(
        "2a Brouncker: |4/value - pi| < 1e-3 at 10^4 terms in < 10 s",
        ok and elapsed < 10,
        f"err {mpmath.nstr(err, 3)}, {elapsed:.2f} s",
    )


def test_criterion_2b_rational_limit_family():
    bad = []
    for f in ("1", "n", "n^2"):
        for m in (1, 2, 3):
            member = build_preset("ex1.1", {"f": f, "m": str(m)})
            est = evaluate(member.cf, F(1, 10**10), 100)
            err = abs(est.value - (6 * m + 1))
            if not err < mpmath.mpf("1e-8"):
                bad.append((f, m))
    _criterion(
        "2b rational-limit family: |value - (6m+1)| < 1e-8 at <= 100 terms",
        not bad,
        "f in {1,n,n^2} x m in {1,2,3}",
    )


def test_criterion_2c_pincherle_presets():
    bad = []
    for preset, target in (("ex2.2", F(2)), ("ex2.4", F(1, 2)), ("ex2.5", F(1))):
        member = build_preset(preset)
        est = evaluate(member.cf, F(1, 10**10), 100)
        err = abs(est.value - mpmath.mpf(target.numerator) / target.denominator)
        if not err < mpmath.mpf("1e-8"):
            bad.append(preset)
    _criterion(
        "2c minimal-solution presets within 1e-8 of 2, 1/2, 1 at <= 100 terms",
        not bad,
    )


def test_criterion_2d_pi_family():
    bad = []
    with mpmath.workprec(160):
        target = reference_constant(build_preset("ex3.3").limit, 160)
        for A in range(1, 6):
            member = build_preset("ex3.3", {"A": str(A)})
            est = evaluate(member.cf, F(1, 10**10), 10000, precision_bits=128)
            if not abs(est.value - target) < mpmath.mpf("1e-3"):
                bad.append(A)
    _criterion(
        "2d pi/4 family: |value - pi/4| < 1e-3 at 10^4 terms (A = 1..5)",
        not bad,
    )


def test_criterion_2e_zeta_family():
    rows = [(2, 200, "1e-4", 128), (3, 400, "1e-6", 128), (11, 200, "1e-20", 192)]
    bad = []
    for k, terms, tol, bits in rows:
        for A in (1, 2, 3):
            member = build_preset("ex3.4", {"k": str(k), "A": str(A)})
            est = evaluate(member.cf, F(tol) / 10**6, terms, precision_bits=bits)
            with mpmath.workprec(bits + 32):
                target = reference_constant(member.limit, bits)
                err = abs(est.value - target)
                if not err < mpmath.mpf(tol):
                    bad.append((k, A, mpmath.nstr(err, 3)))
    _criterion(
        "2e zeta family: 1e-4 at 200 (k=2), 1e-6 at 400 (k=3), 1e-20 at 200/192-bit (k=11); A = 1..3",
        not bad,
        f"failing rows (k, A, err): {bad}" if bad else "9 rows",
    )


def test_criterion_2f_root_family():
    bad = []
    with mpmath.workprec(160):
        for A in (1, 2, 3):
            member = build_preset("ex3.5", {"A": str(A)})
            est = evaluate(member.cf, F(1, 10**18), 120)
            target = reference_constant(member.limit, 128)
            if not abs(est.value - target) < mpmath.mpf("1e-12"):
                bad.append(A)
    _criterion(
        "2f fifth-root family: |value - (12/7)^(1/5)| < 1e-12 at 120 terms",
        not bad,
    )


def test_criterion_2g_sine_product_family():
    bad = []
    with mpmath.workprec(160):
        for A in (-1, 0, 1):
            member = build_preset("ex4.2", {"A": str(A)})
            est = evaluate(member.cf, F(1, 10**10), 10000, precision_bits=128)
            target = reference_constant(member.limit, 128)
            if not abs(est.value - target) < mpmath.mpf("1e-3"):
                bad.append(A)
    _criterion(
        "2g sine-product family: |value - 3*sqrt(3)/(2*pi)| < 1e-3 at 10^4 terms",
        not bad,
    )


def test_criterion_2h_e_family():
    bad = []
    with mpmath.workprec(160):
        for A in range(4):
            member = build_preset("ex5.6", {"A": str(A)})
            est = evaluate(member.cf, F(1, 10**16), 60)
            target = reference_constant(member.limit, 128)
            if not abs(est.value - target) < mpmath.mpf("1e-10"):
                bad.append(A)
    _criterion(
        "2h accelerated e family: |value - e| < 1e-10 at 60 terms (A = 0..3)",
        not bad,
    )


def test_criterion_2i_three_parameter_entry():
    member = build_preset("entry13", {"a": "1", "b": "1", "d": "1"})
    est = evaluate(member.cf, F(1, 10**12), 200)
    err = abs(est.value - 1)
    _criterion(
        "2i three-parameter entry (a=b=d=1): |value - 1| < 1e-6 at 200 terms",
        err < mpmath.mpf("1e-6"),
        f"err {mpmath.nstr(err, 3)}",
    )


def test_criterion_3_limit_independence():
    bs = ["n", "n+1", "n+2", "n+3", "2n", "2n+1", "3n", "n^2", "n^2+1", "2"]
    bad = []
    for b in bs:
        member = pincherle_family(ratfn_from_string("n+2"), ratfn_from_string(b))
        if not member.verified:
            bad.append((b, "hypotheses"))
            continue
        est = evaluate(member.cf, F(1, 10**10), 300)
        if not abs(est.value - 2) < mpmath.mpf("1e-8"):
            bad.append((b, "value"))
    _criterion(
        "3 limit independence: 10 admissible b share the limit 2 for H = n+2",
        not bad,
        f"bad {bad}" if bad else "10 denominators",
    )


def test_criterion_4_tietze():
    t0 = time.time()
    e_report = tietze_check(E_CF)
    e_time = time.time() - t0
    t0 = time.time()
    br_report = tietze_check(build_preset("brouncker").cf)
    br_time = time.time() - t0
    ok = (
        e_report.holds
        and e_report.N0 == 1
        and not br_report.holds
        and e_time < 1
        and br_time < 1
    )
    _criterion(
        "4 Tietze: e-CF certified with N0 = 1, Brouncker declined, each < 1 s",
        ok,
        f"{e_time:.3f} s / {br_time:.3f} s",
    )


def test_criterion_5_growth_constants():
    e_growth = growth_diagnostics(E_CF, 50)
    ones = CFSpec(b0=F(1), tail=("1", "1"))
    ones_growth = growth_diagnostics(ones, 50)
    ok = (
        e_growth.kind == "FactorialPower"
        and e_growth.k == 1
        and e_growth.C > 0
        and ones_growth.kind == "GoldenRatio"
        and ones_growth.C > 0
    )
    _criterion(
        "5 growth constants positive: e-CF factorial, all-ones golden ratio (n<=50)",
        ok,
        f"C = {mpmath.nstr(e_growth.C, 5)} / {mpmath.nstr(ones_growth.C, 5)}",
    )


def test_criterion_6_reproduce_paper(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    code1 = cli_main(["reproduce-paper", "--out", str(out1)])
    text1 = capsys.readouterr().out
    code2 = cli_main(["reproduce-paper", "--out", str(out2)])
    text2 = capsys.readouterr().out
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    deterministic = (
        text1 == text2
        and files1 == files2
        and all((out1 / f).read_bytes() == (out2 / f).read_bytes() for f in files1)
    )
    verdicts = []
    for f in files1:
        data = json.loads((out1 / f).read_text())
        verdicts += [row["verdict"] for row in data["rows"]]
    all_pass = verdicts and all(v == "Pass" for v in verdicts)
    _criterion(
        "6 reproduce-paper: every row Pass and byte-deterministic",
        deterministic and all_pass and code1 == code2 == 0,
        f"deterministic {deterministic}; "
        f"{sum(1 for v in verdicts if v == 'Pass')}/{len(verdicts)} rows Pass",
    )
