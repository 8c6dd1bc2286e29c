"""Output checks that do not trust polycf.

Terms are recomputed here from the polynomial coefficients of each CF, the
three-term recurrence is run here in exact rationals, and constants come
from mpmath's own functions, never from polycf's fixed-point oracles.  Each
check returns a list of violation strings; an empty list means the output
is correct.
"""

import json
import re
from fractions import Fraction

import mpmath

GUARD_BITS = 8   # decimal rounding of a report plus the oracle's own 2^(4-bits)


# ---------------------------------------------------------------------------
# continued fractions, independently

def _poly(coeffs, x):
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


def _ratfn(rf, x):
    return Fraction(_poly(rf.num.coeffs, x), _poly(rf.den.coeffs, x))


def cf_terms(cf, N):
    """(a_n, b_n) for n = 1..N, from the CF's prefix and tail coefficients."""
    out = list(cf.prefix[:N])
    m = len(cf.prefix)
    if len(out) < N:
        if cf.tail is None:
            raise ValueError(f"finite CF has only {m} terms, {N} requested")
        for n in range(m + 1, N + 1):
            x = cf.tail.start_index + n - m - 1
            out.append((_ratfn(cf.tail.a, x), _ratfn(cf.tail.b, x)))
    return out


def pairs(b0, terms):
    """Canonical (A_n, B_n) for n = -1..N by the three-term recurrence."""
    A_prev, B_prev, A, B = Fraction(1), Fraction(0), Fraction(b0), Fraction(1)
    out = [(A_prev, B_prev), (A, B)]
    for a, b in terms:
        A, A_prev = b * A + a * A_prev, A
        B, B_prev = b * B + a * B_prev, B
        out.append((A, B))
    return out


def _value(pair):
    A, B = pair
    return A / B if B != 0 else None


def values(cf, N):
    """Approximant values 0..N (None where B_n = 0)."""
    return [_value(p) for p in pairs(cf.b0, cf_terms(cf, N))[1:]]


def check_convergents(result, cf, N):
    bad = []
    if len(result) != N + 1:
        return [f"convergents: {len(result)} entries, expected {N + 1}"]
    terms = cf_terms(cf, N)
    ref = pairs(cf.b0, terms)
    prod = Fraction(1)
    for n, conv in enumerate(result):
        if conv.index != n or (conv.A, conv.B) != ref[n + 1]:
            bad.append(f"convergents: pair {n} differs from the recurrence")
            break
        if n >= 1:
            prod *= terms[n - 1][0]
            A1, B1 = result[n - 1].A, result[n - 1].B
            if conv.A * B1 - A1 * conv.B != (-1) ** (n - 1) * prod:
                bad.append(f"convergents: determinant formula fails at n={n}")
                break
    return bad


def check_evaluate(est, cf, N, precision_bits=128):
    t = est.terms_used
    if not 1 <= t <= N:
        return [f"evaluate: terms_used {t} outside 1..{N}"]
    last = _value(pairs(cf.b0, cf_terms(cf, t))[-1])
    if last is None:
        return ["evaluate: last convergent undefined"]
    with mpmath.workprec(precision_bits + 32):
        want = mpmath.mpf(last.numerator) / last.denominator
        if abs(est.value - want) > abs(want) * mpmath.mpf(2) ** (2 - precision_bits):
            return [f"evaluate: value differs from the last convergent A_{t}/B_{t}"]
    return []


def check_even_part(out, cf, N):
    orig = values(cf, 2 * N)
    got = values(out, N)
    for k in range(N + 1):
        if orig[2 * k] is not None and got[k] != orig[2 * k]:
            return [f"even_part: approximant {k} != A_{2 * k}/B_{2 * k}"]
    return []


def check_odd_part(out, cf, N):
    orig = values(cf, 2 * N + 1)
    got = values(out, N)
    for k in range(N + 1):
        if orig[2 * k + 1] is not None and got[k] != orig[2 * k + 1]:
            return [f"odd_part: approximant {k} != A_{2 * k + 1}/B_{2 * k + 1}"]
    return []


def check_bauer_muir(res, cf, w, N):
    ref = pairs(cf.b0, cf_terms(cf, N))
    new = pairs(res.cf.b0, cf_terms(res.cf, N))
    for n in range(N + 1):
        (A, B), (A1, B1) = ref[n + 1], ref[n]
        if new[n + 1] != (A + w[n] * A1, B + w[n] * B1):
            return [f"bauer_muir: pair {n} != (A_n + w_n A_(n-1), B_n + w_n B_(n-1))"]
    return []


def check_extension_bmoe(out, cf, w, N):
    ref = pairs(cf.b0, cf_terms(cf, N + 1))
    got = values(out, 2 * N + 1)
    for k in range(N):
        if got[2 * k] != _value(ref[k + 1]):
            return [f"extension_bmoe: approximant {2 * k} != original approximant {k}"]
        (A, B), (A1, B1) = ref[k + 2], ref[k + 1]
        if got[2 * k + 1] != _value((A + w[k + 1] * A1, B + w[k + 1] * B1)):
            return [f"extension_bmoe: approximant {2 * k + 1} != Bauer-Muir approximant"]
    return []


def check_to_integer_cf(out, cf, N):
    terms = cf_terms(out, N)
    if any(a.denominator != 1 or b.denominator != 1 for a, b in terms):
        return ["to_integer_cf: non-integer term"]
    if values(out, N) != values(cf, N):
        return ["to_integer_cf: approximants changed"]
    return []


def check_euler(out, series):
    got = values(out, len(series) - 1)
    total = Fraction(0)
    for n, a in enumerate(series):
        total += a
        if got[n] != total:
            return [f"euler_from_series: approximant {n} != partial sum"]
    return []


def check_tietze(report, cf):
    if not report.holds:
        return []
    terms = cf_terms(cf, report.scan_limit + 1)

    def ok(n):
        a, b = terms[n - 1]
        return b >= 1 and b >= abs(a) + (1 if terms[n][0] < 0 else 0)

    if not all(ok(n) for n in range(report.N0, report.scan_limit + 1)):
        return [f"tietze_check: condition fails past N0={report.N0}"]
    if report.N0 > 1 and ok(report.N0 - 1):
        return [f"tietze_check: N0={report.N0} is not the smallest"]
    return []


def check_growth(g, cf, N, precision_bits=128):
    Bs = [B for _, B in pairs(cf.b0, cf_terms(cf, N))[2:]]
    with mpmath.workprec(precision_bits + 32):
        if g.kind == "FactorialPower":
            base = abs(g.D) / (1 + g.epsilon)
            fact, ratios = 1, []
            for n, B in enumerate(Bs, 1):
                fact *= n
                r = B / (base ** n * Fraction(fact) ** g.k)
                ratios.append(mpmath.mpf(r.numerator) / r.denominator)
        else:
            phi = (1 + mpmath.sqrt(5)) / 2
            ratios = [(mpmath.mpf(B.numerator) / B.denominator) / phi ** n
                      for n, B in enumerate(Bs, 1)]
        want = min(ratios)
        if abs(g.C - want) > abs(want) * mpmath.mpf(2) ** (8 - precision_bits):
            return [f"growth_diagnostics: C={mpmath.nstr(g.C, 8)} is not min B_n/bound"]
    return []


# ---------------------------------------------------------------------------
# constants, from mpmath

def true_constant(claimed):
    """mpmath value of a claim as polycf describes it: "7", "1/2", "Zeta(k=3)"."""
    m = re.fullmatch(r"(\w+)(?:\((.*)\))?", claimed)
    if m is None or claimed[0].isdigit() or claimed[0] == "-":
        q = Fraction(claimed)
        return mpmath.mpf(q.numerator) / q.denominator
    name = m.group(1)
    p = dict(kv.split("=") for kv in m.group(2).split(",")) if m.group(2) else {}
    p = {k: int(v) for k, v in p.items()}
    if name == "PiOver4":
        return mpmath.pi / 4
    if name == "E":
        return mpmath.e
    if name == "BrounckerPi":
        return 4 / mpmath.pi
    if name == "Zeta":
        return mpmath.zeta(p["k"])
    if name == "Root":
        return mpmath.root(mpmath.mpf(p["p"]) ** p["r"] / mpmath.mpf(p["q"]) ** p["r"], p["s"])
    if name == "SineProduct":
        return p["m"] * mpmath.sin(mpmath.pi / p["m"]) / mpmath.pi
    raise ValueError(f"unknown constant {claimed!r}")


def close(x, claimed, bits, guard=GUARD_BITS):
    with mpmath.workprec(bits + 64):
        want = true_constant(claimed)
        return abs(mpmath.mpf(x) - want) <= abs(want) * mpmath.mpf(2) ** (guard - bits)


def check_verdict_row(row, tol, bits):
    """A verification report row: oracle value, and Pass only within tol."""
    bad = []
    label = f"{row['preset']} {row['params']} @{bits}"
    with mpmath.workprec(bits + 64):
        if not close(row["oracle"], row["claimed"], bits):
            bad.append(f"{label}: oracle {row['oracle'][:20]} disagrees with mpmath")
        if row["verdict"] == "Pass":
            want = true_constant(row["claimed"])
            limit = mpmath.mpf(Fraction(tol).numerator) / Fraction(tol).denominator
            limit = limit * (1 + mpmath.mpf(2) ** -60) + abs(want) * mpmath.mpf(2) ** (4 - bits)
            if mpmath.mpf(row["abs_err"]) > limit:
                bad.append(f"{label}: Pass with abs_err {mpmath.nstr(mpmath.mpf(row['abs_err']), 3)}"
                           f" > tol {mpmath.nstr(limit, 3)}")
    return bad


def params_key(preset, params):
    return preset + json.dumps({k: str(v) for k, v in params.items()}, sort_keys=True)
