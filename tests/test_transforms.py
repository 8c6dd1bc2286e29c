"""Unit tests for series/product constructions, contractions, and Bauer-Muir."""

import random
from fractions import Fraction

import pytest

from polycf.cf import CFSpec, CFTail, approximants, convergents, integer_tail_form
from polycf.errors import (
    DegenerateTerm,
    NonzeroW0,
    RepeatedValue,
    TransformDoesNotExist,
    UnitTerm,
    ZeroOddDenominator,
    ZeroPartialNumerator,
    ZeroTerm,
    ZeroW,
)
from polycf.poly import ratfn_from_string
from polycf.transforms import (
    ProductSpec,
    SeriesSpec,
    bauer_muir,
    bauer_muir_tail,
    bernoulli_from_sequence,
    euler_from_series,
    euler_tail,
    even_part,
    extension_bmoe,
    generalized_euler,
    generalized_product,
    odd_part,
    product_to_cf,
)

F = Fraction

E_CF = CFSpec(b0=F(2), tail=("n+1", "n+1"))


def _nonzero(rng):
    v = 0
    while v == 0:
        v = F(rng.randint(-9, 9), rng.randint(1, 9))
    return v


def test_bernoulli_matches_sequence():
    rng = random.Random(101)
    for _ in range(25):
        seq = [F(rng.randint(-20, 20), rng.randint(1, 10))]
        while len(seq) < 15:
            v = F(rng.randint(-20, 20), rng.randint(1, 10))
            if v != seq[-1]:
                seq.append(v)
        cf = bernoulli_from_sequence(seq)
        assert approximants(cf, len(seq) - 1).values() == seq


def test_bernoulli_rejects_repeats():
    with pytest.raises(RepeatedValue) as exc:
        bernoulli_from_sequence([F(1), F(2), F(2)])
    assert exc.value.index == 2
    with pytest.raises(ValueError):
        bernoulli_from_sequence([])


def test_euler_matches_partial_sums():
    rng = random.Random(102)
    for _ in range(25):
        terms = [F(rng.randint(-9, 9), rng.randint(1, 9))]
        terms += [_nonzero(rng) for _ in range(14)]
        spec = SeriesSpec(tuple(terms))
        cf = euler_from_series(spec)
        assert approximants(cf, 14).values() == spec.partial_sums()


def test_euler_rejects_zero_term():
    with pytest.raises(ZeroTerm) as exc:
        euler_from_series([F(1), F(2), F(0)])
    assert exc.value.index == 2


def test_generalized_euler_matches_shifted_sums():
    rng = random.Random(103)
    for _ in range(25):
        n = 12
        while True:
            a = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            b = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            if all(a[k] + b[k] - b[k - 1] != 0 for k in range(1, n)):
                break
        cf = generalized_euler(a, b)
        sums = []
        total = F(0)
        for k in range(n):
            total += a[k]
            sums.append(b[k] + total)
        assert approximants(cf, n - 1).values() == sums


def test_generalized_euler_validation():
    with pytest.raises(ValueError):
        generalized_euler([F(1)], [F(1), F(2)])
    with pytest.raises(DegenerateTerm):
        generalized_euler([F(1), F(2)], [F(0), F(-2)])


def test_product_matches_partial_products():
    rng = random.Random(104)
    for _ in range(25):
        facs = []
        while len(facs) < 12:
            v = _nonzero(rng)
            if v != 1:
                facs.append(v)
        spec = ProductSpec(tuple(facs))
        cf = product_to_cf(spec)
        assert approximants(cf, 12).values() == [F(1)] + spec.partial_products()


def test_product_rejects_degenerate_factors():
    with pytest.raises(ZeroTerm):
        product_to_cf([F(2), F(0)])
    with pytest.raises(UnitTerm):
        product_to_cf([F(2), F(1)])


def test_generalized_product_matches_weighted_products():
    rng = random.Random(105)
    for _ in range(25):
        n = 10
        while True:
            a = [_nonzero(rng) for _ in range(n)]
            b = [_nonzero(rng) for _ in range(n + 1)]
            if all(a[k - 1] * b[k] - b[k - 1] != 0 for k in range(1, n + 1)):
                break
        cf = generalized_product(a, b)
        want = []
        total = F(1)
        for k in range(n + 1):
            if k:
                total *= a[k - 1]
            want.append(b[k] * total)
        assert approximants(cf, n).values() == want


def test_generalized_product_validation():
    with pytest.raises(ValueError):
        generalized_product([F(2)], [F(1)])
    with pytest.raises(DegenerateTerm):
        generalized_product([F(2)], [F(1), F(1, 2)])


def test_even_part_pairs():
    terms = convergents(E_CF, 12)
    ev = even_part(E_CF, 6)
    for k, conv in enumerate(convergents(ev, 6)):
        assert (conv.A, conv.B) == (terms[2 * k].A, terms[2 * k].B)


def test_odd_part_values():
    terms = convergents(E_CF, 13)
    od = odd_part(E_CF, 6)
    vals = approximants(od, 6).values()
    assert vals[0] == F(3)  # b_0 + a_1 / b_1
    for k in range(1, 7):
        assert vals[k] == terms[2 * k + 1].A / terms[2 * k + 1].B
    # canonical pairs line up from k >= 1
    for k, conv in enumerate(convergents(od, 6)):
        if k >= 1:
            assert (conv.A, conv.B) == (terms[2 * k + 1].A, terms[2 * k + 1].B)


def test_contractions_on_random_positive_cfs():
    rng = random.Random(106)
    for _ in range(10):
        prefix = tuple(
            (
                F(rng.randint(1, 9), rng.randint(1, 4)),
                F(rng.randint(1, 9), rng.randint(1, 4)),
            )
            for _ in range(25)
        )
        cf = CFSpec(b0=F(rng.randint(0, 4)), prefix=prefix)
        terms = convergents(cf, 25)
        for k, conv in enumerate(convergents(even_part(cf, 12), 12)):
            assert (conv.A, conv.B) == (terms[2 * k].A, terms[2 * k].B)
        for k, conv in enumerate(convergents(odd_part(cf, 12), 12)):
            if k >= 1:
                assert (conv.A, conv.B) == (terms[2 * k + 1].A, terms[2 * k + 1].B)


def test_odd_part_rejects_zero_b1():
    cf = CFSpec(b0=F(1), prefix=((F(1), F(0)), (F(1), F(1)), (F(1), F(1))))
    with pytest.raises(ZeroOddDenominator):
        odd_part(cf, 1)


def test_bauer_muir_pairs():
    res = bauer_muir(E_CF, ratfn_from_string("n+1"), 8)
    orig = convergents(E_CF, 8)
    new = convergents(res.cf, 8)
    for n in range(9):
        w_n = F(n + 1)
        assert new[n].A == orig[n].A + w_n * (orig[n - 1].A if n else 1)
        assert new[n].B == orig[n].B + w_n * (orig[n - 1].B if n else 0)


def test_bauer_muir_with_list_w():
    w = [F(1), F(1, 2), F(2), F(2), F(5)]
    res = bauer_muir(E_CF, w, 4)
    orig = convergents(E_CF, 4)
    new = convergents(res.cf, 4)
    for n in range(5):
        assert new[n].A == orig[n].A + w[n] * (orig[n - 1].A if n else 1)
        assert new[n].B == orig[n].B + w[n] * (orig[n - 1].B if n else 0)
    assert len(res.existence_margin) == 4
    assert all(m != 0 for m in res.existence_margin)


def test_bauer_muir_nonexistence():
    # w_n = 0 for all n gives lambda_n = a_n... pick w so lambda_1 = 0:
    # a_1 = 2, b_1 = 2; w_0 (b_1 + w_1) = 2 with w_0 = 1, w_1 = 0
    with pytest.raises(TransformDoesNotExist):
        bauer_muir(E_CF, [F(1), F(0), F(1)], 2)


def test_margin_error_precedes_missing_term():
    # lambda_2 = 2 - w_1 (b_2 + w_2) = 0, and the CF has no term 3
    cf = CFSpec(b0=F(0), prefix=((F(1), F(1)), (F(2), F(1))))
    with pytest.raises(TransformDoesNotExist) as exc:
        bauer_muir(cf, [F(0), F(1), F(1), F(1)], 3)
    assert exc.value.index == 2
    with pytest.raises(TransformDoesNotExist) as exc:
        extension_bmoe(cf, [F(0), F(1), F(1), F(1), F(1)], 2)
    assert exc.value.index == 2


def test_contractions_reject_negative_counts():
    for part in (even_part, odd_part):
        with pytest.raises(ValueError):
            part(E_CF, -1)
    assert even_part(E_CF, 0) == CFSpec(b0=F(2))
    assert odd_part(E_CF, 0) == CFSpec(b0=F(3))


def test_extension_requires_zero_w0():
    with pytest.raises(NonzeroW0):
        extension_bmoe(E_CF, [F(1), F(2), F(3)], 1)
    with pytest.raises(ZeroW):
        extension_bmoe(E_CF, [F(0), F(0), F(3)], 1)


def test_extension_interleaves_original_and_transformed():
    N = 6
    w = [F(0)] + [F(j + 1) for j in range(1, N + 2)]
    ext = extension_bmoe(E_CF, w, N)
    vals = approximants(ext, 2 * N + 1).values()
    orig = approximants(E_CF, N).values()
    bm = approximants(bauer_muir(E_CF, ratfn_from_string("n+1"), N + 1).cf, N + 1)
    for k in range(N):
        assert vals[2 * k] == orig[k]
    for k in range(N):
        assert vals[2 * k + 1] == bm.values()[k + 1]


def test_extension_even_odd_parts_recover_source_and_transform():
    N = 5
    w = [F(0)] + [F(j + 1) for j in range(1, N + 2)]
    ext = extension_bmoe(E_CF, w, N)
    ev = approximants(even_part(ext, N), N).values()
    assert ev == approximants(E_CF, N).values()
    od = approximants(odd_part(ext, N), N).values()
    bm = approximants(bauer_muir(E_CF, ratfn_from_string("n+1"), N + 1).cf, N + 1)
    assert od == bm.values()[1 : N + 2]


def _is_integer_form(cf):
    prefix_integral = all(v.denominator == 1 for term in cf.prefix for v in term)
    return prefix_integral and cf.tail.a.den == 1 and cf.tail.b.den == 1


def test_euler_tail_and_integer_form_match_weighted_partial_sums():
    cases = [("(n+2)/(n^2+1)", rho) for rho in ("1", "-1", "(n+1)/(2n)")]
    # u = 2(2n+5)(2n-1)(n+1): r(2) = 1/5, so r_1 must absorb a factor 5
    cases.append(("8n^3+24n^2+6n-10", "1"))
    for u, rho in cases:
        u, rho = ratfn_from_string(u), ratfn_from_string(rho)
        want, total, h = [F(1, 3)], F(1, 3), F(1)
        for n in range(1, 31):
            h = h * rho(n) if n > 1 else h
            total += h * u(n)
            want.append(total)
        cf = euler_tail(F(1, 3), u, rho)
        assert approximants(cf, 30).values() == want
        icf = integer_tail_form(cf)
        assert _is_integer_form(icf)
        assert approximants(icf, 30).values() == want


def test_integer_tail_form_rejects_zero_numerator():
    # term 2 = (0, 1) is moved into the prefix, where a CF may not have it
    cf = CFSpec(b0=F(0), prefix=((F(1, 2), F(1)),), tail=CFTail("n-2", "1", 2))
    with pytest.raises(ZeroPartialNumerator) as exc:
        integer_tail_form(cf)
    assert exc.value.index == 2


def test_integer_tail_form_fractional_prefix():
    # the last prefix term's b is fractional after scaling by r(m), so a
    # tail term moves into the prefix; with one prefix term r_0 = 1 is fixed
    cfs = (
        CFSpec(
            F(5, 3),
            ((F(-2), F(-1, 6)), (F(1), F(1, 6)), (F(5, 3), F(7, 2))),
            CFTail("3", "(n+1)/2", 4),
        ),
        CFSpec(F(1), ((F(1, 2), F(2, 3)),), CFTail("n^2/3", "(2n+1)/5", 2)),
    )
    for cf in cfs:
        icf = integer_tail_form(cf)
        assert _is_integer_form(icf)
        assert approximants(icf, 30).values() == approximants(cf, 30).values()


def test_bauer_muir_tail_matches_finite():
    w = ratfn_from_string("2n+1")
    with_prefix = CFSpec(F(1), ((F(2), F(3)), (F(1), F(5))), CFTail("n+1", "n^2", 4))
    for cf in (E_CF, with_prefix):
        for w0 in (F(0), F(1, 2)):
            res = bauer_muir_tail(cf, w, w0)
            finite = bauer_muir(cf, [w0] + [w(n) for n in range(1, 21)], 20)
            assert approximants(res.cf, 20).values() == approximants(finite.cf, 20).values()
