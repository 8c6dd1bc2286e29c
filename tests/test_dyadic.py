"""The integer rounding and decimal output of polycf.dyadic against mpmath.

round_rational must give the mpf that mpmath.mpf(num) / den and +x give,
and to_str the string of mpmath.nstr at prec_to_dps(bits), byte for byte:
for random rationals and signs, binary exponents from -5000 to +5000 (past
the +-3500 where mpmath's formatting divides by a power of ten first),
precisions from 53 to 4096 bits, zero, infinity, and every number printed in
the golden reports.
"""

import json
import pathlib
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import libelefun, libmpf

from polycf.cli import _REPRODUCE_ROWS, main
from polycf.dyadic import _LN2, _LN10, _pow10, divide, round_rational, round_to, to_str

_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
_GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text())


def _dyadic(x):
    sign, man, exp, _ = x._mpf_ if hasattr(x, "_mpf_") else x
    return (-man if sign else man), exp


def _nstr(man, exp, bits):
    return mpmath.nstr(mpmath.mp.make_mpf(libmpf.from_man_exp(man, exp)), libmpf.prec_to_dps(bits))


@st.composite
def _rationals(draw):
    num = draw(st.integers(1, 2 ** 600)) * draw(st.sampled_from([1, -1]))
    den = draw(st.integers(1, 2 ** 600))
    shift = draw(st.integers(-5000, 5000))
    return Fraction(num << max(shift, 0), den << max(-shift, 0))


@st.composite
def _dyadics(draw):
    bits = draw(st.integers(53, 4096))
    man = draw(st.integers(1, 2 ** bits - 1)) * draw(st.sampled_from([1, -1]))
    exp = draw(st.integers(-5000, 5000)) - abs(man).bit_length()
    return round_to(man, exp, bits), bits


@_SETTINGS
@given(_rationals(), st.integers(53, 4096))
def test_round_rational_is_mpmaths_division_then_rounding(q, bits):
    with mpmath.workprec(bits + 32):
        wide = mpmath.mpf(q.numerator) / q.denominator
    with mpmath.workprec(bits):
        assert round_rational(q, bits) == _dyadic(+wide)
        assert round_rational(q, bits, 0) == _dyadic(mpmath.mpf(q.numerator) / q.denominator)


@st.composite
def _near_ties(draw):
    # T + r / den for a value T halfway between two bits-bit neighbours: the
    # rounding of a wide numerator decides which way T rounds
    bits = draw(st.integers(53, 600))
    head = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    den = draw(st.integers(2 ** 100, 2 ** 300)) | 1
    return Fraction((((2 * head + 1) << 39) * den + draw(st.integers(-3, 3))), den), bits


@_SETTINGS
@given(_near_ties())
def test_round_rational_near_ties(x):
    q, bits = x
    with mpmath.workprec(bits + 32):
        wide = mpmath.mpf(q.numerator) / q.denominator
    with mpmath.workprec(bits):
        assert round_rational(q, bits) == _dyadic(+wide)


@_SETTINGS
@given(_dyadics())
def test_to_str_is_nstr(x):
    (man, exp), bits = x
    assert to_str((man, exp), bits) == _nstr(man, exp, bits)


@_SETTINGS
@given(_rationals(), st.integers(53, 4096))
def test_to_str_of_rounded_rationals_is_nstr(q, bits):
    assert to_str(round_rational(q, bits), bits) == _nstr(*round_rational(q, bits), bits)


@_SETTINGS
@given(st.integers(1, 2 ** 5000), st.integers(-300, 300), st.integers(53, 4096))
def test_to_str_of_wide_mantissas_is_nstr(man, exp, bits):
    # past 2^3500 with a small exponent: mpmath's power of ten is near 10^0
    x = round_to(man, exp, man.bit_length())
    assert to_str(x, bits) == _nstr(*x, bits)


@pytest.mark.parametrize("bits", [64, 128, 1024])
def test_to_str_follows_mpmaths_scaling_past_2_to_3500(bits):
    # decimals N 10^m that end in 5 just past the printed digits: rounded
    # exactly, many would print one unit higher in the last place than
    # mpmath's division by an approximate 10^b prints them (e.g. 64 bits,
    # (10^18 + 5) 10^1060 prints as 1.0e+1078)
    dps = libmpf.prec_to_dps(bits)
    for m in range(1054, 1150):
        for n in (10 ** dps + 5, 2 * 10 ** dps + 5, 10 ** dps + 15, 10 ** dps - 5):
            x = round_to(n * 5 ** m, m, (n * 5 ** m).bit_length())
            assert to_str(x, bits) == _nstr(*x, bits), (n, m)


@pytest.mark.parametrize("bits", [53, 128, 4096])
def test_ties_and_double_rounding(bits):
    # ties go to the even neighbour; round_rational rounds twice, so a value
    # just above a tie at `bits` that is a tie after the guard bits goes down
    for head in (1 << (bits - 1), (1 << (bits - 1)) + 1):
        tie = (head << 40) + (1 << 39)
        assert round_to(tie, 0, bits) == _dyadic(libmpf.from_man_exp(tie, 0, bits, "n"))
        q = Fraction(tie + 1)
        with mpmath.workprec(bits + 32):
            wide = mpmath.mpf(q.numerator) / q.denominator
        with mpmath.workprec(bits):
            assert round_rational(q, bits) == _dyadic(+wide)
        assert round_rational(q, bits) != round_to(tie + 1, 0, bits) or head % 2


@pytest.mark.parametrize("bits", [1, 2, 53, 64, 128, 192, 1024, 4096, 65536])
def test_zero_and_infinity(bits):
    dps = libmpf.prec_to_dps(bits)
    assert to_str((0, 0), bits) == mpmath.nstr(mpmath.mpf(0), dps) == "0.0"
    assert to_str(None, bits) == mpmath.nstr(mpmath.inf, dps) == "+inf"
    assert round_rational(None, bits) is None
    assert round_rational(Fraction(0), bits) == (0, 0)


@_SETTINGS
@given(st.integers(1, 2 ** 4200), st.integers(-9000, 9000), st.integers(2, 4200),
       st.sampled_from([None, False, True]))
def test_directed_rounding_and_division_are_mpmaths(man, exp, bits, up):
    rnd = {None: libmpf.round_nearest, False: libmpf.round_down, True: libmpf.round_up}[up]
    assert round_to(man, exp, bits, up) == _dyadic(libmpf.from_man_exp(man, exp, bits, rnd))
    den = man // 3 + 7
    want = libmpf.mpf_div(libmpf.from_man_exp(man, exp), libmpf.from_int(den), bits, rnd)
    assert divide(man, exp, den, 0, bits, up) == _dyadic(want)


@_SETTINGS
@given(st.integers(-6000, 6000), st.integers(10, 4200), st.booleans())
def test_powers_of_ten_are_mpmaths(n, prec, up):
    rnd = libmpf.round_up if up else libmpf.round_down
    assert _pow10(n, prec, up) == _dyadic(libmpf.mpf_pow_int(libmpf.ften, n, prec, rnd))


@pytest.mark.parametrize("prec", range(6, 129))
def test_logarithm_constants_cut_as_mpmaths(prec):
    # to_digits_exp reads ln 2 and ln 10 at bitcount(|exp|) + 5 bits
    cut = 128 - prec
    assert libelefun.mpf_ln2(prec) == libmpf.from_man_exp(_LN2 >> cut, -prec)
    assert libelefun.mpf_ln10(prec) == libmpf.from_man_exp(_LN10 >> cut, 2 - prec)


def _golden_numbers(tmp_path, capsys):
    """(string, bits) of every number the golden rows and reproduce-paper print."""
    out = []
    for row in _GOLDEN["rows"]:
        argv = row["argv"]
        bits = int(argv[argv.index("--precision-bits") + 1]) if "--precision-bits" in argv else 128
        data = json.loads(row["stdout"])
        out += [(data[k], bits) for k in ("value", "error_bound", "oracle", "abs_err") if k in data]
    main(["reproduce-paper", "--out", str(tmp_path)])
    capsys.readouterr()
    bits_of = {}
    for preset, params, _, _, bits in _REPRODUCE_ROWS:
        bits_of.setdefault(preset, []).append(bits)
    for path in sorted(tmp_path.iterdir()):
        data = json.loads(path.read_text())
        for row, bits in zip(data["rows"], bits_of[data["example"]]):
            out += [(row["oracle"], bits), (row["abs_err"], bits)]
    return out


def test_golden_numbers(tmp_path, capsys):
    numbers = _golden_numbers(tmp_path, capsys)
    assert len(numbers) > 250
    for s, bits in numbers:
        with mpmath.workprec(bits):
            x = mpmath.mpf(s)
        man, exp = _dyadic(x)
        assert to_str((man, exp), bits) == _nstr(man, exp, bits)
        for guard in (0, 32):
            q = Fraction(s)
            with mpmath.workprec(bits + guard):
                wide = mpmath.mpf(q.numerator) / q.denominator
            with mpmath.workprec(bits):
                assert round_rational(q, bits, guard) == _dyadic(+wide), (s, bits, guard)
