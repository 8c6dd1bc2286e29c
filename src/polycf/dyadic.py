"""Binary rounding and decimal output of exact values, in integers.

A dyadic (man, exp) is man * 2^exp with an odd mantissa, or (0, 0); None is
+inf.  round_rational rounds a Fraction as mpmath.mpf(num) / den and +x do,
and to_str prints as mpmath.nstr(x, libmp.prec_to_dps(bits)) does, byte for
byte, so reports need mpmath only where a public function returns an mpf.
"""

import math

_LOG2_10 = math.log(10, 2)
# floor(ln 2 * 2^128) and floor(ln 10 * 2^126)
_LN2 = 0xB17217F7D1CF79ABC9E3B39803F2F6AF
_LN10 = 0x935D8DDDAAA8AC16EA56D62B82D30A28


def round_to(man, exp, bits, up=None):
    """man * 2^exp rounded to `bits` significant bits: to nearest with ties
    to even, as mpmath's default context, or toward zero (up False) or away
    from it (up True)."""
    sign, man = man < 0, abs(man)
    n = man.bit_length() - bits
    if n > 0:
        if up is None:
            t = man >> (n - 1)
            man = (t >> 1) + bool(t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)))
        else:
            man = -(-man >> n) if up else man >> n
        exp += n
    if not man:
        return 0, 0
    zeros = (man & -man).bit_length() - 1
    return (-man if sign else man) >> zeros, exp + zeros


def divide(man, exp, dman, dexp, bits, up=None):
    """(man 2^exp) / (dman 2^dexp) rounded as round_to does, from a quotient
    with a sticky bit, as mpmath's mpf_div forms it."""
    negative = (man < 0) != (dman < 0)
    man, dman = abs(man), abs(dman)
    extra = max(bits - man.bit_length() + dman.bit_length() + 5, 5)
    quot, rem = divmod(man << extra, dman)
    if rem:
        quot, extra = quot << 1 | 1, extra + 1
    return round_to(-quot if negative else quot, exp - dexp - extra, bits, up)


def round_rational(q, bits, guard=32):
    """mpmath.mpf(q.numerator) / q.denominator at bits + guard bits, then
    rounded to bits; None (an infinite value) stays None."""
    if q is None:
        return None
    wide = bits + guard
    return round_to(*divide(*round_to(q.numerator, 0, wide), q.denominator, 0, wide), bits)


def to_str(x, bits):
    """mpmath.nstr(x, libmp.prec_to_dps(bits)) of the dyadic x (libmpf.to_str)."""
    if x is None:
        return "+inf"
    man, exp = x
    if not man:
        return "0.0"
    dps = max(1, int(round(int(bits) / 3.3219280948873626) - 1))  # libmpf.prec_to_dps
    digits, exponent = _digits(abs(man), exp, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":  # the digits are truncated
        kept = digits[:dps].rstrip("9")
        if kept:
            digits = kept[:-1] + str(int(kept[-1]) + 1) + "0" * (dps - len(kept))
        else:
            digits, exponent = "1" + "0" * (dps - 1), exponent + 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:  # fixed point
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    digits += "0" if digits.endswith(".") else ""
    sign = "-" if man < 0 else ""
    return sign + digits if exponent == 0 else f"{sign}{digits}e{exponent:+d}"


def _digits(man, exp, dps):
    """libmpf.to_digits_exp of man * 2^exp > 0: about dps decimal digits,
    truncated, and the decimal exponent of the first.  Beyond 2^+-3500 it
    first divides by 10^b, b = int(exp log10 2) from ln 2 and ln 10 cut to
    bitcount(|exp|) + 5 bits, both roundings toward zero."""
    bitprec = int(dps * _LOG2_10) + 10
    exponent = 0
    if abs(exp + man.bit_length()) > 3500:
        cut = 128 - abs(exp).bit_length() - 5
        b = abs(exp) * (_LN2 >> cut) // (4 * (_LN10 >> cut))
        exponent = -b if exp < 0 else b
        man, exp = divide(man, exp, *_pow10(exponent, bitprec, False), bitprec, False)
    fixprec = max(bitprec - exp - man.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = _numeral(fixed * 10 ** fixdps >> fixprec, dps)
    return digits, exponent + len(digits) - fixdps - 1


def _numeral(n, size):
    # libintmath.numeral: halves above 250 digits, so no str() meets the
    # interpreter's limit on integer strings
    if size < 250:
        return str(n)
    half = size // 2 + (size & 1)
    high, low = divmod(n, 10 ** half)
    return _numeral(high, half) + _numeral(low, half).rjust(half, "0")


def _pow10(n, prec, up):
    """libmpf.mpf_pow_int(10, n, prec) toward zero or (up) away from it, by its
    steps: for n < 0 a reciprocal rounded the other way, below 334 the exact
    power, else binary powering at prec + 4 bitcount(n) + 4 bits."""
    if n < 0:
        return divide(1, 0, *_pow10(-n, prec + 5, not up), prec, up)
    if n < 334:
        return round_to(5 ** n, n, prec, up)
    work = prec + 4 * n.bit_length() + 4

    def cut(m, e):
        extra = max(m.bit_length() - work, 0)
        return (-(-m >> extra) if up else m >> extra), e + extra

    pm, pe, man, exp = 1, 0, 5, 1
    while True:
        if n & 1:
            pm, pe = cut(pm * man, pe + exp)
            n -= 1
            if not n:
                return round_to(pm, pe, prec, up)
        man, exp = cut(man * man, exp + exp)
        n //= 2
