"""Pins of every index-carrying error: its type, its index attribute, its
message, and the JSON object the command-line interface writes for it."""

from unittest import mock

import pytest

import polycf.cli as cli
from polycf import errors

INDEXED = [
    (errors.NoSuchTerm, "no such term: past prefix and no tail"),
    (errors.ZeroPartialNumerator, "partial numerator is zero"),
    (errors.ZeroScaleFactor, "scale factor is zero"),
    (errors.RepeatedValue, "consecutive sequence values are equal"),
    (errors.ZeroTerm, "term is zero"),
    (errors.UnitTerm, "product factor equals 1"),
    (errors.DegenerateTerm, "perturbed term combination vanishes"),
    (errors.ZeroEvenDenominator, "even-indexed partial denominator is zero"),
    (errors.ZeroOddDenominator, "odd-indexed partial denominator is zero"),
    (errors.TransformDoesNotExist, "Bauer-Muir existence condition fails"),
    (errors.ZeroW, "w_n must be nonzero for n >= 1"),
    (errors.NonIntegerTerms, "term is not an integer"),
]


def test_every_indexed_error_is_pinned():
    assert set(errors._IndexedError.__subclasses__()) == {cls for cls, _ in INDEXED}


@pytest.mark.parametrize("cls, message", INDEXED, ids=[cls.__name__ for cls, _ in INDEXED])
def test_indexed_error_pins(cls, message, capsys):
    e = cls(7)
    assert type(e) is cls and isinstance(e, errors.PolycfError)
    assert e.index == 7
    assert str(e) == f"{message} (index 7)"
    assert e.args == (f"{message} (index 7)",)

    def raise_it(args, params):
        raise cls(7)

    with mock.patch.dict(cli._COMMANDS, {"family": (raise_it, cli._COMMANDS["family"][1])}):
        assert cli.main(["family", "--preset", "e"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        '{"detail": "' + message + ' (index 7)", "error": "' + cls.__name__ + '"}\n'
    )
