"""Golden pins of the command-line output.

tests/golden_cli.json holds the exit code and stdout of `polycf eval` and
`polycf verify` for every preset at its defaults at 64, 128, 192 and 1024
bits, a few other rows (the float backend, finite and exact-limit CFs, the
Richardson path, 4096-bit rows whose errors print through mpmath's
far-exponent branch, the sine-product family ex4.2 at 4096 bits), the
`polycf family` output of every preset at its defaults and of the members
`ex2.2 --b 1` and `ex2.5 --c 1`, whose hypotheses fail (hypothesis names,
details, `holds` and `verified`), `polycf transform` for each of its eight
ops and once with `--format table`, `polycf tietze --terms 100` for every
preset at its defaults (method AsymptoticPlusScan; only e holds) and once
with `--format table`, `polycf tietze` of a finite `--input` CF (method
ScanOnly), `polycf eval --preset ex3.3` at 300 and 301 terms (the last count
on the exact kernel and the first on the budgeted one), `polycf convergents
--preset ex3.3` with A = 1 (an integer b0) and A = 2 (b0 = 1/2) in both
formats, and the sha256 of the `reproduce-paper` stdout and of each of its
files.  Every printed number must stay the same byte for byte.
"""

import hashlib
import json
import pathlib

import pytest

from polycf.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text())


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("row", GOLDEN["rows"], ids=lambda row: " ".join(row["argv"])[:80])
def test_cli_output_is_pinned(capsys, row):
    code, out, err = _run(capsys, row["argv"])
    assert (code, out, err) == (row["code"], row["stdout"], "")


def test_reproduce_paper_is_pinned(tmp_path, capsys):
    code, out, _ = _run(capsys, ["reproduce-paper", "--out", str(tmp_path)])
    pin = GOLDEN["reproduce_paper"]
    assert code == pin["code"]
    assert hashlib.sha256(out.encode()).hexdigest() == pin["stdout_sha256"]
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert files == pin["files_sha256"]
