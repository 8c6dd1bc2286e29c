"""Golden pins of the command-line output.

tests/golden_cli.json holds the exit code and stdout of `polycf eval` and
`polycf verify` for every preset at its defaults at 64, 128, 192 and 1024
bits, a few other rows (the float backend, finite and exact-limit CFs, the
Richardson path, 4096-bit rows whose errors print through mpmath's
far-exponent branch), and the sha256 of the `reproduce-paper` stdout and of
each of its files.  Every printed number must stay the same byte for byte.
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
