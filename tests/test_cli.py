"""End-to-end tests of the command-line interface.

Commands run in-process through main(); stdout/stderr are captured and
parsed, and the report files are compared byte for byte where determinism
is claimed.
"""

import argparse
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycf.cli import _build_parser, main
from polycf.poly import IntPolynomial


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_preset(capsys):
    code, out, err = run(capsys, ["eval", "--preset", "e", "--terms", "40", "--tol", "1e-18"])
    assert code == 0
    data = json.loads(out)
    assert data["converged"] is True
    assert data["value"].startswith("2.718281828459045235")


def test_eval_from_inline_json(capsys):
    cf_json = json.dumps(
        {
            "b0": "2",
            "prefix": [],
            "tail": {
                "a": {"num": ["1", "1"], "den": ["1"]},
                "b": {"num": ["1", "1"], "den": ["1"]},
                "start_index": 1,
            },
        }
    )
    code, out, _ = run(capsys, ["eval", "--input", cf_json, "--terms", "40"])
    assert code == 0
    assert json.loads(out)["value"].startswith("2.71828")


def test_eval_from_file(tmp_path, capsys):
    code, out, _ = run(capsys, ["family", "--preset", "e"])
    cf_json = json.dumps(json.loads(out)["cf"])
    path = tmp_path / "cf.json"
    path.write_text(cf_json, encoding="utf-8")
    code, out, _ = run(capsys, ["eval", "--input", str(path), "--terms", "30"])
    assert code == 0
    assert json.loads(out)["value"].startswith("2.71828")


def test_convergents_table_format(capsys):
    code, out, _ = run(
        capsys, ["convergents", "--preset", "e", "--terms", "3", "--format", "table"]
    )
    assert code == 0
    assert "A: 120" in out
    assert "B: 44" in out


def test_transform_euler(capsys):
    payload = json.dumps({"terms": ["1", "-1/3", "1/5"]})
    code, out, _ = run(capsys, ["transform", "--op", "euler", "--input", payload])
    assert code == 0
    data = json.loads(out)
    assert data["b0"] == "1"
    assert len(data["prefix"]) == 2


def test_transform_gen_product(capsys):
    payload = json.dumps({"factors": ["2", "3"], "weights": ["5", "7", "11"]})
    code, out, _ = run(capsys, ["transform", "--op", "gen-product", "--input", payload])
    assert code == 0
    assert json.loads(out)["b0"] == "5"


def test_transform_even_odd(capsys):
    code, even_out, _ = run(
        capsys, ["transform", "--op", "even", "--preset", "e", "--terms", "4"]
    )
    assert code == 0
    code, odd_out, _ = run(
        capsys, ["transform", "--op", "odd", "--preset", "e", "--terms", "4"]
    )
    assert code == 0
    assert json.loads(even_out)["prefix"][0] == ["6", "9"]
    assert json.loads(odd_out)["b0"] == "3"


def test_transform_bauer_muir_symbolic_w(capsys):
    code, out, _ = run(
        capsys,
        ["transform", "--op", "bauer-muir", "--preset", "e", "--terms", "4", "--w", "n+1"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["cf"]["b0"] == "3"
    assert len(data["existence_margin"]) == 4


def test_transform_extend(capsys):
    code, out, _ = run(
        capsys,
        ["transform", "--op", "extend", "--preset", "e", "--terms", "1", "--w", "0,2,3"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["prefix"] == [["2", "4"], ["-2", "1"], ["3/2", "9/2"]]


def test_transform_requires_w(capsys):
    code, _, err = run(
        capsys, ["transform", "--op", "bauer-muir", "--preset", "e", "--terms", "4"]
    )
    assert code == 2
    assert json.loads(err)["error"] == "InvalidInput"


def test_family_reports_hypotheses(capsys):
    code, out, _ = run(capsys, ["family", "--preset", "ex3.4", "--k", "3", "--A", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["limit"]["name"] == "Zeta"
    assert {h["name"] for h in data["hypotheses"]}


def test_family_unverified_member_exits_zero(capsys):
    code, out, _ = run(capsys, ["family", "--preset", "ex2.2", "--b", "1"])
    assert code == 0
    assert json.loads(out)["verified"] is False


def test_family_hypothesis_violation_exits_one(capsys):
    code, _, err = run(capsys, ["family", "--preset", "ex3.3", "--A", "0"])
    assert code == 1
    data = json.loads(err)
    assert data["error"] == "HypothesisViolation"
    assert data["condition"] == "leading_term_defined"


def test_unknown_preset_exits_two(capsys):
    code, _, err = run(capsys, ["eval", "--preset", "zzz"])
    assert code == 2
    assert json.loads(err)["error"] == "InvalidInput"


def test_malformed_params_exit_two(capsys):
    code, _, err = run(capsys, ["family", "--preset", "ex3.4", "--k"])
    assert code == 2
    assert json.loads(err)["error"] == "InvalidInput"


def test_tietze_subcommand(capsys):
    code, out, _ = run(capsys, ["tietze", "--preset", "e", "--terms", "100"])
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True and data["N0"] == 1
    code, out, _ = run(capsys, ["tietze", "--preset", "brouncker"])
    assert code == 0
    assert json.loads(out)["holds"] is False


def test_verify_subcommand_exit_codes(capsys):
    code, out, _ = run(
        capsys, ["verify", "--preset", "ex1.1", "--terms", "80", "--tol", "1e-8"]
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "Pass"
    code, out, _ = run(
        capsys, ["verify", "--preset", "entry13", "--terms", "50", "--tol", "1e-6"]
    )
    assert code == 1
    assert json.loads(out)["verdict"] != "Pass"


def test_eval_output_deterministic(capsys):
    _, out1, _ = run(capsys, ["eval", "--preset", "ex3.5", "--terms", "100", "--tol", "1e-25"])
    _, out2, _ = run(capsys, ["eval", "--preset", "ex3.5", "--terms", "100", "--tol", "1e-25"])
    assert out1 == out2


def test_reproduce_paper_writes_reports(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code, out, _ = run(capsys, ["reproduce-paper", "--out", str(out_dir)])
    # some rows cannot meet their stated tolerances, so overall exit is 1
    assert code in (0, 1)
    files = sorted(p.name for p in out_dir.iterdir())
    assert "brouncker.json" in files
    assert "ex3_4.json" in files
    data = json.loads((out_dir / "ex1_1.json").read_text())
    assert data["example"] == "ex1.1"
    assert all(row["verdict"] == "Pass" for row in data["rows"])
    assert out.strip().endswith("rows passed")


@pytest.mark.parametrize(
    "argv, path",
    [
        (["eval", "--input", '{"b0": "1/0"}'], "$.b0"),
        (["eval", "--input", "[1, 2]"], "$"),
        (
            [
                "eval",
                "--input",
                json.dumps(
                    {
                        "b0": "1",
                        "tail": {
                            "a": {"num": ["1"], "den": ["0"]},
                            "b": {"num": ["1"], "den": ["1"]},
                            "start_index": 1,
                        },
                    }
                ),
            ],
            "$.tail.a.den",
        ),
        (["transform", "--op", "euler", "--input", '{"terms": ["1", "1/0"]}'], "$.terms[1]"),
    ],
)
def test_malformed_input_exits_two(capsys, argv, path):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    data = json.loads(err)
    assert data["error"] == "InvalidInput"
    assert data["detail"].startswith(path + ":")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--preset", "e", "--precision-bits", "0"],
        ["eval", "--preset", "e", "--precision-bits", "-3"],
        ["convergents", "--preset", "e", "--terms", "-2"],
        ["transform", "--op", "even", "--preset", "e", "--terms", "-1"],
        ["transform", "--op", "odd", "--preset", "e", "--terms", "-1"],
        ["eval", "--preset", "e", "--tol", "1/0"],
        ["verify", "--preset", "e", "--tol", "1/0"],
        ["transform", "--op", "bauer-muir", "--preset", "e", "--w", "1/0,1"],
        ["transform", "--op", "extend", "--preset", "e", "--w", "0,1/0"],
        ["eval", "--preset", "entry13", "--a", "1/0"],
        ["eval", "--preset", "ex2.4", "--c", "1/0"],
        ["eval", "--preset", "ex1.1", "--f", "n/0"],
        ["verify", "--preset", "ex3.4", "--k", "99999999999"],
    ],
)
def test_malformed_count_exits_two(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidInput"


@pytest.mark.parametrize("command", [["convergents"], ["transform", "--op", "even"],
                                     ["transform", "--op", "odd"]])
def test_negative_count_names_the_given_count(capsys, command):
    code, out, err = run(capsys, command + ["--preset", "e", "--terms", "-3"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "InvalidInput",
                               "detail": "cannot read a negative number of terms (-3)"}


def test_verify_rejects_oracle_precision_before_evaluating(capsys, monkeypatch):
    import polycf.analysis
    import polycf.cf

    def never(*args, **kwargs):
        raise AssertionError("evaluated before the precision check")

    monkeypatch.setattr(polycf.cf, "extrapolate", never)
    monkeypatch.setattr(polycf.analysis, "_limit", never)  # the loop verify_limit runs
    for bits in ("10", "63"):
        code, out, err = run(capsys, ["verify", "--preset", "brouncker", "--terms", "200",
                                      "--precision-bits", bits])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "InvalidInput",
                                   "detail": "precision_bits must be at least 64"}
    monkeypatch.undo()
    # an exact limit needs no oracle, so low precision stays valid
    code, out, _ = run(capsys, ["verify", "--preset", "ex1.1", "--terms", "100",
                                "--precision-bits", "10"])
    assert code == 0 and json.loads(out)["verdict"] == "Pass"


_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Imports polycf.cli, then runs each argv list of sys.argv[1] through main in
# this one process; prints which of mpmath, dataclasses, inspect and
# polycf.analysis are loaded after the import, then per command its exit code
# and the same list.
_FRESH = """
import contextlib, io, json, sys
import polycf.cli
def loaded():
    names = ("mpmath", "dataclasses", "inspect", "polycf.analysis")
    return [name for name in names if name in sys.modules]
results = [loaded()]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = polycf.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, loaded()])
print(json.dumps(results))
"""


def _fresh_python(*args, stdin=None, timeout=120):
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    try:
        return subprocess.run([sys.executable, "-c", *args], capture_output=True,
                              text=True, env=env, timeout=timeout, input=stdin)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{args[1:]} did not finish within {timeout} s")


def test_exact_commands_leave_mpmath_unloaded(capsys):
    # tietze comes last: it loads polycf.analysis, which the others leave unloaded
    exact = [
        ["convergents", "--preset", "e", "--terms", "10"],
        ["family", "--preset", "ex3.3"],
        ["transform", "--op", "even", "--preset", "e", "--terms", "4"],
        ["transform", "--op", "euler", "--input", '{"terms": ["1", "-1/3", "1/5"]}'],
        ["tietze", "--preset", "e", "--terms", "50"],
    ]
    proc = _fresh_python(_FRESH, json.dumps(exact))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[]] + [[0, []]] * 4 + [[0, ["polycf.analysis"]]]

    for argv in (["eval", "--preset", "e"],
                 ["verify", "--preset", "e", "--terms", "60", "--tol", "1e-10"]):
        fresh = _fresh_python("import sys, polycf.cli; sys.exit(polycf.cli.main(sys.argv[1:]))",
                              *argv)
        code, out, _ = run(capsys, argv)
        assert (fresh.returncode, fresh.stdout) == (code, out)


def test_commands_leave_dataclasses_and_inspect_unloaded():
    commands = [
        ["eval", "--preset", "e"],
        ["verify", "--preset", "e", "--terms", "60", "--tol", "1e-10"],
        ["convergents", "--preset", "ex3.3", "--terms", "10"],
        ["family", "--preset", "ex3.4"],
        ["tietze", "--preset", "e", "--terms", "50"],
        ["transform", "--op", "bauer-muir", "--preset", "e", "--terms", "4", "--w", "n+1"],
        ["transform", "--op", "gen-euler", "--input", '{"terms": ["1", "1/2"], "weights": ["1", "2"]}'],
    ]
    proc = _fresh_python(_FRESH, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    after_import, *after_commands = json.loads(proc.stdout)
    assert after_import == []
    assert [code for code, _ in after_commands] == [0] * len(commands)
    assert all(set(loaded) <= {"polycf.analysis"} for _, loaded in after_commands)


def test_eval_verify_and_reproduce_paper_leave_mpmath_unloaded(tmp_path):
    commands = [
        ["eval", "--preset", "e", "--tol", "1e-30"],
        ["eval", "--preset", "ex3.4", "--terms", "400", "--precision-bits", "4096"],
        ["verify", "--preset", "ex3.3", "--terms", "10000", "--tol", "1e-3"],
        ["verify", "--preset", "e", "--terms", "2000", "--tol", "1e-1200",
         "--precision-bits", "4096"],
        ["reproduce-paper", "--out", str(tmp_path)],
    ]
    proc = _fresh_python(_FRESH, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [0, []], [0, []]] + [[0, ["polycf.analysis"]]] * 2 + [
        [1, ["polycf.analysis"]]]  # the entry13 row is Inconclusive


def test_package_names_resolve_on_first_access():
    script = """
import json, sys
import polycf
before = sorted(name for name in sys.modules if name.startswith("polycf"))
names = {}
exec("from polycf import *", names)
same = all(getattr(polycf, name) is getattr(sys.modules["polycf." + polycf._MODULE_OF[name]], name)
           for name in polycf.__all__)
try:
    polycf.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([before, len(polycf.__all__), sorted(set(polycf.__all__) - set(dir(polycf))),
                  sorted(set(polycf.__all__) - set(names)), same, missing]))
"""
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["polycf"], 76, [], [], True, "module 'polycf' has no attribute 'no_such_name'"]


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_precision_above_the_cap_exits_two_before_any_build(capsys, monkeypatch, command):
    import polycf.cli

    code, out, _ = run(capsys, [command, "--preset", "e", "--terms", "3000", "--tol", "1e-9000",
                                "--precision-bits", "65536"])
    assert code == 0 and len(json.loads(out)["oracle" if command == "verify" else "value"]) > 19000

    def never(*args, **kwargs):
        raise AssertionError("built before the precision check")

    monkeypatch.setattr(polycf.cli, "build_preset", never)
    code, out, err = run(capsys, [command, "--preset", "e", "--precision-bits", "65537"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "InvalidInput",
                               "detail": "--precision-bits must be at most 65536"}
    # 10^10 bits once ended in a MemoryError traceback; run it under a 2 GiB
    # address-space limit in case the check is lost
    script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
              "import polycf.cli; sys.exit(polycf.cli.main(sys.argv[1:]))")
    proc = _fresh_python(script, command, "--preset", "e", "--precision-bits", "10000000000")
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr
    assert json.loads(lines[0]) == json.loads(err)


@pytest.mark.parametrize("source", ["literal", "file", "stdin"])
def test_deeply_nested_input_exits_two(tmp_path, source):
    deep = "[" * 5000 + "]" * 5000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    arg = {"literal": deep, "file": str(path), "stdin": "-"}[source]
    proc = _fresh_python("import sys, polycf.cli; sys.exit(polycf.cli.main(sys.argv[1:]))",
                         "eval", "--input", arg, stdin=deep if source == "stdin" else "")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidInput"


@pytest.mark.parametrize("argv", [
    ["family", "--preset", "ex2.2", "--b", "n^33+2"],
    ["family", "--preset", "ex2.5", "--c", "2n^1000"],
    ["transform", "--op", "bauer-muir", "--preset", "e", "--w", "n^33"],
    ["eval", "--preset", "e", "--tol", "1e-1000000"],
    ["family", "--preset", "entry13", "--a", "1e10001"],
    ["eval", "--input", '{"b0": "1e-1000000", "prefix": []}'],
])
def test_oversized_exponents_exit_two(argv):
    # polynomial exponents above 32 and decimal exponents above 10000 are
    # refused while parsing, before anything of that size is built
    proc = _fresh_python("import sys, polycf.cli; sys.exit(polycf.cli.main(sys.argv[1:]))", *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidInput"
    assert "exponent" in json.loads(lines[0])["detail"]


_MAIN = "import sys, polycf.cli; sys.exit(polycf.cli.main(sys.argv[1:]))"


def test_convergents_print_integers_past_the_digit_limit():
    # brouncker's A_n pass Python's 4300-digit int-to-str limit near n = 1300
    rows = {}
    for terms in ("30", "3000"):
        proc = _fresh_python(_MAIN, "convergents", "--preset", "brouncker", "--terms", terms)
        assert proc.returncode == 0, proc.stderr
        rows[terms] = json.loads(proc.stdout)["convergents"]
    assert len(rows["3000"]) == 3001 and max(len(r["A"]) for r in rows["3000"]) > 4300
    assert rows["3000"][:31] == rows["30"]


@pytest.mark.parametrize("b0", ["7" * 5000, '"' + "7" * 5000 + '"'], ids=["number", "string"])
def test_input_integers_past_the_digit_limit_exit_two(b0):
    proc = _fresh_python(_MAIN, "eval", "--input", '{"b0": %s, "prefix": []}' % b0)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidInput"


def test_family_with_a_large_prime_denominator_is_quick():
    # kappa's trial division stops at _TRIAL_BOUND, not at the square root of
    # 1000000007^2, and the b >= 2 scan at b(1) < 2, not after 2 * 10^9 values
    start = time.monotonic()
    proc = _fresh_python(_MAIN, "family", "--preset", "ex2.2", "--b", "(n+2)/1000000007",
                         timeout=5)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 1.0
    member = json.loads(proc.stdout)
    assert member["verified"] is False and member["cf"]["tail"]["b"]["den"] == ["1"]


@pytest.mark.parametrize("argv", [
    ["--preset", "ex2.2", "--b", "(n+3000000000)/1000000000"],
    ["--preset", "ex1.1", "--f", "n+1000000000000"],
    ["--preset", "ex2.4", "--c", "n^2+1000000000000"],
])
def test_family_with_a_huge_positive_root_bound_is_quick(argv):
    # every hypothesis function keeps its sign by Descartes' rule, so none is
    # scanned up to its root bound of 10^9 or more
    start = time.monotonic()
    proc = _fresh_python(_MAIN, "family", *argv, timeout=5)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 1.0
    assert json.loads(proc.stdout)["verified"] is True


def test_input_tail_of_oversized_degree_exits_two_quickly():
    # b = c^2 / c(n-1) with c = n^200 + 2: 77 s in the constructor's gcd if read
    c = IntPolynomial.variable() ** 200 + 2
    b = {"num": (c * c).to_json(), "den": c.shift(-1).to_json()}
    cf = {"b0": "1", "tail": {"a": {"num": ["1"], "den": ["1"]}, "b": b, "start_index": 1}}
    proc = _fresh_python(_MAIN, "eval", "--input", json.dumps(cf), timeout=5)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidInput"
    assert json.loads(lines[0])["detail"].startswith("$.tail.b: degree 400 over 200")


def _hundred_digit_coefficients(count, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(10**99, 10**100) for _ in range(count)]


_BIG_C = "+".join(f"{a}n^{i}" for i, a in enumerate(_hundred_digit_coefficients(33)))
_BIG_B = {"num": [str(a) for a in _hundred_digit_coefficients(97, 1)],
          "den": [str(a) for a in _hundred_digit_coefficients(97, 2)]}


@pytest.mark.parametrize("argv", [
    ["family", "--preset", "ex2.5", "--c", _BIG_C],
    ["eval", "--input", json.dumps({"b0": "1", "tail": {
        "a": {"num": ["1"], "den": ["1"]}, "b": _BIG_B, "start_index": 1}})],
], ids=["ex2.5-degree-32", "input-96-over-96"])
def test_oversized_coefficients_exit_two_quickly(argv):
    # 100-digit coefficients: about 40 s in the polynomial gcds if read
    start = time.monotonic()
    proc = _fresh_python(_MAIN, *argv, timeout=5)
    elapsed = time.monotonic() - start
    assert proc.returncode == 2 and elapsed < 1.0
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidInput"
    assert "coefficient above" in json.loads(lines[0])["detail"]


def test_largest_zeta_member_reads_back_through_input(capsys):
    # ex3.4 at k = 40 has a tail numerator of degree 158 with 42-digit
    # coefficients, within both JSON bounds
    code, out, _ = run(capsys, ["family", "--preset", "ex3.4", "--k", "40"])
    assert code == 0
    cf = json.loads(out)["cf"]
    assert len(cf["tail"]["a"]["num"]) == 159
    code, out, _ = run(capsys, ["eval", "--input", json.dumps(cf), "--terms", "10"])
    assert code == 0 and json.loads(out)["terms_used"] == 10


@pytest.mark.parametrize("argv, where", [
    (["eval", "--input", '{"b0": "1", "prefix": [["1", "2"]]}', "--A", "5"], "--input"),
    (["transform", "--op", "euler", "--input", '{"terms": ["1", "1/2"]}', "--zzz", "5"],
     "--input"),
    (["reproduce-paper", "--out", "unused", "--A", "3"], "reproduce-paper"),
])
def test_parameters_without_a_preset_exit_two(capsys, tmp_path, argv, where):
    argv = [str(tmp_path / a) if a == "unused" else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {
        "error": "InvalidInput", "detail": f"unknown parameters for {where}: {argv[-2][2:]}"}
    assert not (tmp_path / "unused").exists()


# each command's options, as the README table lists them; any other option
# reaches the command as a preset parameter and exits 2
_DECLARED = {
    "eval": {"--preset", "--input", "--terms", "--tol", "--precision-bits", "--format"},
    "convergents": {"--preset", "--input", "--terms", "--format"},
    "tietze": {"--preset", "--input", "--terms", "--format"},
    "transform": {"--op", "--w", "--preset", "--input", "--terms", "--format"},
    "family": {"--preset", "--format"},
    "verify": {"--preset", "--terms", "--tol", "--precision-bits", "--format"},
    "reproduce-paper": {"--out"},
}
_BASE = {"reproduce-paper": [], "transform": ["--op", "even", "--preset", "e"]}
_VALUES = {"--preset": "e", "--input": "x", "--terms": "5", "--tol": "3",
           "--precision-bits": "7", "--format": "table", "--op": "even", "--w": "1,2",
           "--out": "unused"}


def test_each_command_declares_only_the_options_it_reads():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    declared = {name: [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
                for name, p in sub.choices.items()}
    assert {name: {s for a in actions for s in a.option_strings}
            for name, actions in declared.items()} == _DECLARED
    assert sum(map(len, declared.values())) == 28
    # every declared option is shown to be read below
    read = {(command, option) for command, _, option, _ in _READ} | {("reproduce-paper", "--out")}
    assert read == {(name, option) for name, options in _DECLARED.items() for option in options}


@pytest.mark.parametrize("command, option", [
    (command, option) for command in _DECLARED for option in _VALUES
    if option not in _DECLARED[command]])
def test_undeclared_option_exits_two(capsys, tmp_path, monkeypatch, command, option):
    monkeypatch.chdir(tmp_path)
    base = _BASE.get(command, ["--preset", "e"])
    code, out, err = run(capsys, [command] + base + [option, _VALUES[option]])
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidInput"
    assert json.loads(lines[0])["detail"].endswith(f"unknown parameters for "
                                                   f"{'e' if base else command}: {option[2:]}")
    assert list(tmp_path.iterdir()) == []


_E_JSON = json.dumps({"b0": "2", "prefix": [], "tail": {
    "a": {"num": ["1", "1"], "den": ["1"]}, "b": {"num": ["1", "1"], "den": ["1"]},
    "start_index": 1}})


# (command, base arguments, option, value): adding the option to the base
# changes the exit code or stdout, so the command reads it
_READ = [
    (command, (["--op", "even"] if command == "transform" else []) + base, option, value)
    for command in ("eval", "convergents", "tietze", "transform")
    for base, option, value in [
        ([], "--preset", "e"), ([], "--input", _E_JSON),
        (["--preset", "e"], "--terms", "3"), (["--preset", "e"], "--format", "table")]
] + [
    ("eval", ["--preset", "e"], "--tol", "1e-3"),
    ("eval", ["--preset", "e"], "--precision-bits", "64"),
    ("transform", ["--preset", "e"], "--op", "odd"),
    ("transform", ["--op", "bauer-muir", "--preset", "e"], "--w", "n+1"),
    ("family", [], "--preset", "e"),
    ("family", ["--preset", "e"], "--format", "table"),
    ("verify", [], "--preset", "e"),
    ("verify", ["--preset", "e"], "--terms", "5"),
    ("verify", ["--preset", "e"], "--tol", "1e-3"),
    ("verify", ["--preset", "e"], "--precision-bits", "256"),
    ("verify", ["--preset", "e"], "--format", "table"),
]


@pytest.mark.parametrize("command, base, option, value", _READ)
def test_declared_option_is_read(capsys, command, base, option, value):
    without = run(capsys, [command] + base)
    with_option = run(capsys, [command] + base + [option, value])
    assert with_option[:2] != without[:2]


def test_reproduce_paper_reads_out(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, out, _ = run(capsys, ["reproduce-paper", "--out", "elsewhere"])
    assert out.endswith("rows passed\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["elsewhere"]


@pytest.mark.parametrize("argv, detail", [
    (["transform", "--op", "euler", "--preset", "e", "--input", '{"terms": ["1", "1/2"]}',
      "--terms", "3", "--tol", "5"], "argument --input: not allowed with argument --preset"),
    (["transform", "--op", "euler", "--input", '{"terms": ["1", "1/2"]}', "--terms", "3",
      "--tol", "5"], "unknown parameters for --input: tol"),
    (["reproduce-paper", "--terms", "5"], "unknown parameters for reproduce-paper: terms"),
    (["eval", "--preset", "e", "--input", "{}"],
     "argument --input: not allowed with argument --preset"),
    (["transform", "--op", "even", "--preset", "e", "--terms", "4", "--w", "1,2"],
     "transform even does not read --w"),
    (["transform", "--op", "euler", "--input", '{"terms": ["1"]}', "--w", "1"],
     "transform euler does not read --w"),
    (["eval", "--preset", "ex2.2", "--b", "n+1", "--b", "0"],
     "parameter --b given more than once"),
    (["eval", "--input", _E_JSON, "--A", "1", "--A=2"], "parameter --A given more than once"),
    (["family", "--preset", "ex2.2", "--b", "n+1", "--b", "n+1"],
     "parameter --b given more than once"),
    (["eval", "--preset", "e", "--terms", "5", "--terms", "60", "--tol", "1e-30"],
     "option --terms given more than once"),
    (["eval", "--preset", "e", "--format", "json", "--format", "table"],
     "option --format given more than once"),
    (["convergents", "--preset", "e", "--terms=3", "--terms", "3"],
     "option --terms given more than once"),
    (["verify", "--preset", "e", "--tol", "1e-3", "--precision-bits=64", "--precision-bits=64"],
     "option --precision-bits given more than once"),
    (["family", "--preset", "e", "--preset", "ex2.2"], "option --preset given more than once"),
    (["tietze", "--input", _E_JSON, "--input=" + _E_JSON], "option --input given more than once"),
    (["transform", "--op", "even", "--op", "odd", "--preset", "e"],
     "option --op given more than once"),
    (["transform", "--op", "bauer-muir", "--preset", "e", "--w", "n", "--w", "n+1"],
     "option --w given more than once"),
    (["reproduce-paper", "--out", "a", "--out", "b"], "option --out given more than once"),
] + [
    (["transform", "--op", op, "--input", '{"terms": ["1", "1/2"], "factors": ["2"], '
      '"weights": ["1", "1"]}', terms], f"transform {op} does not read --terms")
    for op in ("euler", "gen-euler", "product", "gen-product")
    for terms in ("--terms=1", "--terms=64")
])
def test_ignored_or_repeated_flags_exit_two(capsys, tmp_path, monkeypatch, argv, detail):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "InvalidInput", "detail": detail}
    assert list(tmp_path.iterdir()) == []


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.sampled_from(["1", "-2/3", "1/0", "n", "0"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["b0", "prefix", "tail", "a", "b", "num", "den",
                         "start_index", "terms"]),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(payload=_json, command=st.sampled_from(["eval", "euler"]))
def test_cli_arbitrary_json_exit_contract(payload, command):
    argv = ["eval", "--terms", "4"] if command == "eval" else ["transform", "--op", "euler"]
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(json.dumps(payload))
    with mock.patch("sys.stdin", stdin), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv + ["--input", "-"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0]), dict)
