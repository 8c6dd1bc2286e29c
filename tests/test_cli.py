"""End-to-end tests of the command-line interface.

Commands run in-process through main(); stdout/stderr are captured and
parsed, and the report files are compared byte for byte where determinism
is claimed.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycf.cli import main


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
