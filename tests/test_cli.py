import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weilreg import cli, sessions

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = ROOT / "sessions"
GOLDEN = ROOT / "tests" / "golden"

FIXTURES = [
    "cremona",
    "blowup_xreg",
    "blowup_closedgraph",
    "blowup_atlas",
    "action_laws",
    "certify",
]


def run_cli(*args, env=None):
    merged = dict(os.environ)
    # this checkout's src first, so that the package need not be installed
    merged["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), merged.get("PYTHONPATH")]))
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "weilreg.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=merged,
    )


def canonical_bytes(doc) -> str:
    for record in doc["records"]:
        record["millis"] = 0
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name", FIXTURES)
def test_golden_report_byte_identical(name, tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("run", str(SESSIONS / f"{name}.wr"), "--out", str(out))
    assert result.returncode == 0, result.stderr
    produced = canonical_bytes(json.loads(out.read_text()))
    golden = (GOLDEN / f"{name}.json").read_text()
    assert produced == golden


def test_exit_code_zero_without_error_records():
    result = run_cli("run", str(SESSIONS / "action_laws.wr"))
    assert result.returncode == 0  # a mathematical rejection is fail, not error


def test_exit_code_one_on_error_records(tmp_path):
    session = tmp_path / "broken.wr"
    session.write_text(
        "var x\nvariety X = affine(x)\nmap m : X -> X = (x)\n"
        "map c : X -> X = (0)\ncmd compose c m\n",
        encoding="utf-8",
    )
    result = run_cli("run", str(session))
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["records"][-1]["status"] == "error"
    assert doc["records"][-1]["payload"]["reason"] == "NotDominant"


def test_exit_code_two_on_unparseable_session(tmp_path):
    session = tmp_path / "bad.wr"
    session.write_text(
        "var x y\nvariety X = affine(x, y)\nmap s : X -> X = (1/x,\n", encoding="utf-8"
    )
    result = run_cli("run", str(session))
    assert result.returncode == 2
    assert "expected" in result.stderr


def test_non_decimal_digit_exits_two_without_a_traceback(tmp_path):
    session = tmp_path / "digit.wr"
    session.write_text("var x\nvariety X = affine(x)\nmap f : X -> X = (x^²)\n", encoding="utf-8")
    result = run_cli("run", str(session))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "weilreg: unexpected character '²' at line 3, column 21\n"


def test_a_deeply_nested_point_exits_two_without_a_traceback(tmp_path):
    session = tmp_path / "deep.wr"
    point = "(" * 200 + "1" + ")" * 200
    session.write_text((SESSIONS / "blowup_atlas.wr").read_text(encoding="utf-8")
                       + f"cmd atlas rho S=(0, {point})\n", encoding="utf-8")
    result = run_cli("run", str(session))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "weilreg: expression nested deeper than 100 levels at line 8, column 122\n"


def test_non_utf8_session_exits_two_without_a_traceback(tmp_path):
    session = tmp_path / "latin1.wr"
    session.write_bytes("var x\n# caf\u00e9\n".encode("latin-1"))
    result = run_cli("run", str(session))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"weilreg: cannot read {session}: ")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


def test_unwritable_out_path_exits_two_without_a_traceback(tmp_path):
    out = tmp_path / "missing" / "report.json"
    result = run_cli("run", str(SESSIONS / "cremona.wr"), "--out", str(out))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"weilreg: cannot write {out}: ")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    assert not out.parent.exists()


def test_text_format_and_verbose(tmp_path):
    result = run_cli("run", str(SESSIONS / "blowup_xreg.wr"), "--format", "text", "--verbose")
    assert result.returncode == 0
    assert "cmd xreg rho" in result.stdout
    assert "[ok] cmd xreg rho" in result.stderr


def test_verbose_streams_each_record_as_its_statement_ends(tmp_path, monkeypatch, capsys):
    # in-process: read what reached stderr each time a statement starts to run
    session = tmp_path / "two.wr"
    session.write_text("var x y\nvariety X = affine(x, y)\n", encoding="utf-8")
    before_each = []
    execute = sessions._Session.execute

    def spy(self, stmt):
        before_each.append(capsys.readouterr().err)
        return execute(self, stmt)

    monkeypatch.setattr(sessions._Session, "execute", spy)
    assert cli.main(["run", str(session), "--verbose", "--out", str(tmp_path / "report.json")]) == 0
    assert before_each == ["", "[ok] var x y\n"]
    assert capsys.readouterr().err == "[ok] variety X = affine(x, y)\n"


def test_parallel_flag_is_a_usage_error():
    result = run_cli("run", str(SESSIONS / "cremona.wr"), "--parallel")
    assert result.returncode == 2
    assert "unrecognized arguments: --parallel" in result.stderr
    assert result.stdout == ""


def test_step_budget_flag_produces_budget_errors(tmp_path):
    result = run_cli(
        "run", str(SESSIONS / "cremona.wr"), "--max-groebner-steps", "1"
    )
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert any(
        r["status"] == "error" and r["payload"]["reason"] == "BudgetExceeded"
        for r in doc["records"]
    )


def test_step_budget_env_var_is_the_default():
    result = run_cli("run", str(SESSIONS / "cremona.wr"), env={"WEILREG_MAX_STEPS": "1"})
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert any(r["payload"].get("reason") == "BudgetExceeded" for r in doc["records"])
    # the explicit flag takes precedence over the environment
    result = run_cli(
        "run", str(SESSIONS / "cremona.wr"), "--max-groebner-steps", "100000",
        env={"WEILREG_MAX_STEPS": "1"},
    )
    assert result.returncode == 0


@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_step_budget_is_an_input_error(source):
    if source == "flag":
        result = run_cli("run", str(SESSIONS / "cremona.wr"), "--max-groebner-steps", "-1")
    else:
        result = run_cli("run", str(SESSIONS / "cremona.wr"), env={"WEILREG_MAX_STEPS": "-1"})
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("weilreg: ")
    assert "negative" in result.stderr
    assert "Traceback" not in result.stderr
    # zero is a budget, not an input error: every basis computation is refused
    if source == "flag":
        zero = run_cli("run", str(SESSIONS / "cremona.wr"), "--max-groebner-steps", "0")
    else:
        zero = run_cli("run", str(SESSIONS / "cremona.wr"), env={"WEILREG_MAX_STEPS": "0"})
    assert zero.returncode == 1
    assert any(r["payload"].get("reason") == "BudgetExceeded"
               for r in json.loads(zero.stdout)["records"])


def test_bad_step_budget_env_var_is_a_typed_input_error():
    result = run_cli("run", str(SESSIONS / "cremona.wr"), env={"WEILREG_MAX_STEPS": "abc"})
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("weilreg: ")
    assert "WEILREG_MAX_STEPS" in result.stderr and "'abc'" in result.stderr
    assert "Traceback" not in result.stderr


def test_bad_session_input_exits_one_without_a_traceback(tmp_path):
    session = tmp_path / "typed.wr"
    session.write_text(
        "var x y s v\nvariety X = affine(x, y)\nvariety V = affine(v)\ngroup G = Ga(s)\n"
        "action rho : G x X -> X = (x+s, y)\nmap F : X -> V = (x/y)\n"
        "map m : X -> X = (x)\ncmd atlas rho S=(foo)\ncmd certify F wrt (x) f=(0) samples=(1, 2)\n"
        "cmd checkaction rho\n",
        encoding="utf-8",
    )
    result = run_cli("run", str(session))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    records = json.loads(result.stdout)["records"]
    assert [r["status"] for r in records[-4:]] == ["error", "error", "error", "ok"]
    assert [r["payload"].get("reason") for r in records[-4:-1]] == [
        "SessionSyntaxError", "PointNotOnGroup", "NotApplicable"]
