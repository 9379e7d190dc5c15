"""Records do not depend on command order or on how a session is executed.

Each case is one of the six golden sessions, the Z/4 rotation of the plane
or a Ga session with rational points.  Every command runs alone after the
session's declarations, all its commands run in reverse order and in two
seeded shuffles, and every run must give each command the payload it has in
session order.  The records must also be the same whether the session is
streamed by `iter_session` or collected by `run_session`, and the CLI's
reports the same with and without `--verbose` and under two hash seeds.
Only payloads are compared: `millis` is a time, and `groebner_steps` depends
on what earlier commands cached (ROADMAP item 2).
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from weilreg import cli
from weilreg.sessions import iter_session, parse_session, run_session

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = ROOT / "sessions"

RATIONAL_POINTS = """\
var s u t
variety X = affine(u, t)
group G = Ga(s)
action rho : G x X -> X = (u+s, u*t/(u+s))
cmd atlas rho S=(0, -1/2, 1/3) xreg
cmd atlas rho S=(0, -1/2, 1/3)
cmd closedgraph rho at (1/2)
cmd closedgraph rho at (1/2) xreg
"""

# the golden workload's Z/4 rotation (x, y) -> (y, 1/x): a = rotation, b = a^2, c = a^3
Z4_ROTATION = """\
var x y
variety X = affine(x, y)
group Z4 = finite(e, a, b, c | a*a = b, a*b = c, a*c = e, b*a = c, b*b = e, b*c = a, c*a = e, c*b = a, c*c = b)
action rot : Z4 x X -> X = {a: (y, 1/x), b: (1/x, 1/y), c: (1/y, x)}
cmd checkaction rot
cmd xreg rot
cmd regularize rot
"""

GOLDEN_SESSIONS = ("action_laws", "blowup_atlas", "blowup_closedgraph", "blowup_xreg", "certify", "cremona")
CASES = {name: (SESSIONS / f"{name}.wr").read_text() for name in GOLDEN_SESSIONS}
CASES["z4_rotation"] = Z4_ROTATION
CASES["rational_points"] = RATIONAL_POINTS


def _payloads(text):
    """(command, status, payload) of every command record of the session."""
    return [(r["command"], r["status"], r["payload"]) for r in run_session(parse_session(text))
            if r["command"].startswith("cmd ")]


def _untimed(records):
    """The records without the fields that may differ between runs."""
    return [{k: v for k, v in r.items() if k not in ("millis", "groebner_steps")} for r in records]


def _split(name):
    """The session's declarations as one text, its command lines, and the
    command payloads in session order."""
    lines = CASES[name].splitlines(keepends=True)
    declarations = "".join(line for line in lines if not line.startswith("cmd "))
    commands = [line for line in lines if line.startswith("cmd ")]
    in_order = _payloads(CASES[name])
    assert len(in_order) == len(commands) >= 1
    return declarations, commands, in_order


@pytest.mark.parametrize("name", CASES)
def test_each_command_alone_and_in_reverse_gives_its_session_order_payload(name):
    declarations, commands, in_order = _split(name)
    assert [_payloads(declarations + command)[0] for command in commands] == in_order
    assert _payloads(declarations + "".join(reversed(commands)))[::-1] == in_order


@pytest.mark.parametrize("name", CASES)
def test_two_seeded_shuffles_give_the_session_order_payloads(name):
    declarations, commands, in_order = _split(name)
    rng = random.Random(name)
    for _ in range(2):
        order = rng.sample(range(len(commands)), len(commands))
        shuffled = _payloads(declarations + "".join(commands[i] for i in order))
        assert [shuffled[order.index(i)] for i in range(len(commands))] == in_order


@pytest.mark.parametrize("name", CASES)
def test_streamed_records_are_the_collected_records(name):
    assert _untimed(iter_session(parse_session(CASES[name]))) == _untimed(run_session(parse_session(CASES[name])))


def _write_cases(directory):
    paths = {}
    for name, text in CASES.items():
        paths[name] = directory / f"{name}.wr"
        paths[name].write_text(text, encoding="utf-8")
    return paths


def _report_payloads(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc["session"], _untimed(doc["records"])


def test_cli_reports_match_with_and_without_verbose(tmp_path, capsys):
    for name, path in _write_cases(tmp_path).items():
        reports = []
        for flags in ((), ("--verbose",)):
            out = tmp_path / f"{name}{''.join(flags)}.json"
            cli.main(["run", str(path), "--out", str(out), *flags])
            reports.append(_report_payloads(out))
        assert reports[0] == reports[1] == (name, _untimed(run_session(parse_session(CASES[name]))))
    assert capsys.readouterr().err.count("\n") == sum(len(parse_session(text)) for text in CASES.values())


def test_cli_reports_match_under_two_hash_seeds(tmp_path):
    paths = _write_cases(tmp_path)
    script = ("import sys\nfrom weilreg.cli import main\n"
              "for path in sys.argv[2:]:\n"
              "    main(['run', path, '--out', path + sys.argv[1] + '.json'])\n")
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script, seed, *map(str, paths.values())],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
    for name, path in paths.items():
        zero, one = (_report_payloads(Path(f"{path}{seed}.json")) for seed in ("0", "1"))
        assert zero == one == (name, _untimed(run_session(parse_session(CASES[name]))))
