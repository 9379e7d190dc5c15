"""Records do not depend on command order, for the commands that take points.

Each command of a session runs alone after the session's declarations, and
all its commands run in reverse order; every run must give each command the
payload it has in session order.  The sessions cover integral and rational
group points (`atlas`, `closedgraph ... at`) and sample points (`certify`).
Only payloads are compared: `millis` is a time, and `groebner_steps` depends
on what earlier commands cached (ROADMAP item 2).
"""

from pathlib import Path

import pytest

from weilreg.sessions import parse_session, run_session

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"

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

CASES = {name: (SESSIONS / f"{name}.wr").read_text() for name in ("blowup_atlas", "blowup_closedgraph", "certify")}
CASES["rational_points"] = RATIONAL_POINTS


def _payloads(text):
    """(command, status, payload) of every command record of the session."""
    return [(r["command"], r["status"], r["payload"]) for r in run_session(parse_session(text))
            if r["command"].startswith("cmd ")]


@pytest.mark.parametrize("name", CASES)
def test_each_command_alone_and_in_reverse_gives_its_session_order_payload(name):
    lines = CASES[name].splitlines(keepends=True)
    declarations = "".join(line for line in lines if not line.startswith("cmd "))
    commands = [line for line in lines if line.startswith("cmd ")]
    in_order = _payloads(CASES[name])
    assert len(in_order) == len(commands) >= 2
    assert [_payloads(declarations + command)[0] for command in commands] == in_order
    assert _payloads(declarations + "".join(reversed(commands)))[::-1] == in_order
