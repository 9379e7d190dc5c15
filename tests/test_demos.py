"""Every demo script, and the README's library quick start, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                            cwd=ROOT, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    _run(str(demo))


def test_readme_quick_start_prints_the_model_ideal():
    readme = (ROOT / "README.md").read_text()
    [block] = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert _run("-c", block) == "['u1*u3-1', 'u2*u4-1']\n"
