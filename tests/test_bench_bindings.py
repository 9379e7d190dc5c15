"""The benchmark's traced binding self-check, run as a test.

`bench/spans.py` wraps weilreg's functions by name at every place that binds
them, and a per-layer metric that reads 0 where work is expected fails a
`bench/run.py --trace 1` run.  So a refactor that unbinds a function the
benchmark names, or stops calling it on a workload that expects it, fails
here too.  One traced seed-1 round per workload; nothing is written to disk.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_a_traced_round_reads_every_expected_metric(workload):
    for layer in spans.LAYERS:
        importlib.import_module(f"weilreg.{layer}")
    modules = {n: m for n, m in sys.modules.items() if n == "weilreg" or n.startswith("weilreg.")}
    api = modules["weilreg.sessions"]
    tracer = spans.Tracer(modules)
    tracer.install()
    records = []
    try:
        for session in workloads.generate(workload, 1, ROOT):
            tracer.session = session.name
            records.append(api.run_session(api.parse_session(session.text), session_name=session.name))
            api.emit_report(records[-1], session=session.name)
    finally:
        tracer.uninstall()
    assert spans.binding_problems(workload, spans.layer_metrics(tracer, records)) == []
