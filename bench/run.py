"""End-to-end benchmark of weilreg sessions.

One client in a closed loop drives `weilreg.sessions` in-process: parse a
session, run it, emit its JSON report, then start the next session.  Each
workload is a seeded round of session texts (see workloads.py); a run
repeats whole rounds for the requested time.

    python3 bench/run.py --workload atlas --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload atlas --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --compare parent.jsonl change.jsonl

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced rounds and reports the per-layer metrics of spans.py.  Times are
wall times scaled to a reference processor speed (refclock.py), because
the machines this runs on change speed by up to 2x within a minute.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are for people.
`--record FILE` appends the run's result, with its digests, to a JSON-lines
file that `--compare` reads.

The program is imported from `src/` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

import argparse
import hashlib
import importlib
import json
import math
import re
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import spans  # noqa: E402
import workloads  # noqa: E402
from refclock import ReferenceClock  # noqa: E402

SETUP_REPEATS = 5
# The tail percentile of each workload, fixed so that two commits are always
# compared at the same percentile: the highest of 75/90/95/99 that left at
# least ten sessions beyond it in a 30-second run when the benchmark was
# defined.  A run continues, in whole rounds, until it has those ten.
TAIL_PERCENTILE = {"golden": 95, "atlas": 75, "mapcalc": 95}
# A run stops starting rounds after this, whatever it has, so that it ends
# within the three minutes a benchmark run may take.
HARD_LIMIT_S = 150
MILLIS = re.compile(r'"millis": \d+')


def load_weilreg():
    """Import weilreg from SRC afresh; returns the package's modules."""
    for name in [n for n in sys.modules if n == "weilreg" or n.startswith("weilreg.")]:
        del sys.modules[name]
    importlib.import_module("weilreg")
    modules = {n: m for n, m in sys.modules.items() if n == "weilreg" or n.startswith("weilreg.")}
    origin = Path(modules["weilreg"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"weilreg was imported from {origin}, not from {SRC}")
    return modules


def setup(workload, seed, clock):
    """Import the program and generate the inputs, SETUP_REPEATS times.

    Returns the last import's modules, the sessions and the median scaled
    time in seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        clock.factor()
        started = time.perf_counter()
        modules = load_weilreg()
        sessions = workloads.generate(workload, seed, ROOT)
        elapsed = time.perf_counter() - started
        times.append(elapsed * clock.factor())
    return modules, sessions, statistics.median(times)


class Runner:
    """Runs sessions, checks their reports and keeps the run's tallies."""

    def __init__(self, modules, sessions, clock):
        self.api = modules["weilreg.sessions"]
        self.sessions = sessions
        self.clock = clock
        self.canonical = {}  # session name -> report with millis zeroed
        self.payloads = {}  # session name -> records without millis and steps
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, session, tracer=None):
        """Wall milliseconds of parse + run + emit, the factor that scales
        them to the reference speed, and the records."""
        api = self.api
        self.attempted += 1
        if tracer is not None:
            tracer.session = session.name
        self.clock.factor()
        started = time.perf_counter()
        try:
            records = api.run_session(api.parse_session(session.text), session_name=session.name)
            report = api.emit_report(records, session=session.name)
        except Exception as err:  # a raw exception is a failed session, not a crash
            elapsed = (time.perf_counter() - started) * 1000
            self.failed += 1
            self.problems.append(f"{session.name}: raised {type(err).__name__}: {err}")
            return elapsed, self.clock.factor(), []
        elapsed = (time.perf_counter() - started) * 1000
        factor = self.clock.factor()
        self._check(session, records, report)
        return elapsed, factor, records

    def _check(self, session, records, report):
        canonical = MILLIS.sub('"millis": 0', report)
        known = self.canonical.get(session.name)
        if known is None:
            self.canonical[session.name] = canonical
            self.payloads[session.name] = [
                {k: v for k, v in r.items() if k not in ("millis", "groebner_steps")} for r in records]
            problems = workloads.check(session, records)
        else:
            problems = [] if canonical == known else ["report differs from the first run of this session"]
        if problems:
            self.failed += 1
            self.problems += [f"{session.name}: {p}" for p in problems]

    def round(self, tracer=None):
        """Scaled and wall milliseconds per session, factors, records."""
        scaled, wall, factors, records = [], [], [], []
        for session in self.sessions:
            elapsed, factor, recs = self.run(session, tracer)
            scaled.append(elapsed * factor)
            wall.append(elapsed)
            factors.append(factor)
            records.append(recs)
        return scaled, wall, factors, records

    def digests(self):
        names = [s.name for s in self.sessions]
        reports = hashlib.sha256("".join(self.canonical.get(n, "") for n in names).encode()).hexdigest()
        payloads = hashlib.sha256(
            json.dumps([self.payloads.get(n) for n in names], sort_keys=True).encode()).hexdigest()
        return reports, payloads


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(runner, workload, seconds, deadline):
    """End-to-end metrics over whole rounds of at least `seconds`."""
    tail = TAIL_PERCENTILE[workload]
    needed = math.ceil(10 / (1 - tail / 100))
    runner.run(runner.sessions[0])  # warm-up, not timed
    samples, wall = [], []
    started = time.perf_counter()
    while True:
        scaled, times, _, _ = runner.round()
        samples += scaled
        wall += times
        now = time.perf_counter()
        if (now - started >= seconds and len(samples) >= needed) or now >= deadline:
            break
    tail_ms = percentile(samples, tail)
    beyond = sum(1 for s in samples if s > tail_ms)
    print(f"sessions {len(samples)} in {len(samples) // len(runner.sessions)} rounds of "
          f"{len(runner.sessions)}; session_ms_tail is p{tail} with {beyond} sessions beyond it")
    print(f"unscaled wall time: session p50 {statistics.median(wall):.3f} ms, "
          f"p{tail} {percentile(wall, tail):.3f} ms")
    return {
        "session_ms_p50": (statistics.median(samples), "ms"),
        "session_ms_tail": (tail_ms, "ms"),
        "sessions_per_s": (len(samples) / (sum(samples) / 1000), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure_traced(runner, modules, workload, seed, seconds, deadline):
    """Per-layer metrics from traced rounds, each after an untraced round."""
    untraced, traced, rounds = [], [], []
    first = None
    started = time.perf_counter()
    while True:
        untraced += runner.round()[0]
        tracer = spans.Tracer(modules)
        tracer.install()
        try:
            times, _, factors, records = runner.round(tracer)
        finally:
            tracer.uninstall()
        traced += times
        factor = statistics.median(factors)
        metrics = {name: (value * factor if unit == "ms" else value, unit, exact)
                   for name, (value, unit, exact) in spans.layer_metrics(tracer, records).items()}
        if first is None:
            first = metrics
            out = BENCH / "out"
            out.mkdir(exist_ok=True)
            path = out / f"spans-{workload}-{seed}.jsonl"
            tracer.write_spans(path, started)
            print(f"spans of the first traced round: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        else:
            drift = [n for n, (v, _, exact) in metrics.items() if exact and v != first[n][0]]
            runner.problems += [f"traced round: {n} changed between rounds" for n in drift]
        rounds.append(metrics)
        now = time.perf_counter()
        if now - started >= seconds or now >= deadline:
            break
    result = {}
    for name, (value, unit, exact) in first.items():
        result[name] = (value if exact else statistics.median(r[name][0] for r in rounds), unit)
    p50_traced, p50_plain = statistics.median(traced), statistics.median(untraced)
    result["trace.session_ms_p50"] = (p50_traced, "ms")
    result["trace.overhead_ms"] = (p50_traced - p50_plain, "ms")
    print(f"traced rounds {len(rounds)}; untraced session_ms_p50 {p50_plain:.3f} ms, "
          f"traced {p50_traced:.3f} ms, tracing overhead {p50_traced - p50_plain:.3f} ms")
    binding = spans.binding_problems(workload, first)
    runner.problems += [f"binding self-check: {p}" for p in binding]
    print(f"binding self-check: {'pass' if not binding else 'FAIL'}")
    return result


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append this run's result to a JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two JSON-lines files written by --record")
    args = parser.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "weilreg" / "__init__.py").is_file():
        print(f"benchmark: no weilreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.perf_counter() + HARD_LIMIT_S
    clock = ReferenceClock()
    modules, sessions, setup_s = setup(args.workload, args.seed, clock)
    runner = Runner(modules, sessions, clock)
    print(f"workload {args.workload} seed {args.seed}: closed loop, one client, "
          f"{len(sessions)} sessions per round")
    if args.trace:
        values = measure_traced(runner, modules, args.workload, args.seed, args.seconds, deadline)
    else:
        values = measure(runner, args.workload, args.seconds, deadline)
        values["setup_s"] = (setup_s, "s")
    declared = declared_metrics(args.trace)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"benchmark: metrics declared in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 2
    reports, payloads = runner.digests()
    for problem in runner.problems:
        print(f"problem: {problem}")
    print(f"failed_ratio {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:g}")
    print(f"digest reports {reports}")
    print(f"digest payloads {payloads}")
    for m in declared:
        value, unit = values[m["name"]]
        print(f"{m['name']:<45} {value:>14.4f} {unit}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": values[m["name"]][1]}
                    for m in declared},
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as out:
            out.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "trace": args.trace,
                "digest_reports": reports, "digest_payloads": payloads, "result": result,
            }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
