"""Compare two sets of benchmark runs: the parent commit's and a change's.

Each input is a JSON-lines file written by `run.py --record`, holding any
number of runs of any workloads.  For every workload and metric the table
gives each side's median and quartiles, the change in the median as a
share of the parent's, the share of paired runs the change won, and a
verdict:

* improved   - the change wins at least 9 in 10 pairs (ties count for
               neither side; runs pair up by workload and seed, and at
               least ten pairs are needed) and the medians differ by more
               than the distance between the parent's quartiles;
* worse      - the change's median is worse than the parent's by more than
               the metric's bound in BENCHMARK.json;
* unresolved - a side's quartile distance exceeds the bound, so the bound
               cannot be checked, unless every run of the change beats
               every run of the parent (then improved);
* unchanged  - none of the above.

Per-layer metrics have no bound: they read improved or worse by the
pairing rule alone, otherwise "no claim".  A line per workload also says
whether the reports of runs with the same seed were byte-identical (with
`millis` zeroed) and whether their payloads were (also ignoring
`groebner_steps`).
"""

import json
import statistics
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(values):
    q1, q2, q3 = _quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(parent, change, pairs, better, bound):
    sign = 1 if better == "higher" else -1  # sign * (change - parent) > 0 is a gain
    q1, med_a, q3 = _quartiles(parent)
    med_b = statistics.median(change)
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    enough = len(pairs) >= MIN_PAIRS
    if bound is not None and max(_spread(parent), _spread(change)) > bound:
        beats_all = all(sign * (b - a) > 0 for a in parent for b in change)
        return "improved" if enough and beats_all else "unresolved"
    if enough and wins >= WIN_SHARE * len(pairs) and sign * (med_b - med_a) > q3 - q1:
        return "improved"
    if bound is None:
        if enough and losses >= WIN_SHARE * len(pairs) and sign * (med_a - med_b) > q3 - q1:
            return "worse"
        return "no claim"
    if sign * (med_a - med_b) > bound * abs(med_a):
        return "worse"
    return "unchanged"


def _fmt(values):
    q1, q2, q3 = _quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(parent_path, change_path, spec_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    parent, change = _load(parent_path), _load(change_path)
    groups = sorted({(r["workload"], r["trace"]) for r in parent} & {(r["workload"], r["trace"]) for r in change})
    if not groups:
        print("no workload was run in both files")
        return 1
    print(f"{'workload':<9} {'metric':<42} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'change':>8} {'wins':>6}  verdict")
    for workload, trace in groups:
        a_runs = [r for r in parent if (r["workload"], r["trace"]) == (workload, trace)]
        b_runs = [r for r in change if (r["workload"], r["trace"]) == (workload, trace)]
        a_seed = {r["seed"]: r for r in a_runs}
        b_seed = {r["seed"]: r for r in b_runs}
        seeds = sorted(set(a_seed) & set(b_seed))
        same_reports = sum(a_seed[s]["digest_reports"] == b_seed[s]["digest_reports"] for s in seeds)
        same_payloads = sum(a_seed[s]["digest_payloads"] == b_seed[s]["digest_payloads"] for s in seeds)
        incorrect = sum(not r["result"]["correct"] for r in a_runs + b_runs)
        print(f"{workload} ({'traced' if trace else 'end to end'}): {len(a_runs)} parent runs, "
              f"{len(b_runs)} change runs, {len(seeds)} pairs by seed; identical reports "
              f"{same_reports}/{len(seeds)}, identical payloads {same_payloads}/{len(seeds)}; "
              f"runs not correct {incorrect}")
        for m in declared[trace]:
            name = m["name"]
            a = [r["result"]["metrics"][name]["value"] for r in a_runs]
            b = [r["result"]["metrics"][name]["value"] for r in b_runs]
            pairs = [(a_seed[s]["result"]["metrics"][name]["value"],
                      b_seed[s]["result"]["metrics"][name]["value"]) for s in seeds]
            med_a, med_b = statistics.median(a), statistics.median(b)
            delta = f"{(med_b - med_a) / abs(med_a):+.1%}" if med_a else "n/a"
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            print(f"{workload:<9} {name:<42} {_fmt(a):>32} {_fmt(b):>32} {delta:>8} "
                  f"{f'{wins}/{len(pairs)}':>6}  {verdict(a, b, pairs, m['better'], m.get('bound'))}")
    return 0
