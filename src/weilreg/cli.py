"""Command-line driver: run a session file and emit a report.

weilreg run <session-file> [--format json|text] [--out <path>]
            [--max-groebner-steps N] [--verbose]

Exit code is 0 iff no record has status "error", 1 if one has, and 2 on
unusable input or output (one `weilreg: ...` line); the WEILREG_MAX_STEPS
environment variable supplies the default per-statement S-pair budget, which
must not be negative.  Commands run one after another.
"""

import argparse
import os
import sys
from pathlib import Path

from .errors import SessionSyntaxError, UseBeforeDeclare
from .sessions import emit_report, iter_session, parse_session


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weilreg", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run = sub.add_parser("run", help="run a session file and report")
    run.add_argument("session", help="path to a session file (UTF-8)")
    run.add_argument("--format", choices=("json", "text"), default="json")
    run.add_argument("--out", default=None, help="write the report here instead of stdout")
    run.add_argument("--max-groebner-steps", type=int, default=None,
                     help="cap on processed S-pairs per statement")
    run.add_argument("--verbose", action="store_true",
                     help="echo each record's status to stderr as it completes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    path = Path(args.session)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        print(f"weilreg: cannot read {path}: {err}", file=sys.stderr)
        return 2
    max_steps = args.max_groebner_steps
    if max_steps is None:
        env_budget = os.environ.get("WEILREG_MAX_STEPS")
        if env_budget:
            try:
                max_steps = int(env_budget)
            except ValueError:
                print(f"weilreg: WEILREG_MAX_STEPS must be an integer, got {env_budget!r}",
                      file=sys.stderr)
                return 2
    if max_steps is not None and max_steps < 0:
        print(f"weilreg: the step budget must not be negative, got {max_steps}", file=sys.stderr)
        return 2
    try:
        ast = parse_session(text)
    except (SessionSyntaxError, UseBeforeDeclare) as err:
        print(f"weilreg: {err}", file=sys.stderr)
        return 2
    records = []
    for record in iter_session(ast, max_steps):
        records.append(record)
        if args.verbose:
            print(f"[{record['status']}] {record['command']}", file=sys.stderr, flush=True)
    report = emit_report(records, fmt=args.format, session=path.stem)
    if args.out:
        try:
            Path(args.out).write_text(report, encoding="utf-8")
        except OSError as err:
            print(f"weilreg: cannot write {args.out}: {err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(report)
    return 0 if all(r["status"] != "error" for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
