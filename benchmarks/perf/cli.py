"""Command line of the benchmark of record.

``run`` (the default) measures one workload and prints every metric by
name, then one JSON object as the last line of standard output;
``repeat N`` and ``compare A B`` are the repeatability self-test and the
history reader (see ``history.py``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .gen import resolve_seed
from .spec import END_TO_END, MIN_ROUNDS, PER_LAYER, WORKLOADS


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=None,
        help="script seed (default: $REPRO_BENCH_SEED, else 0)",
    )
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help=f"time to spend on timed rounds (at least {MIN_ROUNDS} run)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the traced per-layer run instead of the end-to-end one",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-long sizes and two rounds: checks the harness, "
             "measures nothing",
    )
    return parser


def _on_sigterm(_signum, _frame):
    raise SystemExit(143)  # unwinds through every finally: SUTs are killed


def _cmd_run(argv: list) -> int:
    args = _run_parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    seed = resolve_seed(args.seed)
    # imported late: argument errors should not cost a numpy import
    from . import history, runner, trace

    if args.trace:
        result = trace.run_traced(workload, seed, smoke=args.smoke)
        print(trace.format_table(result))
        units = {metric.name: metric.unit for metric in PER_LAYER}
        values = result.metrics
    else:
        result = runner.run_end_to_end(
            workload, seed, 0.0 if args.smoke else args.seconds,
            min_rounds=2 if args.smoke else MIN_ROUNDS,
        )
        print(runner.format_table(result))
        units = {metric.name: metric.unit for metric in END_TO_END}
        values = {name: row[0] for name, row in result.metrics.items()}
    if not args.smoke:
        history.append(result, traced=bool(args.trace))
    sys.stdout.flush()
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


def main(argv: list) -> int:
    if argv and argv[0] in ("repeat", "compare"):
        from . import history

        return getattr(history, f"cmd_{argv[0]}")(argv[1:])
    return _cmd_run(argv[1:] if argv[:1] == ["run"] else argv)
