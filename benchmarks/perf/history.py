"""Run history, the repeatability self-test and the commit comparison.

Every run appends one line to ``results/history.jsonl``: commit, host
fingerprint, workload, seed, and every metric's value and spread.
``repeat N`` runs the whole benchmark ``N`` times as the driver does
(one process per run, a new seed each time) and prints how far the runs
agree; ``compare A B`` reads two commits' lines back.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .adapters import ROOT
from .spec import END_TO_END, WORKLOADS
from .stats import rel_iqr, rel_range

HISTORY = Path(__file__).resolve().parent / "results" / "history.jsonl"


def git_sha() -> str:
    """``HEAD`` (``+dirty`` with uncommitted changes), or ``unknown``."""
    def git(*argv: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *argv], check=True, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()

    try:
        sha = git("rev-parse", "--short=12", "HEAD")
        return sha + ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a repository


def host_fingerprint() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def append(result, traced: bool) -> None:
    """One history line for a finished run."""
    if traced:
        metrics = {n: {"value": v} for n, v in result.metrics.items()}
    else:
        metrics = {
            name: {"value": value, "samples": samples, "spread": spread}
            for name, (value, samples, spread) in result.metrics.items()
        }
    line = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "sha": git_sha(),
        "host": host_fingerprint(),
        "workload": result.workload.name,
        "seed": result.seed,
        "traced": traced,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    HISTORY.parent.mkdir(parents=True, exist_ok=True)
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def _run_once(workload: str, seed: int, seconds: float) -> dict:
    """One run in its own process; the parsed last line of its output."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def cmd_repeat(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="run.py repeat")
    parser.add_argument("n", type=int, help="runs per workload")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed; run i uses seed + i")
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS), default=None)
    args = parser.parse_args(argv)
    verdict = 0
    for name in args.workload or list(WORKLOADS):
        runs = []
        for index in range(args.n):
            started = time.perf_counter()
            runs.append(_run_once(name, args.seed + index, args.seconds))
            print(
                f"# {name} run {index}: {time.perf_counter() - started:.1f}s"
                f" wall, failed {runs[-1]['failed']}",
                file=sys.stderr, flush=True,
            )
        failed = sum(run["failed"] for run in runs)
        print(f"{name}: {args.n} runs, {failed} failed operations")
        print(f"  {'metric':<24}{'median':>14}{'min':>14}{'max':>14}"
              f"{'range':>8}{'iqr':>8}{'bound':>7}")
        for metric in END_TO_END:
            values = [run["metrics"][metric.name]["value"] for run in runs]
            iqr = rel_iqr(values)
            # the driver's acceptance is iqr <= bound; ours is half of it
            flag = "" if iqr <= metric.bound / 2 else "  <-- too noisy"
            verdict |= bool(flag) or bool(failed)
            print(
                f"  {metric.name:<24}{statistics.median(values):>14.4f}"
                f"{min(values):>14.4f}{max(values):>14.4f}"
                f"{rel_range(values):>8.1%}{iqr:>8.1%}"
                f"{metric.bound:>7.0%}{flag}"
            )
    return verdict


def _medians(sha: str) -> dict:
    """``(workload, metric) -> values`` of a commit's end-to-end lines."""
    values: dict = {}
    with open(HISTORY, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = json.loads(raw)
            if line["traced"] or not line["sha"].startswith(sha):
                continue
            for name, row in line["metrics"].items():
                values.setdefault((line["workload"], name), []).append(
                    row["value"]
                )
    return values


def cmd_compare(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("parent", help="commit prefix of the baseline runs")
    parser.add_argument("change", help="commit prefix of the runs to judge")
    args = parser.parse_args(argv)
    parent, change = _medians(args.parent), _medians(args.change)
    worse = 0
    print(f"{'workload':<15}{'metric':<24}{'parent':>12}{'change':>12}"
          f"{'delta':>8}{'bound':>7}  verdict")
    for metric in END_TO_END:
        for workload in WORKLOADS:
            key = (workload, metric.name)
            if key not in parent or key not in change:
                continue
            before = statistics.median(parent[key])
            after = statistics.median(change[key])
            delta = (after - before) / before
            worsening = delta if metric.better == "lower" else -delta
            spread = max(rel_iqr(parent[key]), rel_iqr(change[key]))
            if spread > metric.bound:
                verdict = f"unresolved (spread {spread:.1%})"
            elif worsening > metric.bound:
                verdict, worse = "WORSE", worse + 1
            else:
                verdict = "within bound"
            print(
                f"{workload:<15}{metric.name:<24}{before:>12.4f}"
                f"{after:>12.4f}{delta:>+8.1%}{metric.bound:>7.0%}  {verdict}"
                f"  (n={len(parent[key])}/{len(change[key])})"
            )
    return 1 if worse else 0
