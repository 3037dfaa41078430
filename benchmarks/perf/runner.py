"""Rounds, verification and the end-to-end metrics of one run.

A run is: generate the script, compute its reference answers, build the
store template once, then rounds.  Every round copies the template into
a fresh directory, starts a fresh SUT on it, plays the whole script and
kills the SUT.  Round 0 warms the host's caches and is verified against
the in-process reference; it is never timed.  Each timed round is
verified against round 0's answers at the same script position; how the
timed rounds become one number per metric is :func:`end_to_end`.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .adapters import make_adapter
from .gen import Script, generate
from .reference import expected_answers, preload_bundles
from .spec import END_TO_END, MIN_ROUNDS, NAMESPACE, Workload
from .stats import profile, profile_percentile, rel_range

RESULTS = Path(__file__).resolve().parent / "results"
#: a day-granularity window rotates at UTC midnight; a rotation inside a
#: round makes the run bimodal, so a run starting this close waits it out
_DAY_GUARD_S = 90.0


@dataclass
class Round:
    setup_s: float
    cpu_s: float
    rss_mib: float
    results: list


def wait_out_day_boundary() -> None:
    """Sleep past UTC midnight when it is nearer than a run is long."""
    left = 86_400 - time.time() % 86_400
    if left < _DAY_GUARD_S:
        time.sleep(left + 1.0)


def make_workdir() -> Path:
    """A scratch directory inside the checkout, removed by the caller."""
    work = RESULTS / "work"
    work.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=work))


def build_template(stored: list, dest: Path) -> None:
    """The store every round starts from: the preloaded day-buckets."""
    from repro.store.store import SummaryStore

    dest.mkdir()
    if stored:
        store = SummaryStore(dest)
        for bucket, bundle in stored:
            store.write(NAMESPACE, bucket, bundle)
        store.runtime.close()


def run_round(script: Script, template: Path, work: Path) -> Round:
    root = work / "round"
    shutil.copytree(template, root)
    try:
        with make_adapter(script.workload) as adapter:
            started = time.perf_counter()
            adapter.start(root)
            setup_s = time.perf_counter() - started
            adapter.prepare(script)
            cpu_before = adapter.cpu_seconds()
            results = adapter.run(script)
            cpu_s = adapter.cpu_seconds() - cpu_before
            rss_mib = adapter.peak_rss_mib()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return Round(setup_s, cpu_s, rss_mib, results)


def count_failed(script: Script, results: list, expected: list) -> int:
    """Ops that failed, or whose answer is not bit-for-bit the expected."""
    failed = abs(len(results) - len(script.ops))
    for result, want in zip(results, expected):
        if not result.ok or (want is not None and result.estimate != want):
            failed += 1
    return failed


def _positions(script: Script, phase: str, role: "str | None" = None):
    return [
        index for index, op in enumerate(script.ops)
        if op.phase == phase and role in (None, op.role)
    ]


def end_to_end(script: Script, rounds: list) -> dict:
    """``name -> (value, samples, spread over rounds)``.

    Interference on this shared host only ever adds time, so every time
    is the least the timed rounds saw: set-up and CPU are the fastest
    round's, and latencies and rates are taken on the script's *profile*
    (``stats.profile``), each operation's fastest time over the rounds
    at its script position.  Memory is the median over rounds.
    """
    w = script.workload
    out = {}
    for name, pick, values in (
        ("setup_s", min, [r.setup_s for r in rounds]),
        ("sut_cpu_s", min, [r.cpu_s for r in rounds]),
        ("sut_rss_mb", statistics.median, [r.rss_mib for r in rounds]),
    ):
        out[name] = (pick(values), len(values), rel_range(values))

    def seconds(positions: list) -> float:
        """Profile time from the first send to the last return: each op
        counts from its send to the next op's send, the last to its own
        return."""
        cycles = [
            [
                (r.results[i + 1].start_ns if i != positions[-1]
                 else r.results[i].end_ns) - r.results[i].start_ns
                for i in positions
            ]
            for r in rounds
        ]
        return sum(profile(cycles)) / 1e9

    load = _positions(script, "load")
    load = load[:load.index(_positions(script, "load", "full")[0]) + 1]
    quiet = _positions(script, "quiet")
    for name, count, positions in (
        ("ingest_events_per_s", w.load_batches * w.load_events, load),
        ("warm_queries_per_s", len(quiet), quiet),
    ):
        out[name] = (
            count / seconds(positions), len(positions) * len(rounds), None
        )
    for prefix, positions in (
        ("fresh_query", _positions(script, "live", "fresh")),
        ("warm_query", quiet),
    ):
        latencies = [
            [r.results[i].seconds * 1e3 for i in positions] for r in rounds
        ]
        for q in (50, 90):
            value, samples = profile_percentile(latencies, q)
            out[f"{prefix}_p{q}_ms"] = (value, samples, None)
    return out


@dataclass
class RunResult:
    workload: Workload
    seed: int
    attempted: int
    failed: int
    metrics: dict  # name -> (value, samples, spread)
    rounds: int


def run_end_to_end(
    workload: Workload, seed: int, seconds: float,
    min_rounds: int = MIN_ROUNDS,
) -> RunResult:
    """Round 0 plus timed rounds for ``seconds`` (at least ``min_rounds``)."""
    wait_out_day_boundary()
    script = generate(workload, seed)
    stored = preload_bundles(script)
    expected = expected_answers(script, stored)
    gc.collect()
    gc.freeze()
    work = make_workdir()
    try:
        template = work / "template"
        build_template(stored, template)
        warmup = run_round(script, template, work)
        attempted = len(script.ops)
        failed = count_failed(script, warmup.results, expected)
        baseline = [result.estimate for result in warmup.results]
        rounds: list = []
        started = time.perf_counter()
        while True:
            spent = time.perf_counter() - started
            if len(rounds) >= min_rounds and (
                spent + spent / len(rounds) > seconds
            ):
                break
            round_ = run_round(script, template, work)
            attempted += len(script.ops)
            failed += count_failed(script, round_.results, baseline)
            rounds.append(round_)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return RunResult(
        workload, seed, attempted, failed,
        end_to_end(script, rounds), len(rounds),
    )


def format_table(result: RunResult) -> str:
    """Every metric by name with unit, samples, spread and bound."""
    lines = [
        f"workload {result.workload.name}  seed {result.seed}  "
        f"timed rounds {result.rounds}  ops {result.attempted}  "
        f"failed {result.failed}",
        f"{'metric':<24}{'value':>14}  {'unit':<10}{'samples':>8}"
        f"{'spread':>9}{'better':>8}{'bound':>7}",
    ]
    for metric in END_TO_END:
        value, samples, spread = result.metrics[metric.name]
        lines.append(
            f"{metric.name:<24}{value:>14.4f}  {metric.unit:<10}"
            f"{samples:>8}"
            + (f"{spread:>8.1%} " if spread is not None else f"{'-':>8} ")
            + f"{metric.better:>8}{metric.bound:>7.0%}"
        )
    return "\n".join(lines)
