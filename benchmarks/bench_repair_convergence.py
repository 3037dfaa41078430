"""CLUSTER — self-healing convergence: SIGKILL a primary, time the repair.

Shape: a real coordinator process (``python -m repro.service
coordinate``) with aggressive failure-detection knobs fronts three real
worker processes at ``replication=2``.  A seeded event stream is routed
through the coordinator, then one primary worker is SIGKILLed — no
graceful leave, no operator join — and the bench polls ``GET /repairs``
measuring the two numbers that define the self-healing loop:

* **time-to-detect** — kill until the worker appears in
  ``failed_workers`` (heartbeat probes + the ``--fail-after`` grace
  window, promotion persisted in the repair journal);
* **time-to-full-replication** — kill until ``fully_replicated`` is
  true again, i.e. every slot the corpse owned has been re-replicated
  onto survivors via the purge-then-copy handoff path.

The correctness gate is the cluster bar from the exactness suites: after
convergence the coordinator's merged answer must be **bit-identical** to
an offline single-process engine over the same events, with ``partial``
false.  A repair that changes answers is not a repair.

Environment knobs: ``BENCH_REPAIR_EVENTS`` (stream length, default
20_000), ``BENCH_REPAIR_BATCH`` (events per posted batch, default
2_000).

Run under pytest (``pytest benchmarks/bench_repair_convergence.py``) or
standalone (``PYTHONPATH=src python benchmarks/bench_repair_convergence
.py [--smoke]``).  Writes ``BENCH_repair_convergence.json`` with the
cluster topology stamped into the envelope.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from emit import write_bench_json
from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine
from repro.service import NamespaceConfig, ServiceClient

N_EVENTS = int(os.environ.get("BENCH_REPAIR_EVENTS", 20_000))
BATCH = int(os.environ.get("BENCH_REPAIR_BATCH", 2_000))
N_SLOTS = 8
REPLICATION = 2
K = 128
NS_SALT = 7
NS = NamespaceConfig("web", ("h1", "h2"), k=K, family="ipps", salt=NS_SALT)

HEARTBEAT_S = 0.2
FAIL_AFTER_S = 0.6
REPAIR_INTERVAL_S = 0.2
CONVERGENCE_DEADLINE_S = 30.0

_WORKER_BANNER = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")
_COORD_BANNER = re.compile(r"coordinating on http://127\.0\.0\.1:(\d+)")


def _spawn(cmd: list[str], banner: re.Pattern, label: str):
    """One real daemon on an ephemeral port; returns (proc, port)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", *cmd],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    deadline = time.monotonic() + 60.0
    while True:
        line = proc.stdout.readline()
        if line:
            match = banner.search(line)
            if match:
                return proc, int(match.group(1))
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError(f"{label} failed to start: {line!r}")


def _spawn_worker(root: Path, worker_id: str):
    return _spawn([
        "serve",
        "--root", str(root / worker_id),
        "--namespace", NS.name,
        "--assignments", *NS.assignments,
        "--k", str(K),
        "--family", "ipps", "--salt", str(NS_SALT),
        "--port", "0", "--cluster-slots", str(N_SLOTS),
        "--compact-to", "off", "--tick", "3600",
    ], _WORKER_BANNER, f"worker {worker_id}")


def _spawn_coordinator(root: Path):
    return _spawn([
        "coordinate",
        "--root", str(root / "coordinator"),
        "--namespace", NS.name,
        "--assignments", *NS.assignments,
        "--k", str(K),
        "--family", "ipps", "--salt", str(NS_SALT),
        "--port", "0",
        "--slots", str(N_SLOTS),
        "--replication", str(REPLICATION),
        "--heartbeat", str(HEARTBEAT_S),
        "--fail-after", str(FAIL_AFTER_S),
        "--repair-interval", str(REPAIR_INTERVAL_S),
    ], _COORD_BANNER, "coordinator")


def _make_stream(n: int, seed: int = 13):
    rng = np.random.default_rng(seed)
    keys = rng.permutation(n).astype(np.int64)
    w1 = rng.pareto(1.3, n) + 0.05
    w2 = rng.pareto(1.5, n) + 0.05
    return keys, w1, w2


def _offline_reference(keys, w1, w2) -> QueryEngine:
    summarizer = NS.make_summarizer()
    for lo in range(0, len(keys), BATCH):
        summarizer.ingest_multi(
            keys[lo:lo + BATCH],
            {"h1": w1[lo:lo + BATCH], "h2": w2[lo:lo + BATCH]},
        )
    return QueryEngine(summarizer.summary())


def measure(n_events: int = N_EVENTS) -> dict:
    keys, w1, w2 = _make_stream(n_events)
    reference = _offline_reference(keys, w1, w2)
    worker_ids = ["w1", "w2", "w3"]
    procs: dict[str, subprocess.Popen] = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        try:
            coordinator, coord_port = _spawn_coordinator(root)
            procs["coordinator"] = coordinator
            with ServiceClient(port=coord_port, timeout=15.0) as client:
                client.wait_ready(timeout=30.0)
                for worker_id in worker_ids:
                    proc, port = _spawn_worker(root, worker_id)
                    procs[worker_id] = proc
                    with ServiceClient(port=port) as probe:
                        probe.wait_ready(timeout=30.0)
                    client.cluster_join(worker_id, "127.0.0.1", port)

                start = time.perf_counter()
                for lo in range(0, len(keys), BATCH):
                    client.ingest(NS.name, keys[lo:lo + BATCH].tolist(), {
                        "h1": w1[lo:lo + BATCH].tolist(),
                        "h2": w2[lo:lo + BATCH].tolist(),
                    }, sync=True)
                ingest_seconds = time.perf_counter() - start
                before = client.repairs()
                assert before["fully_replicated"], before

                # SIGKILL a primary: with replication=2 over 3 workers,
                # every worker owns slots, so any victim is a primary
                victim = worker_ids[0]
                procs[victim].kill()
                procs[victim].wait(timeout=15.0)
                killed_at = time.monotonic()

                time_to_detect = None
                time_to_replicated = None
                view = None
                deadline = killed_at + CONVERGENCE_DEADLINE_S
                while time.monotonic() < deadline:
                    view = client.repairs()
                    now = time.monotonic() - killed_at
                    if (time_to_detect is None
                            and victim in view["failed_workers"]):
                        time_to_detect = now
                    if (time_to_detect is not None
                            and view["fully_replicated"]):
                        time_to_replicated = now
                        break
                    time.sleep(0.05)

                converged = time_to_replicated is not None
                identical = False
                partial = None
                if converged:
                    identical = True
                    for fn in ("max", "l1"):
                        served = client.estimate(
                            NS.name, fn, list(NS.assignments)
                        )
                        partial = served["partial"]
                        if partial or served["estimate"] != \
                                reference.estimate(
                                    AggregationSpec(fn, NS.assignments)):
                            identical = False
                repairs_done = (view or {}).get("journal", {}).get("done", 0)
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs.values():
                try:
                    proc.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
    return {
        "n_events": n_events,
        "batch": BATCH,
        "ingest_seconds": ingest_seconds,
        "victim": victim,
        "time_to_detect_s": time_to_detect,
        "time_to_full_replication_s": time_to_replicated,
        "converged": converged,
        "identical": identical,
        "repairs_done": repairs_done,
    }


def render(result: dict) -> str:
    detect = result["time_to_detect_s"]
    repaired = result["time_to_full_replication_s"]
    return "\n".join([
        f"CLUSTER repair convergence — {result['n_events']:,} events, "
        f"3 workers x{REPLICATION}, {N_SLOTS} slots, SIGKILL "
        f"{result['victim']} (heartbeat {HEARTBEAT_S}s, "
        f"fail-after {FAIL_AFTER_S}s, repair tick {REPAIR_INTERVAL_S}s)",
        f"  ingest                   : {result['ingest_seconds']:8.3f} s",
        f"  time to detect           : "
        + (f"{detect:8.3f} s" if detect is not None else "   never"),
        f"  time to full replication : "
        + (f"{repaired:8.3f} s" if repaired is not None else "   never"),
        f"  repair ops done          : {result['repairs_done']:8d}",
        f"  answers bit-identical    : {result['identical']}",
    ])


def emit_json(result: dict) -> None:
    write_bench_json(
        "repair_convergence",
        config={
            "n_events": result["n_events"],
            "batch": result["batch"],
            "k": K,
            "n_assignments": 2,
            "heartbeat_s": HEARTBEAT_S,
            "fail_after_s": FAIL_AFTER_S,
            "repair_interval_s": REPAIR_INTERVAL_S,
        },
        metrics={
            "ingest_seconds": result["ingest_seconds"],
            "time_to_detect_s": result["time_to_detect_s"],
            "time_to_full_replication_s":
                result["time_to_full_replication_s"],
            "repairs_done": result["repairs_done"],
            "converged": result["converged"],
            "identical": result["identical"],
        },
        topology={
            "workers": 3,
            "replication": REPLICATION,
            "n_slots": N_SLOTS,
        },
    )


def check_gates(result: dict) -> list[str]:
    """Hard gates; returns failure messages (empty = pass)."""
    failures = []
    if not result["converged"]:
        failures.append(
            f"cluster never restored full replication within "
            f"{CONVERGENCE_DEADLINE_S:.0f}s of the kill"
        )
    elif not result["identical"]:
        failures.append(
            "post-repair answers diverged from the offline engine"
        )
    return failures


def test_repair_convergence(benchmark, emit):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(render(result), name="CLUSTER_repair_convergence")
    emit_json(result)
    failures = check_gates(result)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        result = measure(n_events=min(N_EVENTS, 4_000))
    else:
        result = measure()
    print(render(result))
    emit_json(result)
    failures = check_gates(result)
    if failures:
        print("GATE FAILURES: " + "; ".join(failures))
        sys.exit(1)
    print("gates passed")
