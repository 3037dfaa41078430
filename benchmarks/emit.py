"""Shared machine-readable benchmark emission.

Every throughput/IO bench renders a human-readable block (persisted as
``benchmarks/results/<name>.txt`` via the ``emit`` fixture) — but the
bench *trajectory* needs structured numbers.  :func:`write_bench_json`
writes ``benchmarks/results/BENCH_<name>.json`` with a fixed envelope::

    {
      "name": "engine_throughput",
      "config": {...},      # workload shape: sizes, k, workers, ...
      "metrics": {...},     # ops/sec, seconds, speedups, gates
      "host": {"cpus": 4, "python": "3.11.7"},
      "provenance": {"git_sha": "...", "repro_version": "1.0.0"}
    }

so runs are comparable — and attributable — across commits and machines.
CI uploads the ``BENCH_*.json`` files as workflow artifacts.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import re
import subprocess

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _host() -> dict:
    return {
        "cpus": cpus(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _provenance() -> dict:
    """Which code produced this run: git SHA + package version.

    Best-effort: outside a git checkout (or without a git binary) the SHA
    is ``None`` rather than an error — a bench run must never fail over
    attribution metadata.
    """
    sha = None
    try:
        proc = subprocess.run(
            ["git", "-C", str(pathlib.Path(__file__).parent), "rev-parse",
             "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        import repro

        version = getattr(repro, "__version__", None)
    except Exception:
        version = None
    return {"git_sha": sha, "repro_version": version}


def write_bench_json(
    name: str,
    config: dict,
    metrics: dict,
    topology: dict | None = None,
) -> pathlib.Path:
    """Persist one bench run as ``benchmarks/results/BENCH_<name>.json``.

    ``config`` describes the workload shape (so two runs are known to be
    comparable); ``metrics`` carries the measured numbers (seconds,
    ops/sec, speedups, booleans for correctness gates).  ``topology``
    stamps the cluster shape of a distributed run — worker count,
    replication factor, slot count — so single-node and cluster numbers
    are never conflated; single-process benches omit it and their
    envelope is unchanged.  Values must be JSON-serializable.  Returns
    the written path.
    """
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{safe}.json"
    payload = {
        "name": name,
        "config": config,
        "metrics": metrics,
        "host": _host(),
        "provenance": _provenance(),
    }
    if topology is not None:
        payload["topology"] = dict(topology)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path
