"""Chaos soak: single-node durability under seeded faults and a crash.

A deterministic mini chaos-monkey for the PR 5 durability contract: a
driver client with a seeded :class:`FaultPlan` pushes a mixed stream of
batches through drops, injected 5xx/429s, delays, and one black-hole;
mid-stream the daemon is SIGKILLed and restarted.  The invariants:

* every *acked* batch the daemon had rotated into the store before the
  kill survives the crash bit-exactly (``rotate()`` is the durability
  barrier — like PR 5's checkpoint tests, but under fault load);
* un-rotated acked batches die with the live window, and the restarted
  daemon's answer equals the offline engine over exactly the rotated
  prefix — never a silently wrong merge of partial state;
* client-side faults fire *before* the socket, so a failed ingest is
  provably un-applied: re-driving the lost and failed batches converges
  the daemon to the offline engine over the full acked set.

Everything is seeded — the same FaultPlan fires the same faults on the
same batches every run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine
from repro.service import (
    FaultPlan,
    FaultRule,
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)

NS = NamespaceConfig("soak", ("h1", "h2"), k=32, salt=9)


class Clock:
    """Frozen: every batch lands in one minute bucket."""

    def __init__(self) -> None:
        self.now = 1_767_226_000.0

    def __call__(self) -> float:
        return self.now


def make_batch(index: int, n: int = 25):
    keys = [f"b{index}-k{i}" for i in range(n)]
    rng = np.random.default_rng(1000 + index)
    return keys, {
        "h1": (rng.pareto(1.3, n) + 0.05).tolist(),
        "h2": (rng.pareto(1.6, n) + 0.05).tolist(),
    }


def offline_estimate(batches, function: str = "max"):
    summarizer = NS.make_summarizer()
    for keys, weights in batches:
        summarizer.ingest_multi(
            keys, {name: np.asarray(w) for name, w in weights.items()}
        )
    return QueryEngine(summarizer.summary()).estimate(
        AggregationSpec(function, ("h1", "h2"))
    )


def spawn(root, clock) -> tuple[ServiceThread, ServiceClient]:
    config = ServiceConfig(
        store_root=str(root),
        namespaces=(NS,),
        port=0,
        compact_to=None,
        tick_s=3600.0,
    )
    thread = ServiceThread(config, clock=clock)
    thread.start()
    client = ServiceClient(port=thread.service.port, timeout=2.0, retries=1)
    client.wait_ready()
    return thread, client


@pytest.mark.parametrize("seed", [7, 1234])
def test_soak_survives_faults_and_a_crash(tmp_path, seed):
    clock = Clock()
    thread, clean = spawn(tmp_path / "store", clock)
    driver = ServiceClient(
        port=thread.service.port, timeout=1.0, retries=1,
        sleep=lambda _s: None,
    )
    plan = FaultPlan(seed, [
        FaultRule("drop", verb="/ingest", probability=0.2),
        FaultRule("error", verb="/ingest", status=503, probability=0.15),
        FaultRule("error", verb="/ingest", status=429, probability=0.1),
        FaultRule("blackhole", verb="/ingest", limit=1, probability=0.5),
        FaultRule("delay", verb="/ingest", delay_s=0.0, probability=0.3),
    ])
    driver.install_faults(plan)

    acked: list = []          # batches the daemon provably applied
    failed: list = []         # batches a fault kept off the wire
    flushed_upto = 0          # len(acked) at the last rotate()
    total = 30
    kill_at = 18

    def drive(index: int) -> None:
        nonlocal flushed_upto
        batch = make_batch(index)
        try:
            result = driver.ingest("soak", *batch, sync=True)
        except ServiceError:
            failed.append(batch)       # injected 5xx/429: never sent
        except OSError:
            failed.append(batch)       # drop/blackhole: never sent
        else:
            assert result["ok"]
            acked.append(batch)
        if index % 5 == 4:
            clean.rotate()             # durability barrier
            flushed_upto = len(acked)

    for index in range(kill_at):
        drive(index)
    assert plan.fired() > 0, "the seeded plan never fired; soak is vacuous"
    assert acked and failed, "need both outcomes for the invariants to bite"

    survivors = list(acked[:flushed_upto])
    lost = list(acked[flushed_upto:])
    thread.kill()
    driver.close()
    clean.close()

    # -- restart: only the rotated prefix survives, bit-exactly ---------------
    thread, clean = spawn(tmp_path / "store", clock)
    served = clean.estimate("soak", "max", ["h1", "h2"])
    assert not served.get("partial")
    if survivors:
        assert served["estimate"] == offline_estimate(survivors)
    else:
        assert served["empty"]

    # -- re-drive the lost tail, the failed batches, and the rest -------------
    for batch in lost + failed:
        result = clean.ingest("soak", *batch, sync=True)
        assert result["ok"]
    failed_before_restart = len(failed)
    driver = ServiceClient(
        port=thread.service.port, timeout=1.0, retries=1,
        sleep=lambda _s: None,
    )
    driver.install_faults(plan)  # same plan keeps firing, deterministically
    for index in range(kill_at, total):
        drive(index)
    for batch in failed[failed_before_restart:]:
        result = clean.ingest("soak", *batch, sync=True)
        assert result["ok"]
    clean.rotate()

    # -- convergence: the daemon equals the offline engine over everything ----
    everything = survivors + lost + failed[:failed_before_restart] + [
        make_batch(i) for i in range(kill_at, total)
    ]
    for function in ("max", "l1"):
        served = clean.estimate("soak", function, ["h1", "h2"])
        assert not served.get("partial")
        assert served["estimate"] == offline_estimate(
            everything, function
        ), f"{function} diverged after the soak"

    # the daemon's runtime tier survived the crash: revision moved on,
    # same schema, and the query cache is warm for a replay
    stats = clean.status()["runtime"]
    assert stats["schema_version"] == 2
    again = clean.estimate("soak", "max", ["h1", "h2"])
    assert again["cached"] is True

    driver.close()
    clean.close()
    thread.stop()


def test_soak_is_deterministic(tmp_path):
    """Two runs from the same seed fire the same faults on the same
    requests — the replay witness for any failure the soak ever finds."""

    def run(tag: str) -> list:
        clock = Clock()
        thread, clean = spawn(tmp_path / tag, clock)
        driver = ServiceClient(
            port=thread.service.port, timeout=1.0, retries=1,
            sleep=lambda _s: None,
        )
        plan = FaultPlan(99, [
            FaultRule("drop", verb="/ingest", probability=0.3),
            FaultRule("error", verb="/ingest", status=503, probability=0.2),
        ])
        driver.install_faults(plan)
        for index in range(12):
            try:
                driver.ingest("soak", *make_batch(index), sync=True)
            except (ServiceError, OSError):
                pass
        driver.close()
        clean.close()
        thread.stop()
        return plan.events

    assert run("a") == run("b")
