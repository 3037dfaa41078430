"""Shutdown answers the request it promises to finish — on every Python.

``Server.wait_closed()`` waits for connection handlers only from Python
3.12 on; on 3.10/3.11 a daemon that relied on it cancelled whatever
query was in flight when shutdown began (the client saw
``RemoteDisconnected``), and the coordinator closed ``runtime.sqlite``
under the running handler.  The shared shell waits for in-flight
handlers itself.
"""

from __future__ import annotations

import logging
import threading
import time

import pytest

from repro.service import (
    CoordinatorConfig,
    CoordinatorThread,
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    slot_namespace_configs,
)

NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=3)
QUIET = {"port": 0, "compact_to": None, "tick_s": 3600.0}
EVENTS = (
    "web", [f"k{i}" for i in range(20)],
    {"h1": [float(i + 1) for i in range(20)], "h2": [2.0] * 20},
)


def spawn_worker(root, namespaces=(NS,)) -> ServiceThread:
    thread = ServiceThread(ServiceConfig(
        store_root=str(root), namespaces=namespaces, **QUIET
    ))
    thread.start()
    return thread


def gate(owner, name):
    """Park ``owner.name`` on an event: ``(entered, release)``."""
    entered, release = threading.Event(), threading.Event()
    original = getattr(owner, name)

    def gated(*args, **kwargs):
        entered.set()
        assert release.wait(30.0)
        return original(*args, **kwargs)

    setattr(owner, name, gated)
    return entered, release


@pytest.mark.parametrize("daemon", ["worker", "coordinator"])
def test_query_in_flight_at_shutdown_is_answered(tmp_path, caplog, daemon):
    threads = [spawn_worker(
        tmp_path / "w",
        (NS,) if daemon == "worker" else slot_namespace_configs(NS, 2),
    )]
    if daemon == "coordinator":
        coordinator = CoordinatorThread(CoordinatorConfig(
            root=str(tmp_path / "c"), namespaces=(NS,), port=0, n_slots=2,
            salt=3, heartbeat_s=3600.0, repair_interval_s=0,
        ))
        coordinator.start()
        threads.insert(0, coordinator)
    target = threads[0]
    service = target.service
    client = ServiceClient(port=service.port)
    if daemon == "coordinator":
        client.cluster_join("w1", "127.0.0.1", threads[1].service.port)
        entered, release = gate(service, "_answer_query")
    else:
        entered, release = gate(service.planner, "plan")
    client.ingest(*EVENTS, sync=True)
    outcome = {}

    def query() -> None:
        try:
            outcome["answer"] = client.estimate("web", "max", ["h1", "h2"])
        except BaseException as err:  # the parent: RemoteDisconnected
            outcome["error"] = err

    asker = threading.Thread(target=query)
    stopper = threading.Thread(target=target.stop)
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        asker.start()
        assert entered.wait(10.0)
        stopper.start()
        deadline = time.monotonic() + 10.0
        while not service._stopping:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        time.sleep(0.3)  # shutdown has every chance to run ahead of us
        assert stopper.is_alive(), "shutdown did not wait for the handler"
        release.set()
        asker.join(15.0)
        stopper.join(15.0)
    assert not asker.is_alive() and not stopper.is_alive()
    client.close()
    for thread in threads[1:]:
        thread.stop()
    assert "error" not in outcome, outcome
    answer = outcome["answer"]
    # its real answer: computed (and cached) after shutdown began, so the
    # coordinator's runtime.sqlite was still open under the handler
    assert answer["estimate"] > 0 and not answer["cached"]
    assert not [r for r in caplog.records if "Exception in callback" in
                r.getMessage()], caplog.text


def test_long_poller_is_woken_not_waited_out(tmp_path):
    thread = spawn_worker(tmp_path / "w")
    client = ServiceClient(port=thread.service.port)
    watch = client.watch_register(
        "web", {"function": "max", "assignments": ["h1", "h2"]},
        {"above": 1.0}, cadence_s=3600.0,
    )["watch"]
    polled = {}
    served = thread.service.stats["requests"]
    poller = threading.Thread(target=lambda: polled.update(client.watch_poll(
        watch["id"], after=watch["update_seq"], timeout=60.0
    )))
    poller.start()
    deadline = time.monotonic() + 10.0
    while thread.service.stats["requests"] == served:  # poll not parsed yet
        assert time.monotonic() < deadline
        time.sleep(0.005)
    started = time.monotonic()
    thread.stop()
    poller.join(10.0)
    client.close()
    assert not poller.is_alive()
    assert polled["timed_out"] is True
    assert time.monotonic() - started < 5.0
