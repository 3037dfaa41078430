"""Deterministic fault injection: plan semantics and both injection points.

The contract under test: a :class:`FaultPlan` is a pure function of its
seed and the sequence of ``decide`` calls — no wall clock, no global
RNG — so any failure a chaos run produced replays bit-for-bit.  The
client-side hook fires before the socket (a dropped request provably
never reached a server); the server-side hook fires after a parsed
request (the daemon really received the bytes it then discards).
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.service import (
    FaultPlan,
    FaultRule,
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)

NS = NamespaceConfig("web", ("h1",), k=16, salt=1)


@pytest.fixture
def daemon(tmp_path):
    config = ServiceConfig(
        store_root=str(tmp_path / "store"),
        namespaces=(NS,),
        port=0,
        compact_to=None,
        tick_s=3600.0,
    )
    thread = ServiceThread(config)
    thread.start()
    client = ServiceClient(port=thread.service.port, timeout=5.0)
    client.wait_ready()
    yield thread, client
    client.close()
    thread.stop()


class TestRules:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule("explode")

    def test_probability_and_delay_validated(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule("drop", probability=1.5)
        with pytest.raises(ValueError, match="delay_s"):
            FaultRule("delay", delay_s=-1.0)

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(7, [
            FaultRule("error", verb="/ingest", status=429, start=2, stop=9),
            FaultRule("drop", scope="w1", probability=0.5, limit=3),
            FaultRule("delay", slot=3, delay_s=0.25, method="POST"),
        ])
        back = FaultPlan.from_json(plan.to_json())
        assert back.seed == plan.seed and back.rules == plan.rules
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_json()))
        assert FaultPlan.from_file(path).rules == plan.rules

    def test_plan_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            FaultPlan.from_json({"rules": []})


class TestDeterminism:
    @staticmethod
    def _drive(plan: FaultPlan) -> list:
        for i in range(40):
            plan.decide("w1" if i % 3 else "w2", "POST", "/ingest")
            plan.decide("client", "GET", "/query?namespace=web--s002")
        return plan.events

    def test_same_seed_same_events(self):
        rules = [
            FaultRule("drop", probability=0.4),
            FaultRule("error", verb="/query", probability=0.7),
        ]
        first = self._drive(FaultPlan(42, rules))
        second = self._drive(FaultPlan(42, rules))
        assert first == second and first  # identical and non-empty

    def test_different_seed_different_draws(self):
        rules = [FaultRule("drop", probability=0.5)]
        a = self._drive(FaultPlan(1, rules))
        b = self._drive(FaultPlan(2, rules))
        assert [e["seq"] for e in a] != [e["seq"] for e in b]

    def test_match_window_and_limit(self):
        plan = FaultPlan(0, [
            FaultRule("error", start=2, stop=4),  # matches #2 and #3 only
        ])
        outcomes = [
            plan.decide("x", "GET", "/health") is not None for _ in range(6)
        ]
        assert outcomes == [False, False, True, True, False, False]
        limited = FaultPlan(0, [FaultRule("drop", limit=2)])
        fired = [
            limited.decide("x", "GET", "/health") is not None
            for _ in range(5)
        ]
        assert fired == [True, True, False, False, False]
        assert limited.fired() == 2

    def test_slot_matching_from_body_and_query_string(self):
        plan = FaultPlan(0, [FaultRule("error", slot=3)])
        # namespace via request body (the client's POST path)
        assert plan.decide(
            "w1", "POST", "/ingest", namespace="web--s003"
        ) is not None
        assert plan.decide(
            "w1", "POST", "/ingest", namespace="web--s002"
        ) is None
        # namespace via the query string (a GET /bundle)
        assert plan.decide(
            "w1", "GET", "/bundle?namespace=web--s003&bucket=b"
        ) is not None
        # non-slot namespace never matches a slot rule
        assert plan.decide("w1", "POST", "/ingest", namespace="web") is None

    def test_slot_rule_matches_any_section_of_a_frame(self):
        plan = FaultPlan(0, [FaultRule("error", slot=3)])
        sections = ("web--s001", "web--s003", "web--s005")
        assert plan.decide(
            "w1", "POST", "/ingest", namespace=sections
        ) is not None
        assert plan.decide(
            "w1", "POST", "/ingest", namespace=("web--s001", "web--s005")
        ) is None
        assert plan.decide("w1", "POST", "/ingest", namespace=()) is None
        # the witness names every slot the frame carried
        assert plan.events[0]["slot"] == [1, 3, 5]

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(0, [
            FaultRule("delay", verb="/ingest"),
            FaultRule("error", verb="/ingest"),
        ])
        decision = plan.decide("x", "POST", "/ingest")
        assert decision.action == "delay" and decision.rule_index == 0


class TestClientInjection:
    def test_error_surfaces_as_service_error(self, daemon):
        _thread, client = daemon
        client.install_faults(FaultPlan(0, [
            FaultRule("error", verb="/ingest", status=429, limit=1),
        ]))
        with pytest.raises(ServiceError) as excinfo:
            client.ingest("web", ["a"], {"h1": [1.0]}, sync=True)
        assert excinfo.value.status == 429
        assert excinfo.value.payload.get("fault") is True
        # the rule is spent: the next attempt goes through for real
        result = client.ingest("web", ["a"], {"h1": [1.0]}, sync=True)
        assert result["ok"]

    def test_drop_on_non_idempotent_raises_refused(self, daemon):
        _thread, client = daemon
        plan = FaultPlan(0, [FaultRule("drop", verb="/ingest", limit=1)])
        client.install_faults(plan)
        with pytest.raises(ConnectionRefusedError):
            client.ingest("web", ["a"], {"h1": [1.0]}, sync=True)
        # provably nothing was sent: the daemon holds zero events
        client.install_faults(None)
        assert client.status()["stats"]["ingested_events"] == 0

    def test_drop_on_idempotent_is_retried_through(self, daemon):
        _thread, client = daemon
        naps = []
        client._sleep = naps.append
        client.install_faults(FaultPlan(0, [
            FaultRule("drop", verb="/health", limit=1),
        ]))
        assert client.liveness()["ok"]  # retry after the dropped attempt
        assert naps  # backoff actually applied

    def test_blackhole_burns_timeout_then_raises(self, daemon):
        _thread, client = daemon
        naps = []
        client._sleep = naps.append
        client.install_faults(FaultPlan(0, [
            FaultRule("blackhole", verb="/ingest"),
        ]))
        with pytest.raises(socket.timeout):
            client.ingest("web", ["a"], {"h1": [1.0]}, sync=True)
        assert naps and naps[0] == client.timeout

    def test_delay_then_success(self, daemon):
        _thread, client = daemon
        naps = []
        client._sleep = naps.append
        client.install_faults(FaultPlan(0, [
            FaultRule("delay", verb="/ingest", delay_s=0.2, limit=1),
        ]))
        result = client.ingest("web", ["a"], {"h1": [2.0]}, sync=True)
        assert result["ok"] and naps == [0.2]


class TestServerInjection:
    def test_error_reply_and_counter(self, daemon):
        thread, client = daemon
        thread.service.install_faults(FaultPlan(0, [
            FaultRule("error", verb="/health", status=503, limit=2),
        ]), scope="worker")
        for _ in range(2):
            with pytest.raises(ServiceError) as excinfo:
                client.liveness()
            assert excinfo.value.status == 503
        assert client.liveness()["ok"]  # spent
        counters = client.status()["runtime"]["counters"]
        assert counters.get("faults_injected") == 2

    def test_server_drop_breaks_connection_client_retries(self, daemon):
        thread, client = daemon
        plan = FaultPlan(0, [FaultRule("drop", verb="/health", limit=1)])
        thread.service.install_faults(plan, scope="worker")
        # the daemon read the request and dropped the connection; the
        # idempotent probe retries on a fresh connection and succeeds
        assert client.liveness()["ok"]
        assert plan.fired() == 1

    def test_scope_filter_targets_one_worker(self, daemon):
        thread, client = daemon
        plan = FaultPlan(0, [FaultRule("error", scope="w-other")])
        thread.service.install_faults(plan, scope="w-this")
        assert client.liveness()["ok"]  # rule never matches this scope
        assert plan.fired() == 0


class TestFrameSlotScope:
    """A coalesced ingest frame carries several slots in one request:
    slot-scoped rules keep matching it at both injection points."""

    @staticmethod
    def _frame(slots) -> tuple[bytes, list[str]]:
        import numpy as np

        from repro.service.cluster import slot_namespace
        from repro.store.codec import encode_event_batch, encode_event_section

        names = [slot_namespace("web", slot) for slot in slots]
        return encode_event_batch([
            (name, encode_event_section(
                name, np.array([slot]), {"h1": np.array([1.0])}
            ))
            for name, slot in zip(names, slots)
        ], sync=True), names

    @pytest.fixture
    def slot_daemon(self, tmp_path):
        from repro.service.cluster import slot_namespace_configs

        config = ServiceConfig(
            store_root=str(tmp_path / "store"),
            namespaces=slot_namespace_configs(NS, 4),
            port=0,
            compact_to=None,
            tick_s=3600.0,
        )
        thread = ServiceThread(config)
        thread.start()
        client = ServiceClient(port=thread.service.port, timeout=5.0)
        client.wait_ready()
        yield thread, client
        client.close()
        thread.stop()

    def test_client_side_rule_sees_the_frames_sections(self, slot_daemon):
        _thread, client = slot_daemon
        plan = FaultPlan(0, [FaultRule("error", slot=2, status=429)])
        client.install_faults(plan)
        frame, names = self._frame([0, 2])
        with pytest.raises(ServiceError) as excinfo:
            client.ingest_frame(frame, names)
        assert excinfo.value.status == 429
        other, other_names = self._frame([0, 1])
        assert client.ingest_frame(other, other_names)["events"] == 2
        assert plan.fired() == 1 and plan.events[0]["slot"] == [0, 2]

    def test_server_side_rule_reads_the_frame_header(self, slot_daemon):
        thread, client = slot_daemon
        plan = FaultPlan(0, [FaultRule("error", slot=2, status=503)])
        thread.service.install_faults(plan, scope="worker")
        frame, _names = self._frame([1, 2, 3])
        with pytest.raises(ServiceError) as excinfo:
            client.ingest_frame(frame)  # nothing but the bytes to go on
        assert excinfo.value.status == 503
        assert excinfo.value.payload.get("fault") is True
        assert client.ingest_frame(self._frame([0, 1])[0])["events"] == 2
        # a JSON body's one namespace still matches the same rule
        with pytest.raises(ServiceError):
            client.ingest("web--s002", [7], {"h1": [1.0]}, sync=True)
        assert [event["slot"] for event in plan.events] == [[1, 2, 3], 2]
