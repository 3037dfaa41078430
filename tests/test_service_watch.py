"""Continuous queries and the non-finite JSON wire contract over HTTP.

End-to-end tests for PR 7's service surface: ``/watch`` registration
with immediate materialization, ticker-driven re-evaluation, long-poll
update delivery, persistence of registrations across daemon restarts
(``runtime.sqlite``), windowed/decayed queries over the wire, and the
RFC 8259-strict non-finite float contract on every query response.
"""

from __future__ import annotations

import json
import time
import urllib.request

import math

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine
from repro.service import (
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)

NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=4)


def make_config(root, **overrides):
    base = dict(
        store_root=str(root),
        namespaces=(NS,),
        port=0,
        compact_to=None,
        tick_s=0.05,
    )
    base.update(overrides)
    return ServiceConfig(**base)


@pytest.fixture
def service(tmp_path):
    with ServiceThread(make_config(tmp_path / "store")) as thread:
        client = ServiceClient(port=thread.service.port)
        client.wait_ready()
        yield thread, client
        client.close()


def ingest_simple(client, keys, w1, w2=None):
    w2 = w1 if w2 is None else w2
    client.ingest("web", keys, {"h1": list(w1), "h2": list(w2)}, sync=True)


def wait_until(predicate, timeout=5.0, message="condition never held"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    pytest.fail(message)


class TestWatchLifecycle:
    def test_register_materializes_immediately(self, service):
        _thread, client = service
        ingest_simple(client, ["a", "b"], [2.0, 3.0])
        result = client.watch_register(
            "web",
            {"kind": "estimate", "function": "max",
             "assignments": ["h1", "h2"]},
            {"above": 100.0},
            cadence_s=0.1,
        )
        watch = result["watch"]
        assert watch["id"] >= 1
        assert watch["enabled"] and watch["evaluations"] == 1
        assert watch["update_seq"] == 1
        assert watch["last_triggered"] is False  # 5.0 is not above 100
        assert watch["last_answer"]["estimate"] == pytest.approx(5.0)
        assert watch["last_error"] is None

    def test_ticker_triggers_past_threshold_and_long_poll_sees_it(
        self, service
    ):
        _thread, client = service
        ingest_simple(client, ["a"], [1.0])
        watch = client.watch_register(
            "web",
            {"kind": "estimate", "function": "max",
             "assignments": ["h1", "h2"]},
            {"above": 50.0},
            cadence_s=0.05,
        )["watch"]
        assert watch["last_triggered"] is False
        seq = watch["update_seq"]
        # push the estimate past the threshold; the ticker re-evaluates
        ingest_simple(client, ["big"], [1000.0])
        polled = client.watch_poll(watch["id"], after=seq, timeout=10.0)
        assert polled["timed_out"] is False
        updated = polled["watch"]
        assert updated["update_seq"] > seq
        updated = wait_until(
            lambda: next(
                (w for w in client.watches()
                 if w["id"] == watch["id"] and w["last_triggered"]),
                None,
            ),
            message="watch never triggered after crossing the threshold",
        )
        assert updated["last_answer"]["estimate"] > 50.0
        assert updated["triggered_count"] >= 1

    def test_below_threshold_direction(self, service):
        _thread, client = service
        ingest_simple(client, ["a"], [10.0])
        watch = client.watch_register(
            "web",
            {"kind": "estimate", "function": "max",
             "assignments": ["h1", "h2"]},
            {"below": 100.0},
            cadence_s=0.1,
        )["watch"]
        assert watch["last_triggered"] is True  # 10 < 100

    def test_poll_times_out_quietly(self, service):
        _thread, client = service
        ingest_simple(client, ["a"], [1.0])
        watch = client.watch_register(
            "web",
            {"kind": "estimate", "function": "max",
             "assignments": ["h1"]},
            {"above": 1e9},
            cadence_s=3600.0,  # never re-evaluates during the test
        )["watch"]
        result = client.watch_poll(
            watch["id"], after=watch["update_seq"], timeout=0.2
        )
        assert result["timed_out"] is True
        assert result["watch"]["update_seq"] == watch["update_seq"]

    def test_list_filter_and_remove(self, service):
        _thread, client = service
        ingest_simple(client, ["a"], [1.0])
        spec = {"kind": "estimate", "function": "max",
                "assignments": ["h1"]}
        first = client.watch_register(
            "web", spec, {"above": 1.0}, cadence_s=1.0
        )["watch"]
        second = client.watch_register(
            "web", spec, {"below": 2.0}, cadence_s=1.0
        )["watch"]
        listed = client.watches(namespace="web")
        assert [w["id"] for w in listed] == [first["id"], second["id"]]
        assert client.watches(namespace="nope") == []
        removed = client.watch_remove(first["id"])
        assert removed["removed"] == first["id"]
        assert [w["id"] for w in client.watches()] == [second["id"]]
        with pytest.raises(ServiceError) as excinfo:
            client.watch_poll(first["id"], timeout=0.1)
        assert excinfo.value.status == 404

    def test_watch_stats_surface_in_status(self, service):
        _thread, client = service
        ingest_simple(client, ["a"], [1.0])
        client.watch_register(
            "web",
            {"kind": "estimate", "function": "max",
             "assignments": ["h1"]},
            {"below": 100.0},
            cadence_s=0.1,
        )
        status = client.status()
        watches = status["runtime"]["watches"]
        assert watches["registrations"] == 1
        assert watches["evaluations"] >= 1
        assert watches["currently_triggered"] == 1
        assert watches["erroring"] == 0

    def test_registration_validation(self, service):
        _thread, client = service
        spec = {"kind": "estimate", "function": "max",
                "assignments": ["h1"]}
        cases = [
            # (namespace, query, threshold, cadence, expected status)
            ("nope", spec, {"above": 1.0}, 1.0, 404),
            ("web", {"kind": "estimate", "function": "bogus",
                     "assignments": ["h1"]}, {"above": 1.0}, 1.0, 400),
            ("web", {"kind": "estimate", "function": "max",
                     "assignments": ["h1"], "window": "junk"},
             {"above": 1.0}, 1.0, 400),
            ("web", spec, {"sideways": 1.0}, 1.0, 400),
            ("web", spec, {"above": float("nan")}, 1.0, 400),
            ("web", spec, {"above": 1.0, "below": 2.0}, 1.0, 400),
            ("web", spec, {"above": 1.0}, 0.0, 400),
            ("web", spec, {"above": 1.0}, -5.0, 400),
        ]
        for namespace, query, threshold, cadence, status in cases:
            with pytest.raises(ServiceError) as excinfo:
                client.watch_register(namespace, query, threshold, cadence)
            assert excinfo.value.status == status, (
                namespace, query, threshold, cadence,
            )

    def test_watch_over_unknown_namespace_spec_rejected_eagerly(
        self, service
    ):
        # the spec is validated through the same code path as /query,
        # so a bad estimator string is a 400 at registration time
        _thread, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.watch_register(
                "web",
                {"kind": "estimate", "function": "max",
                 "assignments": ["h1"], "estimator": "bogus"},
                {"above": 1.0},
                1.0,
            )
        assert excinfo.value.status == 400


class TestWatchPersistence:
    def test_registrations_survive_restart(self, tmp_path):
        root = tmp_path / "store"
        config = make_config(root)
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            ingest_simple(client, ["a"], [10.0])
            watch = client.watch_register(
                "web",
                {"kind": "estimate", "function": "max",
                 "assignments": ["h1", "h2"]},
                {"above": 5.0},
                cadence_s=0.05,
            )["watch"]
            watch_id = watch["id"]
            assert watch["last_triggered"] is True
            client.shutdown()

        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            listed = client.watches()
            assert [w["id"] for w in listed] == [watch_id]
            survivor = listed[0]
            assert survivor["threshold"] == {"above": 5.0}
            assert survivor["spec"]["function"] == "max"
            # the ticker picks evaluations back up on the restarted
            # daemon (its last_eval_at is long past the cadence)
            wait_until(
                lambda: client.watches()[0]["evaluations"]
                > survivor["evaluations"],
                message="restarted daemon never re-evaluated the watch",
            )
            client.close()

    def test_watch_evaluation_error_is_recorded_not_fatal(self, tmp_path):
        # register against data, then restart with an EMPTY live window
        # and no data in range: the evaluation errors (no data), the
        # daemon keeps running, and the error lands on the row
        root = tmp_path / "store"
        config = make_config(root)
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            ingest_simple(client, ["a"], [1.0])
            watch = client.watch_register(
                "web",
                {"kind": "estimate", "function": "max",
                 "assignments": ["h1"],
                 "since": "21000101T0000", "until": "21000101T0000"},
                {"above": 1.0},
                cadence_s=0.1,
            )["watch"]
            assert watch["last_error"] is not None
            assert watch["last_answer"] is None
            assert watch["last_triggered"] is False
            status = client.status()
            assert status["runtime"]["watches"]["erroring"] == 1
            client.health()  # daemon alive and serving
            client.close()


class TestTemporalOverHttp:
    def test_window_series_round_trips(self, service):
        thread, client = service
        ingest_simple(client, ["a", "b"], [1.0, 2.0])
        result = client.window_series(
            "web", "max", ["h1", "h2"], window="2m", step="1m"
        )
        assert result["window_s"] == 120.0 and result["step_s"] == 60.0
        assert result["windows"], "live window data must resolve windows"
        last = result["windows"][-1]
        assert last["estimate"] == pytest.approx(3.0)
        # GET form is curlable with the same parameters
        url = (
            f"http://127.0.0.1:{thread.service.port}/query?"
            "namespace=web&function=max&assignments=h1,h2"
            "&window=2m&step=1m"
        )
        with urllib.request.urlopen(url, timeout=10) as response:
            payload = json.load(response)
        assert payload["windows"] == result["windows"]

    def test_decayed_estimate_round_trips(self, service):
        _thread, client = service
        ingest_simple(client, ["a"], [8.0])
        plain = client.estimate("web", "max", ["h1", "h2"])
        decayed = client.estimate(
            "web", "max", ["h1", "h2"], decay="1h"
        )
        assert decayed["decay_s"] == 3600.0
        assert decayed["estimate"] <= plain["estimate"]
        assert "anchor" in decayed

    def test_step_without_window_is_rejected(self, service):
        _thread, client = service
        ingest_simple(client, ["a"], [1.0])
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/query", {
                "kind": "estimate", "namespace": "web", "function": "max",
                "assignments": ["h1"], "step": "1m",
            })
        assert excinfo.value.status == 400

    def test_jaccard_rejects_temporal_params(self, service):
        _thread, client = service
        ingest_simple(client, ["a"], [1.0])
        for field in ("window", "decay"):
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/query", {
                    "kind": "jaccard", "namespace": "web",
                    "assignments": ["h1", "h2"], field: "1m",
                })
            assert excinfo.value.status == 400


class TestNonFiniteContract:
    def _force_nan(self, monkeypatch):
        real = QueryEngine.estimate

        def nan_estimate(self, spec, estimator="auto", predicate=None):
            real(self, spec, estimator=estimator, predicate=predicate)
            return float("nan")

        monkeypatch.setattr(QueryEngine, "estimate", nan_estimate)

    def test_non_finite_estimate_is_strict_json_on_the_wire(
        self, service, monkeypatch
    ):
        thread, client = service
        ingest_simple(client, ["a"], [1.0])
        self._force_nan(monkeypatch)

        def reject(token):
            raise AssertionError(
                f"non-RFC token {token!r} on the wire"
            )

        url = (
            f"http://127.0.0.1:{thread.service.port}/query?"
            "namespace=web&function=max&assignments=h1,h2"
        )
        with urllib.request.urlopen(url, timeout=10) as response:
            body = response.read().decode()
        payload = json.loads(body, parse_constant=reject)  # strict mode
        assert payload["estimate"] is None
        assert payload["non_finite"] == {"/estimate": "nan"}

    def test_client_restores_non_finite_floats(self, service, monkeypatch):
        _thread, client = service
        ingest_simple(client, ["a"], [1.0])
        self._force_nan(monkeypatch)
        answer = client.estimate("web", "max", ["h1", "h2"])
        assert math.isnan(answer["estimate"])
        assert "non_finite" not in answer

    def test_cached_replay_preserves_the_contract(
        self, service, monkeypatch
    ):
        _thread, client = service
        ingest_simple(client, ["a"], [1.0])
        self._force_nan(monkeypatch)
        first = client.estimate("web", "max", ["h1", "h2"])
        assert first["cached"] is False and math.isnan(first["estimate"])
        second = client.estimate("web", "max", ["h1", "h2"])
        assert second["cached"] is True and math.isnan(second["estimate"])

    def test_watch_answers_survive_non_finite_estimates(
        self, service, monkeypatch
    ):
        _thread, client = service
        ingest_simple(client, ["a"], [1.0])
        self._force_nan(monkeypatch)
        watch = client.watch_register(
            "web",
            {"kind": "estimate", "function": "max",
             "assignments": ["h1"]},
            {"above": 10.0},
            cadence_s=3600.0,
        )["watch"]
        # NaN compares false against any threshold: never triggered
        assert watch["last_triggered"] is False
        assert watch["last_error"] is None
        assert math.isnan(watch["last_answer"]["estimate"])
