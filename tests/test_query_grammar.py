"""One query grammar, one route table: worker ≡ coordinator at the edge.

A live worker and a live coordinator (one cluster worker behind it) hold
the same events.  Every row of the table below is sent to both: a
refused row must be refused by both with the same status and the same
message (``QuerySpec.parse`` produces it once), an accepted row must
answer bit-equal ``estimate`` / ``estimator``, and the GET form must
mean what the POST form means.  The rows marked *diverged* are the
parent commit's bugs: a client typo answered ``partial``, a string
matched per character, a filter silently dropped, a 404 for an
out-of-range ``ell``.
"""

from __future__ import annotations

import http.client
import json
import urllib.parse

import pytest

from repro.obs import parse_prometheus_text
from repro.service import (
    CoordinatorConfig,
    CoordinatorThread,
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    slot_namespace_configs,
)

NS = NamespaceConfig("web", ("h1", "h2", "h3"), k=16, salt=3)
N_SLOTS = 2
#: 2026-07-28T12:01:00Z — every event lands in minute bucket 20260728T1201
NOW = 1785240060.0


def ask(port: int, method: str, path: str, body=None) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        if method == "GET" and body:
            path += "?" + urllib.parse.urlencode(body)
            body = None
        data = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=data)
        reply = conn.getresponse()
        raw = reply.read()
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = {"raw": raw.decode("utf-8", "replace")}
        return reply.status, payload
    finally:
        conn.close()


def samples(port: int) -> dict:
    client = ServiceClient(port=port)
    try:
        return parse_prometheus_text(client.metrics())
    finally:
        client.close()


@pytest.fixture(scope="module")
def daemons(tmp_path_factory):
    """``(worker thread, coordinator thread, cluster worker thread)``."""
    root = tmp_path_factory.mktemp("grammar")
    clock = lambda: NOW  # noqa: E731
    quiet = {"port": 0, "compact_to": None, "tick_s": 3600.0}
    worker = ServiceThread(ServiceConfig(
        store_root=str(root / "worker"), namespaces=(NS,), **quiet
    ), clock=clock)
    cluster_worker = ServiceThread(ServiceConfig(
        store_root=str(root / "cw"),
        namespaces=slot_namespace_configs(NS, N_SLOTS), **quiet,
    ), clock=clock)
    coordinator = CoordinatorThread(CoordinatorConfig(
        root=str(root / "coordinator"), namespaces=(NS,), port=0,
        n_slots=N_SLOTS, salt=3, heartbeat_s=3600.0, repair_interval_s=0,
    ), clock=clock)
    threads = (worker, coordinator, cluster_worker)
    for thread in threads:
        thread.start()
    keys = [f"k{i}" for i in range(30)]
    weights = {
        name: [float(i % 7 + 1 + j) for i in range(30)]
        for j, name in enumerate(NS.assignments)
    }
    batch = {"namespace": "web", "keys": keys, "weights": weights,
             "sync": True}
    assert ask(coordinator.service.port, "POST", "/cluster/join", {
        "worker_id": "w1", "host": "127.0.0.1",
        "port": cluster_worker.service.port,
    })[0] == 200
    for thread in (worker, coordinator):
        assert ask(thread.service.port, "POST", "/ingest", batch)[0] == 200
    yield threads
    for thread in threads:
        thread.stop()


WEB = {"namespace": "web"}
MAX = {**WEB, "function": "max", "assignments": ["h1", "h2"]}

#: (id, body, expected status, fragments the refusal must contain...) — a
#: 2-tuple status is (worker, coordinator)
ROWS = [
    # -- the parent commit's divergences ------------------------------------
    ("since-garbage", {**MAX, "since": "garbage"}, 400,
     "'since'", "invalid bucket id"),
    ("since-number", {**MAX, "since": 5}, 400, "'since'", "string"),
    ("until-garbage", {**MAX, "until": "2026"}, 400),
    ("anchor-string", {**MAX, "decay": "5m", "anchor": "x"}, 400,
     "'anchor'", "number"),
    ("anchor-alone-string", {**MAX, "anchor": "x"}, 400),
    ("ell-string", {**MAX, "ell": "x"}, 400, "'ell'", "integer", "'x'"),
    ("ell-out-of-range",
     {**MAX, "function": "lth_largest", "ell": 7}, 400, "'ell'", "1..2", "7"),
    ("ell-zero", {**MAX, "function": "lth_largest", "ell": 0}, 400),
    ("ell-bool", {**MAX, "function": "lth_largest", "ell": True}, 400),
    ("keys-bare-string", {**MAX, "keys": "k1"}, 400,
     "'keys'", "list", "'k1'"),
    ("keys-null", {**MAX, "keys": [None]}, 400, "'keys'", "no null"),
    ("keys-nested", {**MAX, "keys": [["k1"]]}, 400, "'keys'"),
    ("assignments-bare-string", {**MAX, "assignments": "ab"}, 400,
     "'assignments'", "list", "'ab'"),
    ("assignments-numbers", {**MAX, "assignments": [1, 2]}, 400),
    ("assignments-missing", {**WEB, "function": "max"}, 400),
    ("unknown-assignment", {**MAX, "assignments": ["h1", "zzz"]}, 404,
     "unknown assignment 'zzz'", "known: h1, h2, h3"),
    ("jaccard-keys", {**WEB, "kind": "jaccard",
                      "assignments": ["h1", "h2"], "keys": ["k1"]}, 400,
     "'keys'", "jaccard"),
    ("jaccard-decay", {**WEB, "kind": "jaccard",
                       "assignments": ["h1", "h2"], "decay": "5m"}, 400),
    ("jaccard-variant", {**WEB, "kind": "jaccard",
                         "assignments": ["h1", "h2"], "variant": "x"}, 400,
     "unknown variant 'x'", "known: s, l"),
    # -- refusals both daemons already agreed on ------------------------------
    ("namespace-missing", {"function": "max", "assignments": ["h1"]}, 400),
    ("namespace-unknown", {**MAX, "namespace": "ghost"}, 404),
    ("kind-unknown", {**MAX, "kind": "median"}, 400),
    ("function-missing", {**WEB, "assignments": ["h1"]}, 400),
    ("function-unknown", {**MAX, "function": "median"}, 400),
    ("estimator-unknown", {**MAX, "estimator": "magic"}, 400),
    ("single-two-names", {**MAX, "function": "single"}, 400),
    ("step-without-window", {**MAX, "step": "1m"}, 400),
    ("window-junk", {**MAX, "window": "junk"}, 400),
    ("anchor-without-decay", {**MAX, "anchor": NOW}, 400),
    # -- every valid shape -----------------------------------------------------
    ("max", MAX, 200),
    ("min", {**MAX, "function": "min"}, 200),
    ("l1", {**MAX, "function": "l1"}, 200),
    ("single", {**WEB, "function": "single", "assignments": ["h3"]}, 200),
    ("lth-largest", {**WEB, "function": "lth_largest", "ell": 2,
                     "assignments": ["h1", "h2", "h3"]}, 200),
    ("keys", {**MAX, "keys": ["k1", "k2", "k29", "never-seen"]}, 200),
    ("keys-mixed-types", {**MAX, "keys": ["k1", 2, 2.5]}, 200),
    ("estimator-sset", {**MAX, "estimator": "sset"}, 200),
    ("estimator-lset", {**MAX, "function": "min", "estimator": "lset"}, 200),
    ("estimator-l1-l", {**MAX, "function": "l1", "estimator": "l1-l"}, 200),
    ("since-until", {**MAX, "since": "20260728T12", "until": "20260729"},
     200),
    ("jaccard-l", {**WEB, "kind": "jaccard", "assignments": ["h1", "h2"]},
     200),
    ("jaccard-s", {**WEB, "kind": "jaccard", "variant": "s",
                   "assignments": ["h1", "h3"]}, 200),
    ("null-is-absent", {**MAX, "keys": None, "ell": None, "since": None},
     200),
    # -- the one daemon-specific refusal: temporal queries ----------------------
    ("window", {**MAX, "window": "2m", "step": "1m"}, (200, 400)),
    ("decay", {**MAX, "decay": "5m", "anchor": NOW + 60.0}, (200, 400)),
]

#: rows whose body a query string cannot say (a list-typed violation, a
#: JSON null, a non-string scalar where GET only has strings)
POST_ONLY = {
    "since-number", "ell-bool", "keys-bare-string", "keys-null",
    "keys-nested", "assignments-bare-string", "assignments-numbers",
    "null-is-absent",
}


def as_query_string(body: dict) -> dict:
    return {
        field: ",".join(map(str, value)) if isinstance(value, list)
        else str(value)
        for field, value in body.items()
    }


def outcome(status: int, payload: dict) -> tuple:
    """What a client observes of an answer, minus run-specific fields."""
    if status >= 400:
        # the two namespace listings differ by construction (the cluster
        # worker serves slot namespaces): compared modulo the list
        return status, payload["error"].split("; known: ")[0]
    if "windows" in payload:
        return status, [row["estimate"] for row in payload["windows"]]
    return status, payload["estimate"], payload["estimator"]


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_worker_and_coordinator_agree(daemons, row):
    row_id, body, expected, *fragments = row
    worker, coordinator, _ = daemons
    expect_worker, expect_coordinator = (
        expected if isinstance(expected, tuple) else (expected, expected)
    )
    served = ask(worker.service.port, "POST", "/query", body)
    merged = ask(coordinator.service.port, "POST", "/query", body)
    assert served[0] == expect_worker, served
    assert merged[0] == expect_coordinator, merged
    if expect_worker == expect_coordinator:
        assert outcome(*served) == outcome(*merged)
    for fragment in fragments:  # names the field and the accepted form
        assert fragment in served[1]["error"], served
    if expect_coordinator == 200:
        assert merged[1]["partial"] is False
    else:  # a refusal is never dressed up as data loss
        assert "partial" not in merged[1]
    if row_id in POST_ONLY:
        return
    for port, post in (
        (worker.service.port, served), (coordinator.service.port, merged)
    ):
        got = ask(port, "GET", "/query", as_query_string(body))
        assert outcome(*got) == outcome(*post), (got, post)


def test_client_typo_never_reaches_a_worker(daemons):
    """At the parent this was a 200 ``partial: true, empty: true`` after
    every owner of every slot had refused the fetch."""
    _, coordinator, cluster_worker = daemons
    bundle_requests = lambda: sum(  # noqa: E731
        value for (name, labels), value
        in samples(cluster_worker.service.port).items()
        if name == "repro_http_requests_total"
        and dict(labels)["path"] == "/bundle"
    )
    failed = ("repro_cluster_slot_fetch_total", (("outcome", "failed"),))
    before = bundle_requests()
    before_failed = samples(coordinator.service.port).get(failed, 0.0)
    before_partial = coordinator.service.stats["partial_answers"]
    for since in ("garbage", 5):
        status, payload = ask(
            coordinator.service.port, "POST", "/query",
            {**MAX, "since": since},
        )
        assert status == 400 and "'since'" in payload["error"], payload
    assert bundle_requests() == before
    assert samples(coordinator.service.port).get(failed, 0.0) == before_failed
    assert coordinator.service.stats["partial_answers"] == before_partial


#: result-cache keys captured from the parent commit (PR 23) for these
#: requests, the version token cut out; a row it persisted must still hit
WORKER_KEYS = [
    (MAX,
     '["estimate","web","{version}",null,null,"max",["h1","h2"],"auto",'
     'null,null]'),
    ({**MAX, "keys": ["k1", 2, 2.5], "estimator": "lset"},
     '["estimate","web","{version}",null,null,"max",["h1","h2"],"lset",'
     'null,["\'k1\'","2","2.5"]]'),
    ({**WEB, "function": "lth_largest", "assignments": ["h1", "h2", "h3"],
      "ell": 2, "since": "20260728T1200", "until": "20260729"},
     '["estimate","web","{version}","20260728T1200","20260729",'
     '"lth_largest",["h1","h2","h3"],"auto",2,null]'),
    ({**WEB, "kind": "jaccard", "assignments": ["h1", "h2"], "variant": "s"},
     '["jaccard","web","{version}",null,null,["h1","h2"],"s"]'),
    # the anchor defaults to the end of the data span: 12:02:00Z
    ({**MAX, "function": "min", "decay": "5m"},
     '["estimate","web","{version}",null,null,"min",["h1","h2"],"auto",'
     'null,null,300.0,1785240120.0]'),
    ({**MAX, "function": "l1", "window": "2m", "step": "1m",
      "keys": ["k3"]},
     '["window_series","web","{version}",null,null,"l1",["h1","h2"],'
     '"auto",null,["\'k3\'"],120.0,60.0,null,null]'),
    ({**MAX, "function": "l1", "window": "2m", "decay": 30,
      "anchor": 1785240120},
     '["window_series","web","{version}",null,null,"l1",["h1","h2"],'
     '"auto",null,null,120.0,120.0,30.0,1785240120.0]'),
]
CLUSTER_KEYS = [
    (request, key.replace('["', '["cluster-', 1))
    for request, key in WORKER_KEYS[:4]
]


@pytest.mark.parametrize("daemon", ["worker", "coordinator"])
def test_rows_persisted_by_the_parent_commit_still_hit(daemons, daemon):
    """Plant a sentinel under the parent's literal key; the same request
    at the same version must be served from it."""
    thread = daemons[0] if daemon == "worker" else daemons[1]
    keys = WORKER_KEYS if daemon == "worker" else CLUSTER_KEYS
    service, port = thread.service, thread.service.port
    runtime = service.store.runtime if daemon == "worker" else service.runtime
    probe = {**WEB, "function": "single", "assignments": ["h2"]}
    version = ask(port, "POST", "/query", probe)[1]["version"]
    for number, (request, template) in enumerate(keys):
        sentinel = {"estimate": -float(number + 1), "planted": True}
        runtime.cache_put(
            template.replace("{version}", version), "web", version, sentinel
        )
        status, payload = ask(port, "POST", "/query", request)
        assert status == 200, payload
        assert payload["cached"] is True and payload["planted"], (
            request, payload,
        )
        assert payload["estimate"] == sentinel["estimate"]


@pytest.mark.parametrize("daemon", ["worker", "coordinator"])
def test_route_table_is_the_only_statement_of_the_routes(daemons, daemon):
    thread = daemons[0] if daemon == "worker" else daemons[1]
    service, port = thread.service, thread.service.port
    table = set(service.routes) - {("POST", "/shutdown")}
    paths = {path for _method, path in service.routes}
    for method, path in sorted(table):
        status, payload = ask(port, method, path)
        assert status not in (404, 405), (method, path, payload)
    for path in sorted(paths):
        for method in ("GET", "POST", "PUT", "DELETE"):
            if (method, path) in service.routes:
                continue
            status, payload = ask(port, method, path)
            assert status == 405, (method, path, payload)
    status, payload = ask(port, "GET", "/no/such/route")
    assert status == 404
    listed = payload["error"].split("endpoints: ")[1].rstrip(")").split()
    assert sorted(listed) == sorted(paths)
    labels = {
        dict(labels)["path"] for (name, labels) in samples(port)
        if name == "repro_http_requests_total"
    }
    assert "other" in labels and labels - {"other"} <= paths
