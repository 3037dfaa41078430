"""Deterministic fault injection for the service stack.

A :class:`FaultPlan` is a seeded schedule of failures — drop, delay,
HTTP error, or black-hole — matched against requests by verb, scope
(worker/client label), and key slot.  The same plan driven by the same
request sequence makes exactly the same decisions, so every failure mode
the self-healing machinery handles is *reproducible* in tests instead of
raced: a chaos run that found a bug replays bit-for-bit from its seed.

Two injection points consume a plan:

* **client side** — :meth:`repro.service.client.ServiceClient.
  install_faults` consults the plan before each HTTP attempt.  A
  ``drop`` raises :class:`ConnectionRefusedError` *before* anything is
  sent (the server provably never saw the request, so retry/re-route
  logic can treat it like a refused TCP connect); a ``blackhole`` burns
  the call's socket timeout and raises :class:`socket.timeout`; an
  ``error`` synthesizes a 4xx/5xx JSON reply; a ``delay`` sleeps and
  proceeds.
* **server side** — :meth:`repro.service.httpbase.HttpServerBase.
  install_faults` consults the plan after a request is parsed and
  before it is dispatched, so the daemon really received (and on
  ``drop``/``blackhole`` really discards) the bytes.

Determinism: each rule keeps a per-rule match counter; the Bernoulli
draw for match ``n`` of rule ``i`` is ``splitmix64`` of
``(seed, i, n)`` — no wall clock, no global RNG.  Every fired decision
is appended to :attr:`FaultPlan.events`, the witness a test compares
across two identically-driven plans.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from dataclasses import dataclass
from typing import Sequence

from repro.ranks.hashing import _MASK64, splitmix64
from repro.service.cluster.topology import parse_slot_namespace

__all__ = ["FaultDecision", "FaultPlan", "FaultRule", "FAULT_ACTIONS"]

#: the injectable failure modes
FAULT_ACTIONS = ("drop", "delay", "error", "blackhole")

# Domain separation from the sketch/topology hash families.
_FAULT_SALT = 0xFA17_7000_0000_0001


@dataclass(frozen=True)
class FaultRule:
    """One failure mode matched against requests.

    ``None`` fields match anything.  ``verb`` matches the request path
    (query string stripped), ``scope`` the label the plan was installed
    under (a worker id, ``"client"``, ...), ``slot`` the key slot parsed
    from the request's slot namespace (``web--s003`` → 3; an ingest
    frame matches when *any* of its sections is that slot).  ``start`` /
    ``stop`` bound the *matching-request* window the rule may fire in
    (0-based, half-open), ``limit`` caps total fires, ``probability``
    gates each eligible match through the seeded Bernoulli draw.
    """

    action: str
    verb: str | None = None
    method: str | None = None
    scope: str | None = None
    slot: int | None = None
    status: int = 503
    delay_s: float = 0.05
    probability: float = 1.0
    start: int = 0
    stop: int | None = None
    limit: int | None = None

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; known: "
                f"{', '.join(FAULT_ACTIONS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")

    def to_json(self) -> dict:
        row = {"action": self.action}
        for name in (
            "verb", "method", "scope", "slot", "stop", "limit",
        ):
            value = getattr(self, name)
            if value is not None:
                row[name] = value
        if self.status != 503:
            row["status"] = self.status
        if self.delay_s != 0.05:
            row["delay_s"] = self.delay_s
        if self.probability != 1.0:
            row["probability"] = self.probability
        if self.start:
            row["start"] = self.start
        return row

    @classmethod
    def from_json(cls, row: dict) -> "FaultRule":
        return cls(**row)


@dataclass(frozen=True)
class FaultDecision:
    """One fired fault: what to do to the current request."""

    action: str
    status: int
    delay_s: float
    rule_index: int


class FaultPlan:
    """A seeded, thread-safe schedule of :class:`FaultRule` firings.

    One plan instance may be shared by several clients/servers (the
    chaos harness installs one plan everywhere); the per-rule match
    counters advance under a lock, so a given *sequence* of ``decide``
    calls is deterministic regardless of which component issued them —
    and :attr:`events` records that sequence for replay comparison.
    """

    def __init__(self, seed: int, rules: "list[FaultRule] | tuple" = ()) -> None:
        self.seed = int(seed)
        self.rules = tuple(
            rule if isinstance(rule, FaultRule) else FaultRule(**rule)
            for rule in rules
        )
        self.events: list[dict] = []
        self._lock = threading.Lock()
        self._matches = [0] * len(self.rules)
        self._fires = [0] * len(self.rules)

    # -- matching -------------------------------------------------------------

    @staticmethod
    def _request_slots(path: str, namespace) -> tuple[int, ...]:
        """The key slots a request touches: one for a slot namespace,
        one per section for an ingest frame, none otherwise."""
        if namespace is None:
            query = urllib.parse.urlsplit(path).query
            values = urllib.parse.parse_qs(query).get("namespace")
            namespace = values[-1] if values else None
        if namespace is None:
            return ()
        names = (namespace,) if isinstance(namespace, str) else namespace
        parsed = (parse_slot_namespace(name) for name in names)
        return tuple(hit[1] for hit in parsed if hit is not None)

    @property
    def wants_namespace(self) -> bool:
        """True when some rule needs the request's namespace (slot match)."""
        return any(rule.slot is not None for rule in self.rules)

    def _draw(self, rule_index: int, seq: int) -> float:
        mixed = splitmix64(
            (self.seed ^ _FAULT_SALT ^ splitmix64(
                ((rule_index + 1) * 0x9E3779B97F4A7C15) & _MASK64
            )) & _MASK64
        )
        return splitmix64((mixed ^ seq) & _MASK64) / float(1 << 64)

    def decide(
        self,
        scope: str,
        method: str,
        path: str,
        namespace: "str | Sequence[str] | None" = None,
    ) -> FaultDecision | None:
        """The fault (if any) to inject into one request attempt.

        ``namespace`` is the request's namespace — or, for an ingest
        frame, the namespaces of all its sections.  First matching rule
        that fires wins.  Deterministic in the sequence of calls: no
        clocks, no global randomness.
        """
        if not self.rules:
            return None
        plain = path.split("?", 1)[0]
        slots = (
            self._request_slots(path, namespace)
            if self.wants_namespace
            else ()
        )
        # the witness keeps its one-slot shape for one-namespace requests
        slot = slots[0] if len(slots) == 1 else (list(slots) or None)
        with self._lock:
            for index, rule in enumerate(self.rules):
                if rule.scope is not None and rule.scope != scope:
                    continue
                if rule.method is not None and rule.method != method.upper():
                    continue
                if rule.verb is not None and rule.verb != plain:
                    continue
                if rule.slot is not None and rule.slot not in slots:
                    continue
                seq = self._matches[index]
                self._matches[index] += 1
                if seq < rule.start:
                    continue
                if rule.stop is not None and seq >= rule.stop:
                    continue
                if rule.limit is not None and self._fires[index] >= rule.limit:
                    continue
                if (
                    rule.probability < 1.0
                    and self._draw(index, seq) >= rule.probability
                ):
                    continue
                self._fires[index] += 1
                self.events.append({
                    "scope": scope,
                    "method": method.upper(),
                    "path": plain,
                    "slot": slot,
                    "rule": index,
                    "action": rule.action,
                    "seq": seq,
                })
                return FaultDecision(
                    action=rule.action,
                    status=rule.status,
                    delay_s=rule.delay_s,
                    rule_index=index,
                )
        return None

    # -- introspection / serialization ----------------------------------------

    def fired(self) -> int:
        with self._lock:
            return sum(self._fires)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "rules": [rule.to_json() for rule in self.rules],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FaultPlan":
        if "seed" not in payload:
            raise ValueError("fault plan needs a 'seed'")
        return cls(
            seed=int(payload["seed"]),
            rules=[
                FaultRule.from_json(row)
                for row in payload.get("rules", [])
            ],
        )

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, rules={len(self.rules)}, "
            f"fired={self.fired()})"
        )
