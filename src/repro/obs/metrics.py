"""Threadsafe metrics registry with Prometheus text exposition.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotonically increasing totals (requests served,
  events ingested, cache hits).
* :class:`Gauge` — point-in-time values, either set explicitly or read
  lazily from a callback at scrape time (ingest-queue depth, result-cache
  size).  Callback gauges are how ``/status`` reports instantaneous state
  without every handler recomputing it ad hoc.
* :class:`Histogram` — fixed-bucket latency distributions over
  log-spaced boundaries.  Quantiles (p50/p95/p99) are derived from the
  cumulative bucket counts with log-linear interpolation, so percentile
  reporting needs no per-observation storage.

Every daemon owns its own :class:`MetricsRegistry` (two daemons in one
test process must not share series), and every count a daemon reports
is one of its registry's series, read through
:meth:`MetricsRegistry.counts`.  All mutation is lock-guarded and safe
under concurrent request handlers and background threads.
:func:`MetricsRegistry.render` emits the Prometheus text format (``#
HELP`` / ``# TYPE`` / sample lines) and :func:`parse_prometheus_text`
parses it back — benches and CI scrape ``GET /metrics`` through that
pair.
"""

from __future__ import annotations

import math
import re
import threading
from collections.abc import Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "parse_prometheus_text",
    "quantile_from_buckets",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Log-spaced latency boundaries (seconds): four buckets per decade from
#: 100 µs to ~56 s, plus the implicit +Inf overflow bucket.  Wide enough
#: that a local cache hit and a cross-node fan-out land many buckets
#: apart, tight enough (~78% ratio between edges) for usable p99s.
DEFAULT_LATENCY_BUCKETS = tuple(
    round(1e-4 * 10 ** (i / 4), 10) for i in range(24)
)


def _validate_labels(labelnames, labels):
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared label names "
            f"{sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _render_labels(labelnames, labelvalues, extra=()) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    pairs.extend(f'{name}="{value}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value != value:
        return "NaN"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared per-metric machinery: label children behind one lock."""

    kind = "untyped"
    #: set by a disabled registry: ``inc`` / ``observe`` then return at once
    enabled = True

    def __init__(self, name, help_text, labelnames=()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict = {}

    def labels(self, **labels):
        """The child series for one label combination — no labels for a
        label-less metric (created on first use, so only observed
        combinations appear in the exposition)."""
        if self.labelnames and not labels:
            raise ValueError(
                f"metric {self.name} declares labels "
                f"{list(self.labelnames)}; use .labels(...)"
            )
        key = _validate_labels(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    _default_child = labels  # a label-less metric's one child

    def _snapshot(self):
        with self._lock:
            return list(self._children.items())

    def _counted(self, labels):
        """The child ``labels`` names, or all of them; creates none."""
        key = labels and _validate_labels(self.labelnames, labels)
        return [c for k, c in self._snapshot() if not labels or k == key]


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    class _Child:
        __slots__ = ("_lock", "value")

        def __init__(self):
            self._lock = threading.Lock()
            self.value = 0.0

        def inc(self, amount: float = 1.0) -> None:
            if amount < 0:
                raise ValueError(f"counters only go up, got {amount}")
            with self._lock:
                self.value += amount

    def _make_child(self):
        return Counter._Child()

    def inc(self, amount: float = 1.0, **labels) -> None:
        if self.enabled:
            self.labels(**labels).inc(amount)

    def value(self, **labels) -> float:
        return self.labels(**labels).value

    def count(self, **labels) -> int:
        """One series' total, or every series' summed (no ``labels``)."""
        return int(sum(child.value for child in self._counted(labels)))

    def _samples(self):
        for key, child in self._snapshot():
            yield self.name, self.labelnames, key, (), child.value


class Gauge(_Metric):
    """A point-in-time value; callback gauges are read at scrape time."""

    kind = "gauge"

    class _Child:
        __slots__ = ("_lock", "_value", "_callback")

        def __init__(self, callback=None):
            self._lock = threading.Lock()
            self._value = 0.0
            self._callback = callback

        def set(self, value: float) -> None:
            with self._lock:
                self._value = float(value)

        def inc(self, amount: float = 1.0) -> None:
            with self._lock:
                self._value += amount

        def dec(self, amount: float = 1.0) -> None:
            self.inc(-amount)

        def value(self) -> float:
            if self._callback is not None:
                try:
                    return float(self._callback())
                except Exception:
                    # a scrape must never die because one gauge's source
                    # (e.g. a closed SQLite handle mid-shutdown) is gone
                    return float("nan")
            return self._value

    def __init__(self, name, help_text, labelnames=(), callback=None):
        super().__init__(name, help_text, labelnames)
        if callback is not None and labelnames:
            raise ValueError("callback gauges cannot declare labels")
        self._callback = callback

    def _make_child(self):
        return Gauge._Child(self._callback)

    def set(self, value: float, **labels) -> None:
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        self.labels(**labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        return self.labels(**labels).value()

    def _samples(self):
        if self._callback is not None and not self._children:
            self._default_child()  # materialize so the scrape sees it
        for key, child in self._snapshot():
            yield self.name, self.labelnames, key, (), child.value()


class Histogram(_Metric):
    """Fixed-bucket distribution; quantiles derive from bucket counts."""

    kind = "histogram"

    class _Child:
        __slots__ = ("_lock", "_uppers", "counts", "total", "sum")

        def __init__(self, uppers):
            self._lock = threading.Lock()
            self._uppers = uppers
            # one slot per finite bucket plus the +Inf overflow bucket
            self.counts = [0] * (len(uppers) + 1)
            self.total = 0
            self.sum = 0.0

        def observe(self, value: float) -> None:
            value = float(value)
            # linear scan is fine: bucket lists are small and the scan is
            # branch-predictable; bisect would pay function-call overhead
            index = len(self._uppers)
            for pos, upper in enumerate(self._uppers):
                if value <= upper:
                    index = pos
                    break
            with self._lock:
                self.counts[index] += 1
                self.total += 1
                self.sum += value

        def snapshot(self):
            with self._lock:
                return list(self.counts), self.total, self.sum

        def quantile(self, q: float) -> float:
            counts, total, _ = self.snapshot()
            return quantile_from_buckets(self._uppers, counts, total, q)

    def __init__(self, name, help_text, labelnames=(), buckets=None):
        super().__init__(name, help_text, labelnames)
        uppers = tuple(
            float(b) for b in (
                DEFAULT_LATENCY_BUCKETS if buckets is None else buckets
            )
        )
        if not uppers:
            raise ValueError("histogram needs at least one bucket")
        if list(uppers) != sorted(set(uppers)):
            raise ValueError(f"buckets must strictly increase: {uppers}")
        if uppers[-1] == math.inf:
            uppers = uppers[:-1]  # +Inf is implicit
        self.buckets = uppers

    def _make_child(self):
        return Histogram._Child(self.buckets)

    def observe(self, value: float, **labels) -> None:
        if self.enabled:
            self.labels(**labels).observe(value)

    def quantile(self, q: float, **labels) -> float:
        return self.labels(**labels).quantile(q)

    def count(self, **labels) -> int:
        """One series' observations, or every series' (no ``labels``)."""
        return sum(child.total for child in self._counted(labels))

    def _samples(self):
        for key, child in self._snapshot():
            counts, total, total_sum = child.snapshot()
            cumulative = 0
            for upper, count in zip(self.buckets, counts):
                cumulative += count
                yield (
                    self.name + "_bucket", self.labelnames, key,
                    (("le", _format_value(upper)),), cumulative,
                )
            yield (
                self.name + "_bucket", self.labelnames, key,
                (("le", "+Inf"),), total,
            )
            yield self.name + "_sum", self.labelnames, key, (), total_sum
            yield self.name + "_count", self.labelnames, key, (), total


def quantile_from_buckets(uppers, counts, total, q) -> float:
    """The ``q``-quantile implied by cumulative-able bucket ``counts``.

    Log-linear interpolation inside the target bucket (buckets are
    log-spaced, so interpolating in log space matches the layout).
    Observations in the overflow bucket clamp to the last finite edge —
    the histogram genuinely cannot resolve beyond it.  ``nan`` when
    empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if total <= 0:
        return float("nan")
    rank = q * total
    cumulative = 0
    for pos, upper in enumerate(uppers):
        prev_cumulative = cumulative
        cumulative += counts[pos]
        if cumulative >= rank and counts[pos] > 0:
            lower = uppers[pos - 1] if pos > 0 else None
            if lower is None or lower <= 0:
                return upper
            fraction = (rank - prev_cumulative) / counts[pos]
            return math.exp(
                math.log(lower)
                + fraction * (math.log(upper) - math.log(lower))
            )
    return uppers[-1] if uppers else float("nan")


class MetricsRegistry:
    """A named collection of instruments with text exposition.

    ``get_or_create`` semantics: asking twice for the same name returns
    the same instrument (kind and label names must agree), so callers
    never coordinate registration order.  ``enabled=False`` is the off
    switch, and the registry owns it: its counters' ``inc`` and its
    histograms' ``observe`` return at once, so nothing is recorded, no
    series renders and every :meth:`counts` reads 0.  Gauges are state,
    not counts, and still read.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: dict = {}

    def _get_or_create(self, cls, name, help_text, labelnames, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise ValueError(
                        f"metric {name} already registered as "
                        f"{metric.kind}, not {cls.kind}"
                    )
                if metric.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name} already registered with labels "
                        f"{list(metric.labelnames)}"
                    )
                return metric
            metric = cls(name, help_text, labelnames, **kwargs)
            metric.enabled = self.enabled
            self._metrics[name] = metric
            return metric

    def counter(self, name, help_text="", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(self, name, help_text="", labelnames=(), callback=None) -> Gauge:
        return self._get_or_create(
            Gauge, name, help_text, labelnames, callback=callback
        )

    def histogram(
        self, name, help_text="", labelnames=(), buckets=None
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    def get(self, name):
        """The registered instrument, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def counts(self, series: dict) -> "_CountView":
        """A live read-only ``{key: count}``: ``series`` maps each key to
        the counter or histogram counting it — ``name`` (the sum over its
        label sets) or ``(name, labels)`` — read at each lookup."""
        return _CountView(self, series)

    def render(self) -> str:
        """The registry as Prometheus text format (version 0.0.4)."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines = []
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for sample, labelnames, labelvalues, extra, value in (
                metric._samples()
            ):
                labels = _render_labels(labelnames, labelvalues, extra)
                lines.append(f"{sample}{labels} {_format_value(value)}")
        return "\n".join(lines) + "\n"


class _CountView(Mapping):
    def __init__(self, registry: MetricsRegistry, series: dict):
        self._registry, self._series = registry, series

    def __getitem__(self, key) -> int:
        spec = self._series[key]
        name, labels = (spec, {}) if isinstance(spec, str) else spec
        return self._registry.get(name).count(**labels)

    def __iter__(self):
        return iter(self._series)

    def __len__(self) -> int:
        return len(self._series)


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"'
)


def parse_prometheus_text(text: str) -> dict:
    """Parse Prometheus text format back into samples.

    Returns ``{(name, ((label, value), ...)): float}`` with label pairs
    sorted — the inverse of :meth:`MetricsRegistry.render`, used by the
    benches, CI smoke, and the exposition round-trip test.  Raises
    ``ValueError`` on any non-comment line that is not a valid sample.
    """
    samples: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"invalid Prometheus sample line: {line!r}")
        labels = []
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(raw_labels):
                value = (
                    pair.group("value")
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                labels.append((pair.group("name"), value))
                consumed += len(pair.group(0))
            stripped = raw_labels.replace(",", "").replace(" ", "")
            if consumed < len(stripped):
                raise ValueError(f"invalid label set in line: {line!r}")
        raw_value = match.group("value")
        value = {
            "+Inf": math.inf, "-Inf": -math.inf, "NaN": math.nan,
        }.get(raw_value)
        if value is None:
            value = float(raw_value)
        samples[(match.group("name"), tuple(sorted(labels)))] = value
    return samples
