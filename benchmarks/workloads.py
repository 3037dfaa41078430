"""Bench-scale versions of the paper's four workloads (cached).

Sizes are chosen so the full benchmark suite regenerates every table and
figure in minutes on a laptop while preserving the statistical structure
the estimators react to.  The ``seed`` values are fixed: every bench run
reproduces the same numbers in ``benchmarks/results/`` exactly (see the
README's "Paper experiments" section).
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.dataset import MultiAssignmentDataset
from repro.datasets.ip_traffic import (
    IPTraceConfig,
    generate_ip_trace,
    ip_colocated_dataset,
    ip_dispersed_dataset,
)
from repro.datasets.netflix import NetflixConfig, netflix_monthly_dataset
from repro.datasets.stocks import StocksConfig, stocks_daily_dataset

K_VALUES = (10, 40, 160)
RUNS = 10

IP1_CONFIG = IPTraceConfig(
    n_periods=2, flows_per_period=6000, n_dest_ips=900, n_src_ips=2500
)
IP2_CONFIG = IPTraceConfig(
    n_periods=4, flows_per_period=5000, n_dest_ips=800, n_src_ips=2200
)
NETFLIX_CONFIG = NetflixConfig(n_movies=1200)
STOCKS_CONFIG = StocksConfig(n_tickers=900, n_days=10)


@lru_cache(maxsize=None)
def ip1_trace():
    return generate_ip_trace(IP1_CONFIG, seed=101)


@lru_cache(maxsize=None)
def ip2_trace():
    return generate_ip_trace(IP2_CONFIG, seed=202)


@lru_cache(maxsize=None)
def ip1_dispersed(key_kind: str, weight: str) -> MultiAssignmentDataset:
    """IP dataset1 substitute: 2 periods, per-period ``weight`` per key."""
    return ip_dispersed_dataset(ip1_trace(), key_kind, weight)


@lru_cache(maxsize=None)
def ip2_dispersed(key_kind: str, n_hours: int) -> MultiAssignmentDataset:
    """IP dataset2 substitute: first ``n_hours`` hourly byte assignments."""
    return ip_dispersed_dataset(
        ip2_trace(), key_kind, "bytes", periods=range(n_hours)
    )


@lru_cache(maxsize=None)
def ip1_colocated(key_kind: str) -> MultiAssignmentDataset:
    return ip_colocated_dataset(ip1_trace(), key_kind)


@lru_cache(maxsize=None)
def ip2_colocated(key_kind: str) -> MultiAssignmentDataset:
    """Hour 3 of IP dataset2, as in the paper's colocated experiments."""
    return ip_colocated_dataset(ip2_trace(), key_kind, period=2)


@lru_cache(maxsize=None)
def netflix(n_months: int = 12) -> MultiAssignmentDataset:
    dataset = netflix_monthly_dataset(NETFLIX_CONFIG, seed=303)
    if n_months == 12:
        return dataset
    return dataset.restrict(dataset.assignments[:n_months])


@lru_cache(maxsize=None)
def stocks_dispersed(attribute: str, n_days: int) -> MultiAssignmentDataset:
    return stocks_daily_dataset(
        STOCKS_CONFIG, seed=404, mode="dispersed", attribute=attribute,
        days=list(range(n_days)),
    )


@lru_cache(maxsize=None)
def stocks_colocated(day: int = 0) -> MultiAssignmentDataset:
    return stocks_daily_dataset(STOCKS_CONFIG, seed=404, mode="colocated",
                                day=day)
