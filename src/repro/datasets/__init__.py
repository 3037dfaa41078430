"""Synthetic workload generators standing in for the paper's data sets.

The paper evaluates on proprietary IP packet traces, the Netflix Prize
ratings, and October-2008 stock quotes — none of which are available here.
Each generator reproduces the *statistical structure the estimators react
to* (weight skew, cross-assignment correlation, key churn); the README's
"Paper experiments" section lists what each stand-in keeps of its data
set.

All generators are deterministic given their ``seed``.
"""

from repro.datasets.synthetic import (
    correlated_zipf_dataset,
    zipf_weights,
)
from repro.datasets.ip_traffic import (
    IPTraceConfig,
    generate_ip_trace,
    ip_colocated_dataset,
    ip_dispersed_dataset,
)
from repro.datasets.netflix import NetflixConfig, netflix_monthly_dataset
from repro.datasets.stocks import StocksConfig, stocks_daily_dataset

__all__ = [
    "zipf_weights",
    "correlated_zipf_dataset",
    "IPTraceConfig",
    "generate_ip_trace",
    "ip_colocated_dataset",
    "ip_dispersed_dataset",
    "NetflixConfig",
    "netflix_monthly_dataset",
    "StocksConfig",
    "stocks_daily_dataset",
]
