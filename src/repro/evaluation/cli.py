"""Command-line interface for the experiment harness.

Run any paper experiment by id on a chosen workload:

    python -m repro.evaluation F3 --workload ip --k 10 40 160 --runs 10
    python -m repro.evaluation F9 --workload stocks
    python -m repro.evaluation T2 --workload netflix
    python -m repro.evaluation --list

Workloads are laptop-scale synthetic substitutes (see the README's "Paper
experiments" section); the ``--scale`` flag multiplies their key counts
for heavier runs.
"""

from __future__ import annotations

import argparse

from repro.cliutil import FAMILY, add_flags, flag, run
from repro.core.dataset import MultiAssignmentDataset
from repro.datasets.ip_traffic import (
    IPTraceConfig,
    generate_ip_trace,
    ip_dispersed_dataset,
    ip_colocated_dataset,
)
from repro.datasets.netflix import NetflixConfig, netflix_monthly_dataset
from repro.datasets.stocks import StocksConfig, stocks_daily_dataset
from repro.evaluation import experiments as exp

__all__ = ["main", "build_parser"]


def _workload(name: str, scale: float, mode: str) -> MultiAssignmentDataset:
    if name in ("ip", "ip4"):
        trace = generate_ip_trace(IPTraceConfig(
            n_periods=2 if name == "ip" else 4,
            flows_per_period=int(6000 * scale),
            n_dest_ips=int(900 * scale),
            n_src_ips=int(2500 * scale),
        ), seed=101)
        if mode == "dispersed":
            return ip_dispersed_dataset(trace, "destip", "bytes")
        return ip_colocated_dataset(
            trace, "destip", period=None if name == "ip" else 2
        )
    if name == "netflix":
        return netflix_monthly_dataset(
            NetflixConfig(n_movies=int(1200 * scale)), seed=303
        )
    if name == "stocks":
        config = StocksConfig(n_tickers=int(900 * scale), n_days=10)
        if mode == "dispersed":
            return stocks_daily_dataset(
                config, seed=404, mode="dispersed", attribute="volume",
                days=list(range(5)),
            )
        return stocks_daily_dataset(config, seed=404, mode="colocated", day=0)
    raise ValueError(f"unknown workload {name!r}")


def _totals(dataset, *_):
    sets = [tuple(dataset.assignments[:2]), tuple(dataset.assignments)]
    return exp.table_totals(dataset, sets, "T2")


def _variance_vs_size(dataset, *rest):
    return exp.experiment_variance_vs_size(
        dataset, dataset.assignments[0], *rest
    )


def _jaccard(dataset, k_values, runs, _family, seed):
    return exp.experiment_jaccard(
        dataset, dataset.assignments[0], dataset.assignments[1],
        k=max(k_values), runs=runs, seed=seed,
    )


#: id -> (summary, the information model its dataset is built in,
#: run(dataset, k_values, runs, family, seed))
_EXPERIMENTS = {
    "T2": ("exact totals and min/max/L1 norms", "dispersed", _totals),
    "F3": ("coordinated vs independent min estimator variance ratio",
           "dispersed", exp.experiment_coord_vs_indep),
    "F4": ("dispersed min/max/L1 vs single-assignment estimators",
           "dispersed", exp.experiment_dispersed_estimators),
    "F8": ("s-set vs l-set estimator variance ratio",
           "dispersed", exp.experiment_sset_vs_lset),
    "F9": ("colocated inclusive vs plain estimator variance ratio",
           "colocated", exp.experiment_colocated_inclusive),
    "F12": ("variance vs combined summary size",
            "colocated", _variance_vs_size),
    "F17": ("sharing index: coordinated vs independent",
            "colocated", exp.experiment_sharing_index),
    "A2": ("ablation: weighted vs unweighted coordination",
           "colocated", exp.experiment_unweighted_baseline),
    "THM41": ("weighted Jaccard via k-mins match fraction",
              "dispersed", _jaccard),
}


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list or not args.experiment:
        for eid, (summary, _mode, _run) in sorted(_EXPERIMENTS.items()):
            print(f"  {eid:>6}  {summary}")
        return 0
    if args.experiment not in _EXPERIMENTS:
        known = ", ".join(sorted(_EXPERIMENTS))
        raise SystemExit(
            f"unknown experiment {args.experiment!r}; known: {known}"
        )
    _summary, mode, experiment = _EXPERIMENTS[args.experiment]
    result = experiment(
        _workload(args.workload, args.scale, mode), list(args.k), args.runs,
        args.family, args.seed,
    )
    print(result.render())
    return 0


_FLAGS = (
    flag("experiment", nargs="?", help="experiment id (see --list)"),
    flag("--list", action="store_true", help="list experiment ids and exit"),
    flag("--workload", default="ip",
         choices=["ip", "ip4", "netflix", "stocks"]),
    flag("--k", type=int, nargs="+", default=[10, 40, 160]),
    flag("--runs", type=int, default=10),
    FAMILY,
    flag("--seed", type=int, default=0),
    flag("--scale", type=float, default=1.0,
         help="multiply workload key counts"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation",
        description="Regenerate paper experiments on synthetic workloads.",
    )
    add_flags(parser, _FLAGS)
    parser.set_defaults(func=_cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(build_parser(), argv)

