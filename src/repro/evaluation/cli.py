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
import sys
from typing import Callable

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


def _ip_trace(scale: float, periods: int):
    config = IPTraceConfig(
        n_periods=periods,
        flows_per_period=int(6000 * scale),
        n_dest_ips=int(900 * scale),
        n_src_ips=int(2500 * scale),
    )
    return generate_ip_trace(config, seed=101)


def _workload(name: str, scale: float, mode: str) -> MultiAssignmentDataset:
    if name == "ip":
        trace = _ip_trace(scale, periods=2 if mode == "dispersed" else 2)
        if mode == "dispersed":
            return ip_dispersed_dataset(trace, "destip", "bytes")
        return ip_colocated_dataset(trace, "destip")
    if name == "ip4":
        trace = _ip_trace(scale, periods=4)
        if mode == "dispersed":
            return ip_dispersed_dataset(trace, "destip", "bytes")
        return ip_colocated_dataset(trace, "destip", period=2)
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


def _dispatch(
    experiment: str,
    dataset: MultiAssignmentDataset,
    k_values: list[int],
    runs: int,
    family: str,
    seed: int,
) -> "exp.ExperimentResult":
    table_sets = [tuple(dataset.assignments[:2]), tuple(dataset.assignments)]
    registry: dict[str, Callable[[], exp.ExperimentResult]] = {
        "T2": lambda: exp.table_totals(dataset, table_sets, "T2"),
        "F3": lambda: exp.experiment_coord_vs_indep(
            dataset, k_values, runs, family, seed),
        "F4": lambda: exp.experiment_dispersed_estimators(
            dataset, k_values, runs, family, seed),
        "F8": lambda: exp.experiment_sset_vs_lset(
            dataset, k_values, runs, family, seed),
        "F9": lambda: exp.experiment_colocated_inclusive(
            dataset, k_values, runs, family, seed),
        "F12": lambda: exp.experiment_variance_vs_size(
            dataset, dataset.assignments[0], k_values, runs, family, seed),
        "F17": lambda: exp.experiment_sharing_index(
            dataset, k_values, runs, family, seed),
        "A2": lambda: exp.experiment_unweighted_baseline(
            dataset, k_values, runs, family, seed),
        "THM41": lambda: exp.experiment_jaccard(
            dataset, dataset.assignments[0], dataset.assignments[1],
            k=max(k_values), runs=runs, seed=seed),
    }
    if experiment not in registry:
        known = ", ".join(sorted(registry))
        raise SystemExit(f"unknown experiment {experiment!r}; known: {known}")
    return registry[experiment]()


#: experiments that require the colocated information model
_COLOCATED_EXPERIMENTS = {"F9", "F12", "F17", "A2"}

_EXPERIMENT_SUMMARIES = {
    "T2": "exact totals and min/max/L1 norms",
    "F3": "coordinated vs independent min estimator variance ratio",
    "F4": "dispersed min/max/L1 vs single-assignment estimators",
    "F8": "s-set vs l-set estimator variance ratio",
    "F9": "colocated inclusive vs plain estimator variance ratio",
    "F12": "variance vs combined summary size",
    "F17": "sharing index: coordinated vs independent",
    "A2": "ablation: weighted vs unweighted coordination",
    "THM41": "weighted Jaccard via k-mins match fraction",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation",
        description="Regenerate paper experiments on synthetic workloads.",
    )
    parser.add_argument("experiment", nargs="?",
                        help="experiment id (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--workload", default="ip",
                        choices=["ip", "ip4", "netflix", "stocks"])
    parser.add_argument("--k", type=int, nargs="+", default=[10, 40, 160])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--family", default="ipps", choices=["ipps", "exp"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply workload key counts")
    parser.add_argument("--executor", default=None, metavar="SPEC",
                        help="parallelize experiment runs: 'serial' "
                             "(default), 'thread[:workers]', or "
                             "'process[:workers]' (process mode "
                             "needs picklable tasks; prefer thread here). "
                             "Results are bit-identical across modes.")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list or not args.experiment:
        for eid, summary in sorted(_EXPERIMENT_SUMMARIES.items()):
            print(f"  {eid:>6}  {summary}")
        return 0
    if args.executor is not None:
        from repro.engine.parallel import parse_executor_spec
        from repro.evaluation.runner import set_default_executor

        try:
            parse_executor_spec(args.executor)  # refuse before any work
        except ValueError as err:
            raise SystemExit(f"error: {err}") from None
        set_default_executor(args.executor)
    mode = "colocated" if args.experiment in _COLOCATED_EXPERIMENTS else "dispersed"
    dataset = _workload(args.workload, args.scale, mode)
    result = _dispatch(
        args.experiment, dataset, list(args.k), args.runs, args.family,
        args.seed,
    )
    print(result.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
