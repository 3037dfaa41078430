"""Golden regression snapshots of estimator totals.

Fixed-seed numeric snapshots of every estimator family on one small
synthetic dataset, committed as expected values.  A future refactor of the
kernels, the views cache, the rank draws, or the summary builders that
silently changes any estimate will fail here even if unbiasedness-style
statistical tests keep passing.

The snapshots were produced by the vectorized kernels, which
tests/test_kernel_parity.py proves identical to its in-file oracle.  If a deliberate semantic change shifts
them, regenerate with the script in this file's docstring history (build
the same summaries and print ``engine.estimate`` per key below).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.core.summary import build_bottomk_summary
from repro.engine.queries import QueryEngine, jaccard_from_summary
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import get_rank_family

NAMES = ("h1", "h2", "h3")
DRAW_SEED = 777
K = 8

#: estimator totals on the fixed dataset/draw; exact to 1e-12 relative.
GOLDEN = {
    "coloc/single[h1]": 355.1543954119921,
    "coloc/single[h2]": 381.56646651464075,
    "coloc/single[h3]": 811.3595347715398,
    "coloc/min": 63.39011542196526,
    "coloc/max": 1203.6176548822934,
    "coloc/l1": 1140.2275394603282,
    "coloc/lth2": 281.07262639391394,
    "coloc/generic/max": 1219.2331009914892,
    "disp/sset-min": 54.49173624401771,
    "disp/lset-min": 31.198065659925525,
    "disp/sset-max": 1219.2331009914892,
    "disp/l1-l": 1188.0350353315634,
    "disp/lth2-lset": 260.5733485799668,
    "disp/rc[h1]": 331.256799442143,
    "disp/rc[h2]": 328.2516429880126,
    "disp/rc[h3]": 824.7570927613158,
    "disp/jaccard(h1,h2)": 0.10709574437670998,
    "ind-exp/lset-min(h1,h2)": 52.95822618110124,
    "ind-exp/sset-min(h1,h2)": 57.76264285301187,
    "exp-coloc/min": 75.85623422573626,
    "exp-coloc/max": 1190.3879165869573,
}


def make_weights() -> np.ndarray:
    rng = np.random.default_rng(12345)
    weights = rng.pareto(1.3, (30, 3)) * 10.0 + 0.1
    weights[rng.random((30, 3)) < 0.2] = 0.0
    dead = ~(weights > 0).any(axis=1)
    weights[dead, 0] = 1.0
    return weights


def summary_for(method: str, family: str, mode: str):
    weights = make_weights()
    family_obj = get_rank_family(family)
    rng = np.random.default_rng(DRAW_SEED)
    draw = get_rank_method(method).draw(family_obj, weights, rng)
    return build_bottomk_summary(
        weights, draw, K, list(NAMES), family_obj, mode=mode
    )


def check(actual: float, key: str) -> None:
    assert actual == pytest.approx(GOLDEN[key], rel=1e-12, abs=1e-12), key


def test_dataset_itself_is_stable():
    """The exact norms pin the synthetic dataset generation."""
    weights = make_weights()
    assert weights.min(axis=1).sum() == pytest.approx(
        54.26962428216312, rel=1e-12
    )
    assert weights.max(axis=1).sum() == pytest.approx(
        1064.5138872846521, rel=1e-12
    )


def test_colocated_snapshots():
    engine = QueryEngine(summary_for("shared_seed", "ipps", "colocated"))
    for b in NAMES:
        check(
            engine.estimate(AggregationSpec("single", (b,)), "colocated"),
            f"coloc/single[{b}]",
        )
    for function in ("min", "max", "l1"):
        check(
            engine.estimate(AggregationSpec(function, NAMES), "colocated"),
            f"coloc/{function}",
        )
    check(
        engine.estimate(
            AggregationSpec("lth_largest", NAMES, ell=2), "colocated"
        ),
        "coloc/lth2",
    )
    check(
        engine.estimate(AggregationSpec("max", NAMES), "generic"),
        "coloc/generic/max",
    )


def test_dispersed_snapshots():
    summary = summary_for("shared_seed", "ipps", "dispersed")
    engine = QueryEngine(summary)
    check(engine.estimate(AggregationSpec("min", NAMES), "sset"),
          "disp/sset-min")
    check(engine.estimate(AggregationSpec("min", NAMES), "lset"),
          "disp/lset-min")
    check(engine.estimate(AggregationSpec("max", NAMES), "sset"),
          "disp/sset-max")
    check(engine.estimate(AggregationSpec("l1", NAMES), "l1-l"),
          "disp/l1-l")
    check(
        engine.estimate(AggregationSpec("lth_largest", NAMES, ell=2), "lset"),
        "disp/lth2-lset",
    )
    for b in NAMES:
        check(
            engine.estimate(AggregationSpec("single", (b,)), "plain_rc"),
            f"disp/rc[{b}]",
        )
    check(jaccard_from_summary(summary, ("h1", "h2")), "disp/jaccard(h1,h2)")


def test_independent_exp_snapshots():
    engine = QueryEngine(summary_for("independent", "exp", "dispersed"))
    pair = ("h1", "h2")
    check(engine.estimate(AggregationSpec("min", pair), "lset"),
          "ind-exp/lset-min(h1,h2)")
    check(engine.estimate(AggregationSpec("min", pair), "sset"),
          "ind-exp/sset-min(h1,h2)")


def test_exp_colocated_snapshots():
    engine = QueryEngine(summary_for("shared_seed", "exp", "colocated"))
    check(engine.estimate(AggregationSpec("min", NAMES), "colocated"),
          "exp-coloc/min")
    check(engine.estimate(AggregationSpec("max", NAMES), "colocated"),
          "exp-coloc/max")


def test_reference_estimators_match_snapshots_too():
    """The reference path hits the same goldens (belt and braces)."""
    from repro.estimators.dispersed import lset_estimator, sset_estimator

    summary = summary_for("shared_seed", "ipps", "dispersed")
    check(sset_estimator(summary, AggregationSpec("min", NAMES)).total(),
          "disp/sset-min")
    check(lset_estimator(summary, AggregationSpec("min", NAMES)).total(),
          "disp/lset-min")
