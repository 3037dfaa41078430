"""Property suite: the shipped estimator kernels == the per-spec oracle.

Each estimator over a summary ships once, as the dense kernel in its
paper-section module (:mod:`repro.estimators.dispersed` / ``colocated`` /
``rank_conditioning`` / ``horvitz_thompson``).  This file keeps an
independent, straightforward per-spec implementation of every one of them
(the oracle below: each call recomputes every intermediate from the
summary matrices, no views cache) and checks that the kernels produce
numerically identical adjusted weights (exact, or within 1e-9 relative)
across rank families (EXP/IPPS), rank-assignment methods,
colocated/dispersed modes, and degenerate inputs (empty summaries, single
keys, subsets with no known weights, k ≥ n, Poisson summaries with k = 0).

Where the oracle rejects a configuration (e.g. l-set without seeds), the
kernel must reject it too.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.aggregates import AggregationSpec
from repro.core.summary import (
    MultiAssignmentSummary,
    build_bottomk_summary,
    build_poisson_summary,
    build_summary_from_sketches,
)
from repro.estimators import (
    AdjustedWeights,
    colocated_kernel,
    generic_kernel,
    ht_kernel,
    l1_kernel,
    lset_kernel,
    plain_rc_kernel,
    sset_kernel,
)
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import get_rank_family
from repro.sampling.bottomk import BottomKStreamSampler
from repro.sampling.poisson import calibrate_tau


# ---------------------------------------------------------------------------
# the oracle: per-spec reference estimators
# ---------------------------------------------------------------------------

_NEG_INF = -math.inf


def combine_difference(
    upper: AdjustedWeights, lower: AdjustedWeights, label: str = ""
) -> AdjustedWeights:
    """Adjusted weights for ``f = f_upper − f_lower`` (Eq. (17)).

    Keys only in ``upper`` keep their value; keys only in ``lower`` get the
    negated value.
    """
    dense: dict[int, float] = {}
    for pos, val in zip(upper.positions.tolist(), upper.values):
        dense[pos] = float(val)
    for pos, val in zip(lower.positions.tolist(), lower.values):
        dense[pos] = dense.get(pos, 0.0) - float(val)
    positions = np.array(sorted(dense), dtype=np.int64)
    values = np.array([dense[pos] for pos in positions], dtype=float)
    return AdjustedWeights(positions, values, label or f"{upper.label}-{lower.label}")


def _resolve_ell(spec: AggregationSpec) -> int:
    if spec.function == "l1":
        raise ValueError("the L1 aggregate is not top-ℓ dependent")
    return spec.dependence_ell


def _member_weights(
    summary: MultiAssignmentSummary, cols: list[int]
) -> np.ndarray:
    """Weights over the R columns with unknown entries set to −inf."""
    weights = summary.weights[:, cols]
    member = summary.member[:, cols]
    return np.where(member & ~np.isnan(weights), weights, _NEG_INF)


def _f_from_topell(
    sorted_desc: np.ndarray, ell: int, spec: AggregationSpec
) -> np.ndarray:
    if spec.function in ("max", "single"):
        return sorted_desc[:, 0]
    if spec.function == "min":
        return sorted_desc[:, ell - 1]
    if spec.function == "lth_largest":
        return sorted_desc[:, ell - 1]
    raise ValueError(f"{spec.function!r} is not a top-ℓ dependent aggregate")


def sset_estimator(summary, spec, label=""):
    """s-set template, Section 7.1 (independent ranks: Section 7.1.1)."""
    ell = _resolve_ell(spec)
    cols = summary.columns(list(spec.assignments))
    if not summary.consistent and ell != len(cols):
        raise ValueError("s-set over independent sketches needs ℓ = |R|")
    theta = summary.thresholds[:, cols]
    theta_min = theta.min(axis=1)
    ranks = summary.ranks[:, cols]
    in_prime = ranks < theta_min[:, None]
    counts = in_prime.sum(axis=1)
    weights = np.where(in_prime, _member_weights(summary, cols), _NEG_INF)
    sorted_desc = -np.sort(-weights, axis=1)
    selected = counts >= ell
    w_ellth = sorted_desc[:, ell - 1]
    if summary.consistent:
        probabilities = summary.family.cdf_matrix(
            np.where(selected, w_ellth, 0.0), theta_min
        )
    else:
        per_b = summary.family.cdf_matrix(
            np.where(selected[:, None], weights, 0.0), theta_min[:, None]
        )
        probabilities = np.prod(per_b, axis=1)
    f_values = np.where(selected, _f_from_topell(sorted_desc, ell, spec), 0.0)
    values = np.divide(
        f_values,
        probabilities,
        out=np.zeros_like(f_values),
        where=(probabilities > 0.0) & selected,
    )
    rows = np.flatnonzero(selected)
    return AdjustedWeights(summary.positions[rows], values[rows], label)


def _lset_seed_conditions(summary, cols, top_mask, w_ellth, candidate):
    """``u^(b)(i) < F_{w_ℓth}(θ_ib)`` for every b outside the top-ℓ."""
    if summary.seeds is None:
        raise ValueError("the l-set estimator needs known seeds")
    theta = summary.thresholds[:, cols]
    caps = summary.family.cdf_matrix(
        np.where(candidate[:, None], np.maximum(w_ellth[:, None], 0.0), 0.0),
        theta,
    )
    if summary.seeds.ndim == 1:
        seed_matrix = np.broadcast_to(
            summary.seeds[:, None], (summary.n_union, len(cols))
        )
    else:
        seed_matrix = summary.seeds[:, cols]
    below = seed_matrix < caps
    ok = below | top_mask
    return candidate & ok.all(axis=1)


def lset_estimator(summary, spec, label=""):
    """l-set template, Section 7.2, Eq. (13)/(14)."""
    ell = _resolve_ell(spec)
    cols = summary.columns(list(spec.assignments))
    m = len(cols)
    member = summary.member[:, cols]
    counts = member.sum(axis=1)
    candidate = counts >= ell
    weights = _member_weights(summary, cols)
    order = np.argsort(-weights, axis=1, kind="stable")
    sorted_desc = np.take_along_axis(weights, order, axis=1)
    w_ellth = sorted_desc[:, ell - 1]
    top_mask = np.zeros_like(member)
    np.put_along_axis(top_mask, order[:, :ell], True, axis=1)
    top_mask &= member
    if ell < m:
        selected = _lset_seed_conditions(
            summary, cols, top_mask, w_ellth, candidate
        )
    else:
        selected = candidate
    theta = summary.thresholds[:, cols]
    safe_w = np.where(top_mask, np.where(weights > _NEG_INF, weights, 0.0), 0.0)
    member_terms = summary.family.cdf_matrix(safe_w, theta)
    cap_terms = summary.family.cdf_matrix(
        np.maximum(np.where(selected[:, None], w_ellth[:, None], 0.0), 0.0), theta
    )
    if summary.method_name == "shared_seed":
        per_b = np.where(top_mask, member_terms, cap_terms)
        probabilities = per_b.min(axis=1)
    elif summary.method_name == "independent":
        per_b = np.where(top_mask, member_terms, cap_terms)
        probabilities = np.prod(per_b, axis=1)
    elif summary.consistent:
        raise ValueError("no closed-form l-set probabilities for this method")
    else:
        raise ValueError(f"unknown rank method {summary.method_name!r}")
    f_values = np.where(selected, _f_from_topell(sorted_desc, ell, spec), 0.0)
    values = np.divide(
        f_values,
        probabilities,
        out=np.zeros_like(f_values),
        where=(probabilities > 0.0) & selected,
    )
    rows = np.flatnonzero(selected)
    return AdjustedWeights(summary.positions[rows], values[rows], label)


def l1_estimator(summary, assignments, min_variant="l", label=""):
    """``a^(max) − a^(min)``, Eq. (17)."""
    assignments = tuple(assignments)
    if min_variant not in ("s", "l"):
        raise ValueError(f"min_variant must be 's' or 'l', got {min_variant!r}")
    a_max = sset_estimator(summary, AggregationSpec("max", assignments))
    min_spec = AggregationSpec("min", assignments)
    if min_variant == "s":
        a_min = sset_estimator(summary, min_spec)
    else:
        a_min = lset_estimator(summary, min_spec)
    return combine_difference(a_max, a_min, label or f"l1-{min_variant}")


def _require_colocated(summary) -> None:
    if summary.mode != "colocated":
        raise ValueError("inclusive colocated estimators need full weight vectors")


def _independent_differences_probabilities(summary) -> np.ndarray:
    """Pr[union inclusion] for independent-differences EXP ranks:
    ``p = Σ_ℓ Π_{j<ℓ}(1 − F_{Δ_j}(M_j)) · F_{Δ_ℓ}(M_ℓ)``."""
    weights = summary.weights
    thresholds = summary.thresholds
    order = np.argsort(weights, axis=1, kind="stable")
    sorted_w = np.take_along_axis(weights, order, axis=1)
    sorted_theta = np.take_along_axis(thresholds, order, axis=1)
    suffix_max = np.maximum.accumulate(sorted_theta[:, ::-1], axis=1)[:, ::-1]
    increments = np.diff(sorted_w, axis=1, prepend=0.0)
    fire = summary.family.cdf_matrix(increments, suffix_max)
    survive = np.cumprod(1.0 - fire, axis=1)
    shifted = np.concatenate(
        [np.ones((len(fire), 1)), survive[:, :-1]], axis=1
    )
    return (shifted * fire).sum(axis=1)


def inclusion_probabilities(summary) -> np.ndarray:
    """Eq. (4): Eq. (5) independent, Eq. (6) shared-seed, Pr[A_ℓ] idiff."""
    _require_colocated(summary)
    per_assignment = summary.family.cdf_matrix(summary.weights, summary.thresholds)
    if summary.method_name == "independent":
        return 1.0 - np.prod(1.0 - per_assignment, axis=1)
    if summary.method_name == "shared_seed":
        return per_assignment.max(axis=1)
    if summary.method_name == "independent_differences":
        if summary.family.name != "exp":
            raise ValueError("independent-differences requires EXP ranks")
        return _independent_differences_probabilities(summary)
    raise ValueError(f"unknown rank method {summary.method_name!r}")


def _f_values_from_summary(summary, spec) -> np.ndarray:
    cols = summary.columns(list(spec.assignments))
    block = summary.weights[:, cols]
    if spec.function == "single":
        return block[:, 0].copy()
    if spec.function == "min":
        return block.min(axis=1)
    if spec.function == "max":
        return block.max(axis=1)
    if spec.function == "l1":
        return block.max(axis=1) - block.min(axis=1)
    if spec.function == "lth_largest":
        return -np.sort(-block, axis=1)[:, spec.ell - 1]
    raise ValueError(f"unknown aggregate function {spec.function!r}")


def colocated_estimator(summary, spec, label=""):
    """Inclusive ``a(i) = f(i)/p(i)``, Section 6."""
    _require_colocated(summary)
    f_values = _f_values_from_summary(summary, spec)
    probabilities = inclusion_probabilities(summary)
    values = np.divide(
        f_values,
        probabilities,
        out=np.zeros_like(f_values),
        where=probabilities > 0.0,
    )
    return AdjustedWeights(summary.positions.copy(), values, label)


def generic_consistent_estimator(summary, spec, label=""):
    """Generic consistent-ranks estimator, Eq. (7)."""
    _require_colocated(summary)
    if not summary.consistent:
        raise ValueError("the generic estimator requires consistent ranks")
    cols = summary.columns(list(spec.assignments))
    theta_min = summary.thresholds[:, cols].min(axis=1)
    min_rank = summary.ranks[:, cols].min(axis=1)
    selected = min_rank < theta_min
    max_weight = summary.weights[:, cols].max(axis=1)
    probabilities = summary.family.cdf_matrix(max_weight, theta_min)
    f_values = _f_values_from_summary(summary, spec)
    values = np.divide(
        f_values,
        probabilities,
        out=np.zeros_like(f_values),
        where=(probabilities > 0.0) & selected,
    )
    rows = np.flatnonzero(selected)
    return AdjustedWeights(summary.positions[rows], values[rows], label)


def plain_rc_from_summary(summary, assignment, label=""):
    """Plain RC ``w(i)/F_{w(i)}(r_{k+1})``, Section 3."""
    if summary.kind != "bottomk":
        raise ValueError("plain RC requires a bottom-k summary")
    b = summary.columns([assignment])[0]
    rows = np.flatnonzero(summary.member[:, b])
    weights = summary.weights[rows, b]
    threshold = summary.rank_kplus1[b]
    probabilities = summary.family.cdf_array(weights, threshold)
    values = np.divide(
        weights, probabilities, out=np.zeros_like(weights),
        where=probabilities > 0.0,
    )
    return AdjustedWeights(summary.positions[rows], values, label)


def ht_from_summary(summary, assignment, label=""):
    """Horvitz–Thompson ``w(i)/F_{w(i)}(τ)``, Section 3."""
    if summary.kind != "poisson":
        raise ValueError("HT requires a Poisson summary")
    b = summary.columns([assignment])[0]
    rows = np.flatnonzero(summary.member[:, b])
    weights = summary.weights[rows, b]
    tau = summary.thresholds[rows, b]
    probabilities = summary.family.cdf_matrix(weights, tau)
    values = np.divide(
        weights, probabilities, out=np.zeros_like(weights),
        where=probabilities > 0.0,
    )
    return AdjustedWeights(summary.positions[rows], values, label)


class TestCombineDifference:
    def test_overlapping_positions_subtract(self):
        upper = AdjustedWeights(np.array([0, 1]), np.array([5.0, 3.0]), "max")
        lower = AdjustedWeights(np.array([1]), np.array([1.0]), "min")
        combined = combine_difference(upper, lower)
        assert combined.positions.tolist() == [0, 1]
        np.testing.assert_allclose(combined.values, [5.0, 2.0])

    def test_lower_only_key_goes_negative(self):
        upper = AdjustedWeights(np.array([0]), np.array([5.0]))
        lower = AdjustedWeights(np.array([2]), np.array([1.0]))
        combined = combine_difference(upper, lower)
        assert combined.values.tolist() == [5.0, -1.0]

    def test_label_defaults_to_pair(self):
        upper = AdjustedWeights(np.array([0]), np.array([1.0]), "a")
        lower = AdjustedWeights(np.array([0]), np.array([1.0]), "b")
        assert combine_difference(upper, lower).label == "a-b"


# ---------------------------------------------------------------------------
# parity: shipped kernels vs the oracle
# ---------------------------------------------------------------------------

MAX_KEYS = 18

weight_matrices = st.integers(1, 4).flatmap(
    lambda m: arrays(
        np.float64,
        st.tuples(st.integers(1, MAX_KEYS), st.just(m)),
        elements=st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
    )
)
ks = st.integers(1, 8)
seeds = st.integers(0, 2**31)
families = st.sampled_from(["ipps", "exp"])
methods = st.sampled_from(["shared_seed", "independent"])
modes = st.sampled_from(["colocated", "dispersed"])


def dense_of(summary, adjusted) -> np.ndarray:
    """Scatter sparse AdjustedWeights onto the summary's union rows."""
    row_of = {int(p): r for r, p in enumerate(summary.positions)}
    out = np.zeros(summary.n_union)
    for pos, value in zip(adjusted.positions.tolist(), adjusted.values):
        out[row_of[pos]] += value
    return out


def assert_parity(summary, reference_call, kernel_call, label) -> None:
    """Oracle and kernel agree: same values, or both reject."""
    try:
        reference = dense_of(summary, reference_call())
    except ValueError:
        with pytest.raises(ValueError):
            kernel_call()
        return
    dense = kernel_call()
    assert dense.shape == reference.shape
    np.testing.assert_allclose(
        dense, reference, rtol=1e-9, atol=1e-12,
        err_msg=f"kernel/reference mismatch for {label}",
    )


def build_summary(weights, k, seed, family_name, method, mode):
    family = get_rank_family(family_name)
    rng = np.random.default_rng(seed)
    draw = get_rank_method(method).draw(family, weights, rng)
    names = [f"w{b}" for b in range(weights.shape[1])]
    return build_bottomk_summary(weights, draw, k, names, family, mode=mode)


def all_specs(names):
    """Every aggregate spec family over full R, a sub-R, and singletons."""
    names = tuple(names)
    spec_list = [
        AggregationSpec("min", names),
        AggregationSpec("max", names),
        AggregationSpec("single", names[:1]),
    ]
    for ell in range(1, len(names) + 1):
        spec_list.append(AggregationSpec("lth_largest", names, ell=ell))
    if len(names) > 1:
        sub = names[: len(names) - 1]
        spec_list.append(AggregationSpec("min", sub))
        spec_list.append(AggregationSpec("max", sub))
    return spec_list


class TestDispersedKernels:
    @given(weights=weight_matrices, k=ks, seed=seeds, family=families,
           method=methods, mode=modes)
    @settings(deadline=None)
    def test_sset_and_lset(self, weights, k, seed, family, method, mode):
        summary = build_summary(weights, k, seed, family, method, mode)
        for spec in all_specs(summary.assignments):
            assert_parity(
                summary,
                lambda: sset_estimator(summary, spec),
                lambda: sset_kernel(summary, spec),
                f"sset {spec.function} ell={spec.ell}",
            )
            assert_parity(
                summary,
                lambda: lset_estimator(summary, spec),
                lambda: lset_kernel(summary, spec),
                f"lset {spec.function} ell={spec.ell}",
            )

    @given(weights=weight_matrices, k=ks, seed=seeds, family=families,
           method=methods, mode=modes, variant=st.sampled_from(["s", "l"]))
    @settings(deadline=None)
    def test_l1(self, weights, k, seed, family, method, mode, variant):
        summary = build_summary(weights, k, seed, family, method, mode)
        names = tuple(summary.assignments)
        spec = AggregationSpec("l1", names)
        assert_parity(
            summary,
            lambda: l1_estimator(summary, names, min_variant=variant),
            lambda: l1_kernel(summary, spec, min_variant=variant),
            f"l1-{variant}",
        )

    @given(weights=weight_matrices, k=ks, seed=seeds, family=families,
           method=methods, mode=modes)
    @settings(deadline=None)
    def test_plain_rc(self, weights, k, seed, family, method, mode):
        summary = build_summary(weights, k, seed, family, method, mode)
        for b in summary.assignments:
            assert_parity(
                summary,
                lambda: plain_rc_from_summary(summary, b),
                lambda: plain_rc_kernel(summary, b),
                f"plain_rc[{b}]",
            )


class TestColocatedKernels:
    @given(weights=weight_matrices, k=ks, seed=seeds, family=families,
           method=methods)
    @settings(deadline=None)
    def test_inclusive_and_generic(self, weights, k, seed, family, method):
        summary = build_summary(weights, k, seed, family, method, "colocated")
        for spec in all_specs(summary.assignments) + [
            AggregationSpec("l1", tuple(summary.assignments))
        ]:
            assert_parity(
                summary,
                lambda: colocated_estimator(summary, spec),
                lambda: colocated_kernel(summary, spec),
                f"colocated {spec.function} ell={spec.ell}",
            )
            assert_parity(
                summary,
                lambda: generic_consistent_estimator(summary, spec),
                lambda: generic_kernel(summary, spec),
                f"generic {spec.function} ell={spec.ell}",
            )

    @given(weights=weight_matrices, k=ks, seed=seeds)
    @settings(deadline=None)
    def test_independent_differences(self, weights, k, seed):
        """The EXP independent-differences method (Pr[A_ℓ] recursion)."""
        summary = build_summary(
            weights, k, seed, "exp", "independent_differences", "colocated"
        )
        for spec in all_specs(summary.assignments):
            assert_parity(
                summary,
                lambda: colocated_estimator(summary, spec),
                lambda: colocated_kernel(summary, spec),
                f"idiff colocated {spec.function} ell={spec.ell}",
            )


class TestPoissonKernels:
    @given(weights=weight_matrices, k=ks, seed=seeds, family=families,
           method=methods, mode=modes)
    @settings(deadline=None)
    def test_ht(self, weights, k, seed, family, method, mode):
        """Poisson summaries record k=0 when no expected size is given."""
        family_obj = get_rank_family(family)
        rng = np.random.default_rng(seed)
        draw = get_rank_method(method).draw(family_obj, weights, rng)
        taus = np.array(
            [
                calibrate_tau(weights[:, b], family_obj, min(k, MAX_KEYS))
                for b in range(weights.shape[1])
            ]
        )
        names = [f"w{b}" for b in range(weights.shape[1])]
        summary = build_poisson_summary(
            weights, draw, taus, names, family_obj, mode=mode
        )
        assert summary.k == 0  # the degenerate k the ISSUE calls out
        for b in names:
            assert_parity(
                summary,
                lambda: ht_from_summary(summary, b),
                lambda: ht_kernel(summary, b),
                f"ht[{b}]",
            )
        if mode == "colocated":
            for spec in all_specs(names):
                assert_parity(
                    summary,
                    lambda: colocated_estimator(summary, spec),
                    lambda: colocated_kernel(summary, spec),
                    f"poisson colocated {spec.function}",
                )


class TestDegenerateCases:
    def _check_all(self, summary):
        for spec in all_specs(summary.assignments):
            assert_parity(
                summary,
                lambda: sset_estimator(summary, spec),
                lambda: sset_kernel(summary, spec),
                f"sset {spec.function}",
            )
            assert_parity(
                summary,
                lambda: lset_estimator(summary, spec),
                lambda: lset_kernel(summary, spec),
                f"lset {spec.function}",
            )

    @pytest.mark.parametrize("mode", ["colocated", "dispersed"])
    @pytest.mark.parametrize("family", ["ipps", "exp"])
    def test_empty_summary(self, family, mode):
        """All-zero weights: nothing is sampled, the union is empty."""
        weights = np.zeros((5, 3))
        summary = build_summary(weights, 2, 0, family, "shared_seed", mode)
        assert summary.n_union == 0
        self._check_all(summary)

    @pytest.mark.parametrize("mode", ["colocated", "dispersed"])
    def test_single_key(self, mode):
        weights = np.array([[3.0, 0.0, 7.0]])
        summary = build_summary(weights, 2, 1, "ipps", "shared_seed", mode)
        self._check_all(summary)

    def test_subset_with_no_known_weights(self):
        """Dispersed rows can be all-unknown (NaN) within the queried R."""
        weights = np.array(
            [
                [100.0, 0.0],
                [90.0, 0.0],
                [80.0, 0.0],
                [0.1, 1.0],
                [0.2, 2.0],
            ]
        )
        summary = build_summary(weights, 2, 3, "ipps", "shared_seed",
                                "dispersed")
        # keys sampled only for w0 have an all-NaN row within R = (w1,)
        spec = AggregationSpec("max", ("w1",))
        assert np.isnan(summary.weights[:, 1]).any()
        assert_parity(
            summary,
            lambda: sset_estimator(summary, spec),
            lambda: sset_kernel(summary, spec),
            "all-NaN subset rows",
        )

    def test_k_at_least_n(self):
        weights = np.abs(np.random.default_rng(3).normal(5, 2, (4, 2)))
        summary = build_summary(weights, 10, 4, "exp", "shared_seed",
                                "dispersed")
        self._check_all(summary)

    def test_stream_built_summary(self):
        """Sketch-assembled dispersed summaries go through the same """
        from repro.ranks.hashing import KeyHasher

        rng = np.random.default_rng(0)
        hasher = KeyHasher(11)
        sketches = {}
        for name in ("a", "b"):
            sampler = BottomKStreamSampler(4, get_rank_family("ipps"), hasher)
            for key in range(12):
                weight = float(rng.pareto(1.5) + 0.1)
                sampler.process(key, weight)
            sketches[name] = sampler.sketch()
        summary = build_summary_from_sketches(
            sketches, get_rank_family("ipps")
        )
        self._check_all(summary)
