"""Unbiased estimators over single- and multi-assignment samples.

All estimators produce :class:`~repro.estimators.base.AdjustedWeights` —
per-key adjusted ``f``-weights ``a^(f)(i)`` with ``E[a^(f)(i)] = f(i)``
(implicitly zero off the summary) — so every query reduces to summing
adjusted weights over the selected keys.

* :mod:`~repro.estimators.horvitz_thompson` — HT over Poisson sketches.
* :mod:`~repro.estimators.rank_conditioning` — the plain RC estimator over
  a single bottom-k sketch (the baseline "use only the sketch of b").
* :mod:`~repro.estimators.colocated` — inclusive estimators that use every
  key in the combined colocated summary (Section 6).
* :mod:`~repro.estimators.dispersed` — s-set / l-set estimators for top-ℓ
  dependent aggregates and the L1 estimator (Section 7).
* :mod:`~repro.estimators.jaccard` — weighted Jaccard from coordinated
  k-mins sketches (Theorem 4.1).
* :mod:`~repro.estimators.variance` — analytic per-key variances & bounds.

Each estimator over a summary is implemented once, as a *kernel*: it
reads shared intermediates (thresholds, CDF matrices, per-subset sorts)
from the summary's cached :class:`~repro.core.summary.SummaryViews` and
returns a dense ``(u,)`` vector of adjusted ``f``-weights aligned with the
summary's union rows (zero where the estimator selects nothing), so a
selection predicate is a masked sum.  The per-spec functions
(``sset_estimator``, ``colocated_estimator``, …) wrap a kernel's output as
sparse :class:`AdjustedWeights` via :meth:`AdjustedWeights.from_dense`.

Paper equation map (Cohen, Kaplan & Sen, PVLDB 2009):

========================  ===================================================
kernel                    estimator / equation
========================  ===================================================
:func:`sset_kernel`       s-set top-ℓ template, Section 7.1:
                          ``p(i) = F_{w^(ℓth R)(i)}(r^(min R)_k(I∖{i}))``;
                          independent ranks use the product form of §7.1.1
:func:`lset_kernel`       l-set top-ℓ template, Section 7.2, Eq. (13)–(16)
:func:`l1_kernel`         ``a^(L1) = a^(max) − a^(min)``, Eq. (17)
:func:`colocated_kernel`  inclusive estimator, Section 6, Eq. (4)–(6)
:func:`generic_kernel`    generic consistent-ranks estimator, Eq. (7)
:func:`plain_rc_kernel`   plain rank-conditioning ``w/F_w(r_{k+1})``, Section 3
:func:`ht_kernel`         Horvitz–Thompson over Poisson-τ, Section 3
========================  ===================================================
"""

from repro.estimators.base import AdjustedWeights
from repro.estimators.horvitz_thompson import (
    ht_adjusted_weights,
    ht_from_summary,
    ht_kernel,
)
from repro.estimators.rank_conditioning import (
    plain_rc_adjusted_weights,
    plain_rc_from_summary,
    plain_rc_kernel,
)
from repro.estimators.colocated import (
    colocated_estimator,
    colocated_kernel,
    generic_consistent_estimator,
    generic_kernel,
    inclusion_probabilities,
)
from repro.estimators.dispersed import (
    dispersed_estimator,
    independent_min_estimator,
    l1_estimator,
    l1_kernel,
    lset_estimator,
    lset_kernel,
    max_estimator,
    sset_estimator,
    sset_kernel,
)
from repro.estimators.jaccard import (
    jaccard_from_kmins,
    kmins_match_fraction,
)
from repro.estimators.variance import (
    conditional_variance,
    sigma_v_upper_bound,
)

__all__ = [
    "AdjustedWeights",
    "ht_adjusted_weights",
    "ht_from_summary",
    "plain_rc_adjusted_weights",
    "plain_rc_from_summary",
    "colocated_estimator",
    "inclusion_probabilities",
    "generic_consistent_estimator",
    "dispersed_estimator",
    "sset_estimator",
    "lset_estimator",
    "max_estimator",
    "l1_estimator",
    "independent_min_estimator",
    "jaccard_from_kmins",
    "kmins_match_fraction",
    "conditional_variance",
    "sigma_v_upper_bound",
    "sset_kernel",
    "lset_kernel",
    "l1_kernel",
    "colocated_kernel",
    "generic_kernel",
    "plain_rc_kernel",
    "ht_kernel",
]
