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
selection predicate is a masked sum.  The one front door to them is
:class:`~repro.engine.queries.QueryEngine`: ``adjusted_dense(spec,
estimator)`` caches a kernel's output, ``adjusted(...)`` wraps it as sparse
:class:`AdjustedWeights` and ``estimate(...)`` sums it under a predicate.

Paper equation map (Cohen, Kaplan & Sen, PVLDB 2009):

==========================  =================================================
kernel (engine estimator)   estimator / equation
==========================  =================================================
:func:`sset_kernel`         s-set top-ℓ template, Section 7.1:
(``sset``)                  ``p(i) = F_{w^(ℓth R)(i)}(r^(min R)_k(I∖{i}))``;
                            independent ranks use the product form of §7.1.1
:func:`lset_kernel`         l-set top-ℓ template, Section 7.2, Eq. (13)–(16)
(``lset``)
engine ``l1-s`` / ``l1-l``  ``a^(L1) = a^(max) − a^(min)``, Eq. (17): s-set
                            max minus s-set / l-set min
:func:`colocated_kernel`    inclusive estimator, Section 6, Eq. (4)–(6)
(``colocated``)
:func:`generic_kernel`      generic consistent-ranks estimator, Eq. (7)
(``generic``)
:func:`plain_rc_kernel`     plain rank-conditioning ``w/F_w(r_{k+1})``,
(``plain_rc``)              Section 3
:func:`ht_kernel` (``ht``)  Horvitz–Thompson over Poisson-τ, Section 3
==========================  =================================================
"""

from repro.estimators.base import AdjustedWeights
from repro.estimators.horvitz_thompson import ht_kernel
from repro.estimators.rank_conditioning import plain_rc_kernel
from repro.estimators.colocated import (
    colocated_kernel,
    generic_kernel,
    inclusion_probabilities,
)
from repro.estimators.dispersed import lset_kernel, sset_kernel
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
    "inclusion_probabilities",
    "jaccard_from_kmins",
    "kmins_match_fraction",
    "conditional_variance",
    "sigma_v_upper_bound",
    "sset_kernel",
    "lset_kernel",
    "colocated_kernel",
    "generic_kernel",
    "plain_rc_kernel",
    "ht_kernel",
]
