"""Sampling schemes: bottom-k (order), Poisson-τ, and k-mins sketches.

Each scheme consumes rank values produced by :mod:`repro.ranks` and keeps
the keys with the *smallest* ranks.  Matrix-mode builders operate on dense
rank/weight matrices (used by the evaluation harness); stream samplers
process one (key, weight) pair at a time and demonstrate the dispersed
one-pass computation with hash-coordinated seeds.
"""

from repro.sampling.bottomk import (
    BottomKSketch,
    BottomKStreamSampler,
    aggregate_stream,
    bottomk_from_ranks,
    bottomk_sketch_matrix,
)
from repro.sampling.poisson import (
    PoissonSketch,
    calibrate_tau,
    poisson_from_ranks,
    poisson_sketch_matrix,
)
from repro.sampling.kmins import KMinsSketch, kmins_sketches
from repro.sampling.combined import fixed_size_bottomk, union_positions

__all__ = [
    "BottomKSketch",
    "BottomKStreamSampler",
    "aggregate_stream",
    "bottomk_from_ranks",
    "bottomk_sketch_matrix",
    "PoissonSketch",
    "calibrate_tau",
    "poisson_from_ranks",
    "poisson_sketch_matrix",
    "KMinsSketch",
    "kmins_sketches",
    "fixed_size_bottomk",
    "union_positions",
]
