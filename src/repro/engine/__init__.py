"""Stream-summarization and query-serving engine.

Scale-out machinery for the paper's dispersed model: exact sketch merging
over key-disjoint partitions (:mod:`repro.engine.merge`), batch ingestion
of unaggregated streams with incremental finalization
(:mod:`repro.engine.sharded`), batch query answering over the resulting
summaries on the vectorized kernel fast path (:mod:`repro.engine.queries`).
Every summarizer result is tested bit-identical to
:class:`repro.sampling.bottomk.BottomKStreamSampler`, the one-pass sampler
over an already aggregated stream.  Every pipeline is a plain loop in the
calling thread: one unit of work over k-key sketches costs less than
handing it to a worker.
"""

from repro.engine.merge import merge_bottomk, merge_poisson
from repro.engine.queries import (
    Query,
    QueryEngine,
    QueryResult,
    jaccard_from_summary,
)
from repro.engine.sharded import ShardedSummarizer

__all__ = [
    "merge_bottomk",
    "merge_poisson",
    "ShardedSummarizer",
    "Query",
    "QueryEngine",
    "QueryResult",
    "jaccard_from_summary",
]
