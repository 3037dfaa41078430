"""Hash-sharded stream-summarization and query-serving engine.

Scale-out machinery for the paper's dispersed model: exact sketch merging
over key-disjoint partitions (:mod:`repro.engine.merge`), hash-sharded
batch ingestion of unaggregated streams with incremental per-shard
finalization (:mod:`repro.engine.sharded`),
batch query answering over the resulting summaries on the vectorized
kernel fast path (:mod:`repro.engine.queries`), and the executor specs
that run store compaction, multi-namespace query serving and evaluation
runs on stdlib thread or process pools
(:mod:`repro.engine.parallel`).  Every sharded result is tested
bit-identical to :class:`repro.sampling.bottomk.BottomKStreamSampler`, the
one-pass sampler over an already aggregated stream.
"""

from repro.engine.merge import merge_bottomk, merge_poisson
from repro.engine.parallel import available_workers, get_executor
from repro.engine.queries import (
    Query,
    QueryEngine,
    QueryResult,
    jaccard_from_summary,
)
from repro.engine.sharded import ShardedSummarizer, shard_indices

__all__ = [
    "merge_bottomk",
    "merge_poisson",
    "ShardedSummarizer",
    "shard_indices",
    "Query",
    "QueryEngine",
    "QueryResult",
    "jaccard_from_summary",
    "get_executor",
    "available_workers",
]
