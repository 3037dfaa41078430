"""Checkpoint/resume for ingestion pipelines.

A :class:`~repro.store.codec.SummarizerCheckpoint` freezes a
:class:`~repro.engine.ShardedSummarizer` mid-stream — configuration,
coordination salt, and every buffered event chunk in arrival order —
so an interrupted ingestion can restore in a fresh process and produce
summaries **bit-identical** to an uninterrupted run (enforced by
``tests/test_checkpoint.py``).

Three ways to persist one:

* :func:`save_checkpoint` / :func:`load_checkpoint` — single file on disk;
* ``ShardedSummarizer.save_checkpoint(path)`` /
  ``ShardedSummarizer.load_checkpoint(path)`` — the same, as methods;
* ``store.write(namespace, bucket, summarizer.checkpoint_state())`` — into
  a :class:`~repro.store.SummaryStore`, alongside the summaries it will
  eventually produce.
"""

from __future__ import annotations

from repro.store.codec import SummarizerCheckpoint

__all__ = ["SummarizerCheckpoint", "save_checkpoint", "load_checkpoint"]


def save_checkpoint(path, summarizer) -> int:
    """Write a summarizer's checkpoint blob to ``path``; returns bytes written.

    ``summarizer`` may be a :class:`~repro.engine.ShardedSummarizer` or an
    already-captured :class:`SummarizerCheckpoint`.
    """
    from repro.store.codec import write_file

    state = (
        summarizer
        if isinstance(summarizer, SummarizerCheckpoint)
        else summarizer.checkpoint_state()
    )
    return write_file(path, state)


def load_checkpoint(path):
    """Restore a :class:`~repro.engine.ShardedSummarizer` from a checkpoint file."""
    from repro.store.codec import read_file

    state = read_file(path)
    if not isinstance(state, SummarizerCheckpoint):
        raise TypeError(
            f"{path!s} holds a {type(state).__name__}, not a "
            "SummarizerCheckpoint"
        )
    from repro.engine.sharded import ShardedSummarizer

    return ShardedSummarizer.from_checkpoint(state)
