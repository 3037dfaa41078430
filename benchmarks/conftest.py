"""Shared fixtures for the benchmark suite.

Each bench regenerates one paper table/figure.  The rendered rows/series
are (a) echoed to the terminal past pytest's capture, so they appear in
``pytest benchmarks/ --benchmark-only`` output, and (b) written to
``benchmarks/results/<experiment-id>.txt`` (see the README's "Paper
experiments" section).
"""

from __future__ import annotations

import pathlib
import re

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def emit(capfd):
    """Print experiment output bypassing capture and persist it to disk."""

    def _emit(text: str, name: str = "") -> None:
        with capfd.disabled():
            print()
            print(text)
        if name:
            RESULTS_DIR.mkdir(exist_ok=True)
            safe = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
            (RESULTS_DIR / f"{safe}.txt").write_text(text + "\n")

    return _emit
