"""Run every example script and pin what it prints.

``tests/data/example_outputs.json`` records the SHA-256 of each
``examples/*.py`` script's stdout.  The examples are seeded end to end, so
a change to sampling, estimation, merging or the store that moves one
printed digit fails here, and so does an example that stops running.

Regenerate only on a deliberate change to what an example prints:

    PYTHONPATH=src python tests/data/make_example_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import runpy
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
FIXTURE = pathlib.Path(__file__).parent / "data" / "example_outputs.json"


def example_digest(path: pathlib.Path) -> str:
    """SHA-256 of the UTF-8 stdout of one example run as ``__main__``."""
    out = io.StringIO()
    argv = sys.argv
    sys.argv = [str(path)]
    try:
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(path):
    assert example_digest(path) == json.loads(FIXTURE.read_text())[path.stem]


def test_examples_exist():
    names = {p.stem for p in EXAMPLES}
    assert {"quickstart", "network_monitoring", "stock_similarity",
            "movie_trends"} <= names
    assert names == set(json.loads(FIXTURE.read_text())), (
        "pin every example: tests/data/make_example_outputs.py"
    )
