"""Regenerate the example-output fixture pinned by tests/test_examples.py.

Run (only on a deliberate change to what an example prints):

    PYTHONPATH=src python tests/data/make_example_outputs.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

from test_examples import EXAMPLES, FIXTURE, example_digest  # noqa: E402

if __name__ == "__main__":
    digests = {path.stem: example_digest(path) for path in EXAMPLES}
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(digests)} examples)")
