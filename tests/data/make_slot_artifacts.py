"""Regenerate the per-slot artifact fixture pinned by tests/test_slot_artifacts.py.

Run (only on a deliberate change to what a cluster worker stores per slot):

    PYTHONPATH=src python tests/data/make_slot_artifacts.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

from test_slot_artifacts import FIXTURE, slot_artifact_digests  # noqa: E402

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        digests = slot_artifact_digests(pathlib.Path(workdir))
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(digests)} artifacts)")
