"""Regenerate the artifact-byte fixture pinned by tests/test_store_write_bytes.py.

Run (only on a deliberate change to what ``repro-store write`` stores):

    PYTHONPATH=src python tests/data/make_store_write_bytes.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

from test_store_write_bytes import FIXTURE, store_write_digests  # noqa: E402

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        digests = store_write_digests(pathlib.Path(workdir))
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(digests)} artifacts)")
