"""Regenerate the per-kind byte fixture pinned by tests/test_codec_kind_bytes.py.

Run (only on a deliberate change to the codec's stored or wire format):

    PYTHONPATH=src python tests/data/make_codec_kind_bytes.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent.parent))

from tests.test_codec_kind_bytes import FIXTURE, kind_digests  # noqa: E402

if __name__ == "__main__":
    digests = kind_digests()
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(digests)} blobs)")
