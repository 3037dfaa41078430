"""Regenerate the reply-byte fixture pinned by tests/test_query_answers.py.

Run (only on a deliberate change to what ``/query`` answers):

    PYTHONPATH=src python tests/data/make_query_answers.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

from test_query_answers import FIXTURE, _jsonable, query_answers  # noqa: E402

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        answers = _jsonable(query_answers(pathlib.Path(root)))
    FIXTURE.write_text(json.dumps(answers, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
