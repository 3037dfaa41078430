"""Regenerate the flag-surface fixture pinned by tests/test_cli_surface.py.

Run (only on a deliberate flag change):

    PYTHONPATH=src python tests/data/make_cli_surface.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

from test_cli_surface import FIXTURE, cli_surface  # noqa: E402

if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(cli_surface(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {FIXTURE}")
