"""The exact artifact bytes ``repro-store write`` publishes are pinned.

``tests/data/store_write_bytes.json`` records the SHA-256 of the stored
blob (``SummaryStore.read_blob``) for each scripted ``write``: ``--demo``
streams over two seeds, k in {1, 64} and both rank families, an empty
``--demo 0`` stream, and an ``--input`` CSV with a header row, repeated
keys, a zero weight and the empty key.  Sampling, codec or CLI changes
that move a single stored byte fail here.

Regenerate only on a deliberate change to what ``write`` stores:

    PYTHONPATH=src python tests/data/make_store_write_bytes.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.store import SummaryStore
from repro.store.cli import main

FIXTURE = pathlib.Path(__file__).parent / "data" / "store_write_bytes.json"

#: a header row, repeated keys, a zero weight and the empty key
CSV = """key,weight
alice,3.5
bob,0.25
alice,1.5
carol,0
,2.0
dave,7
bob,4.75
erin,0.5
"""


def _cases(csv_path: pathlib.Path) -> dict[str, list[str]]:
    cases = {}
    for seed in (0, 1):
        for k in (1, 64):
            for family in ("ipps", "exp"):
                cases[f"demo-s{seed}-k{k}-{family}"] = [
                    "--k", str(k), "--family", family, "--salt", str(5 * seed),
                    "--demo", "3000", "--demo-seed", str(seed),
                ]
    cases["demo-empty"] = ["--k", "8", "--demo", "0"]
    for k in (2, 64):
        cases[f"csv-k{k}"] = [
            "--k", str(k), "--salt", "3", "--input", str(csv_path),
        ]
    return cases


def store_write_digests(workdir: pathlib.Path) -> dict[str, str]:
    """SHA-256 of each scripted ``write``'s stored blob, by case name."""
    csv_path = workdir / "events.csv"
    csv_path.write_text(CSV)
    root = workdir / "store"
    digests = {}
    for part, args in _cases(csv_path).items():
        assert main([
            "write", "--root", str(root), "--namespace", "web",
            "--bucket", "20260728T1201", "--assignment", "h1",
            "--part", part, *args,
        ]) == 0
        blob = SummaryStore(root, create=False).read_blob(
            "web", "20260728T1201", part
        )
        digests[part] = hashlib.sha256(blob).hexdigest()
    return digests


def test_write_stores_the_pinned_bytes(tmp_path, capsys):
    expected = json.loads(FIXTURE.read_text())
    assert store_write_digests(tmp_path) == expected
    assert capsys.readouterr().out.count("wrote web/") == len(expected)
