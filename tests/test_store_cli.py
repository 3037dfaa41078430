"""Tests for the store CLI (python -m repro.store)."""

from __future__ import annotations

import pytest

from repro.store.cli import build_parser, main


def write_bucket(root, bucket, assignment, prefix, seed=0, extra=()):
    argv = [
        "write", "--root", str(root), "--namespace", "web",
        "--bucket", bucket, "--assignment", assignment, "--k", "32",
        "--demo", "400", "--demo-seed", str(seed), "--demo-prefix", prefix,
        *extra,
    ]
    assert main(argv) == 0


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_write_defaults(self):
        args = build_parser().parse_args(
            ["write", "--root", "r", "--namespace", "n",
             "--bucket", "20260728", "--assignment", "h1"]
        )
        assert args.k == 256 and args.family == "ipps" and args.salt == 0

    def test_compact_granularity_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compact", "--root", "r", "--namespace", "n",
                 "--to", "century"]
            )


class TestRoundTrip:
    def test_write_ls_compact_query(self, tmp_path, capsys):
        root = tmp_path / "store"
        # Two assignments per minute bucket; per-bucket key prefixes keep
        # the buckets key-disjoint, so the rollup merge is exact.
        for bucket, prefix, seed in [
            ("20260728T1201", "a-", 0),
            ("20260728T1202", "b-", 1),
        ]:
            write_bucket(root, bucket, "h1", prefix, seed=seed)
            write_bucket(root, bucket, "h2", prefix, seed=seed + 10)
        out = capsys.readouterr().out
        assert out.count("wrote web/") == 4

        assert main(["ls", "--root", str(root)]) == 0
        listing = capsys.readouterr().out
        assert "20260728T1201" in listing and "bottomk" in listing

        assert main(["query", "--root", str(root), "--namespace", "web",
                     "--function", "max", "--assignments", "h1", "h2"]) == 0
        before = capsys.readouterr().out
        assert before.startswith("max(h1,h2) ~=")

        assert main(["compact", "--root", str(root), "--namespace", "web",
                     "--to", "hour"]) == 0
        assert "compacted ->" in capsys.readouterr().out

        assert main(["ls", "--root", str(root), "--namespace", "web"]) == 0
        assert "20260728T12 " in capsys.readouterr().out

        assert main(["query", "--root", str(root), "--namespace", "web",
                     "--function", "max", "--assignments", "h1", "h2"]) == 0
        after = capsys.readouterr().out
        assert after == before  # compaction is exact: identical estimate

    def test_csv_input(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text(
            "key,weight\nflow-1,10.0\nflow-2,3.5\nflow-1,2.0\n\n"
        )
        root = tmp_path / "store"
        assert main(["write", "--root", str(root), "--namespace", "web",
                     "--bucket", "20260728", "--assignment", "h1",
                     "--k", "8", "--input", str(events)]) == 0
        assert "2 sampled keys" in capsys.readouterr().out

        assert main(["query", "--root", str(root), "--namespace", "web",
                     "--function", "single", "--assignments", "h1"]) == 0
        # k=8 > distinct keys, so the estimate is exact: 12.0 + 3.5
        assert "15.5" in capsys.readouterr().out

    def test_bucket_filtered_query(self, tmp_path, capsys):
        root = tmp_path / "store"
        write_bucket(root, "20260728T1201", "h1", "a-")
        write_bucket(root, "20260728T1202", "h1", "b-", seed=1)
        capsys.readouterr()
        assert main(["query", "--root", str(root), "--namespace", "web",
                     "--function", "single", "--assignments", "h1",
                     "--buckets", "20260728T1201"]) == 0
        assert "single(h1)" in capsys.readouterr().out


class TestErrors:
    def test_input_and_demo_are_exclusive(self, tmp_path):
        base = ["write", "--root", str(tmp_path), "--namespace", "n",
                "--bucket", "20260728", "--assignment", "h1"]
        with pytest.raises(SystemExit, match="exactly one"):
            main(base)
        with pytest.raises(SystemExit, match="exactly one"):
            main(base + ["--demo", "10", "--input", "x.csv"])

    def test_invalid_bucket(self, tmp_path):
        with pytest.raises(SystemExit, match="bucket"):
            main(["write", "--root", str(tmp_path), "--namespace", "n",
                  "--bucket", "not-a-bucket", "--assignment", "h1",
                  "--demo", "10"])

    def test_ls_missing_store(self, tmp_path):
        with pytest.raises(SystemExit, match="no store"):
            main(["ls", "--root", str(tmp_path / "ghost")])

    def test_query_unknown_namespace(self, tmp_path, capsys):
        write_bucket(tmp_path / "s", "20260728", "h1", "a-")
        capsys.readouterr()
        with pytest.raises(SystemExit, match="no sketch bundles"):
            main(["query", "--root", str(tmp_path / "s"),
                  "--namespace", "ghost", "--function", "single",
                  "--assignments", "h1"])

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("only-one-column\n")
        with pytest.raises(SystemExit, match="key,weight"):
            main(["write", "--root", str(tmp_path / "s"), "--namespace", "n",
                  "--bucket", "20260728", "--assignment", "h1",
                  "--input", str(bad)])

    def test_non_numeric_weight_past_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("k,w\nflow,abc\n")
        with pytest.raises(SystemExit, match="non-numeric"):
            main(["write", "--root", str(tmp_path / "s"), "--namespace", "n",
                  "--bucket", "20260728", "--assignment", "h1",
                  "--input", str(bad)])

    def test_malformed_first_data_row_is_not_mistaken_for_header(
        self, tmp_path
    ):
        # "12x3" contains digits, so it is a typo'd weight, not a header
        # column name — the write must abort, not silently drop the row.
        bad = tmp_path / "bad.csv"
        bad.write_text("alice,12x3\nbob,4.0\n")
        with pytest.raises(SystemExit, match="non-numeric weight '12x3'"):
            main(["write", "--root", str(tmp_path / "s"), "--namespace", "n",
                  "--bucket", "20260728", "--assignment", "h1",
                  "--input", str(bad)])


class TestLsJsonAndExport:
    def test_ls_json_machine_readable(self, tmp_path, capsys):
        import json

        from repro.store import SummaryStore

        root = tmp_path / "store"
        write_bucket(root, "20260728T1201", "h1", "a-")
        write_bucket(root, "20260728T1202", "h1", "b-", seed=1)
        capsys.readouterr()
        assert main(["ls", "--root", str(root), "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        store = SummaryStore(root, create=False)
        assert listing == store.ls_json()  # CLI and API share one format
        web = listing["namespaces"][0]
        assert web["namespace"] == "web"
        assert web["buckets"] == ["20260728T1201", "20260728T1202"]
        assert web["version"] == store.version("web")
        assert all(row["nbytes"] > 0 for row in web["entries"])

    def test_ls_json_namespace_filter(self, tmp_path, capsys):
        import json

        root = tmp_path / "store"
        write_bucket(root, "20260728T1201", "h1", "a-")
        capsys.readouterr()
        assert main(["ls", "--root", str(root), "--json",
                     "--namespace", "nope"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["namespaces"] == []

    def test_export_writes_the_exact_bytes(self, tmp_path, capsys):
        from repro.store import SummaryStore
        from repro.store.codec import decode

        root = tmp_path / "store"
        write_bucket(root, "20260728T1201", "h1", "a-")
        out = tmp_path / "out" / "part.cws"
        assert main([
            "export", "--root", str(root), "--namespace", "web",
            "--bucket", "20260728T1201", "--part", "part-0000",
            "--out", str(out),
        ]) == 0
        assert "exported web/20260728T1201/part-0000" in (
            capsys.readouterr().out
        )
        store = SummaryStore(root, create=False)
        assert out.read_bytes() == store.read_blob(
            "web", "20260728T1201", "part-0000"
        )
        assert decode(out.read_bytes(), verify=True).equals(
            store.read("web", "20260728T1201", "part-0000")
        )

    def test_export_overwrite_is_atomic(self, tmp_path, capsys):
        """Re-exporting to the same path must stage + rename, never
        truncate: a reader holding the old file keeps its whole bytes."""
        from repro.store import SummaryStore

        root = tmp_path / "store"
        write_bucket(root, "20260728T1201", "h1", "a-")
        write_bucket(root, "20260728T1202", "h1", "b-", seed=1)
        out = tmp_path / "part.cws"

        def export(bucket):
            assert main([
                "export", "--root", str(root), "--namespace", "web",
                "--bucket", bucket, "--part", "part-0000", "--out", str(out),
            ]) == 0

        store = SummaryStore(root, create=False)
        first = store.read_blob("web", "20260728T1201", "part-0000")
        second = store.read_blob("web", "20260728T1202", "part-0000")
        assert first != second
        export("20260728T1201")
        with open(out, "rb") as held:
            export("20260728T1202")  # overwrite in place
            assert held.read() == first
        assert out.read_bytes() == second
        assert [p.name for p in tmp_path.iterdir() if ".tmp." in p.name] == []
        capsys.readouterr()

    def test_export_refuses_a_missing_artifact(self, tmp_path):
        root = tmp_path / "store"
        write_bucket(root, "20260728T1201", "h1", "a-")
        out = tmp_path / "part.cws"
        with pytest.raises(SystemExit, match="no artifact web/20260728T1201"):
            main(["export", "--root", str(root), "--namespace", "web",
                  "--bucket", "20260728T1201", "--part", "nope",
                  "--out", str(out)])
        assert not out.exists()
        with pytest.raises(SystemExit, match="no store at"):
            main(["export", "--root", str(tmp_path / "missing"),
                  "--namespace", "web", "--bucket", "20260728T1201",
                  "--part", "part-0000", "--out", str(out)])


class TestStats:
    def test_table_and_json_report_the_durable_tallies(
        self, tmp_path, capsys
    ):
        import json

        from repro.store import SummaryStore

        root = tmp_path / "store"
        write_bucket(root, "20260728T1201", "h1", "a-")
        runtime = SummaryStore(root, create=False).runtime
        runtime.cache_put("q1", "web", "r1", {"estimate": 1.0})
        runtime.cache_get("q1")
        runtime.close()
        capsys.readouterr()
        assert main(["stats", "--root", str(root), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["cache"] == {"entries": 1, "hits": 1}
        assert stats["namespaces"]["web"]["entries"] == 1
        # event counts live in a daemon's registry, not in the root
        assert "counters" not in stats
        assert main(["stats", "--root", str(root)]) == 0
        table = capsys.readouterr().out
        assert "query cache   1 entries, 1 hits" in table
        assert "namespace     web: 1 entries" in table
        assert "counter" not in table
