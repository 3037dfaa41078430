import numpy as np

from benchmarks.perf.gen import DEFAULT_SEED, generate, resolve_seed
from benchmarks.perf.spec import WORKLOADS


def _bodies(name: str, seed: int) -> list:
    return [op.body for op in generate(WORKLOADS[name].smoke(), seed).ops]


def test_same_seed_same_bytes():
    for name in WORKLOADS:
        assert _bodies(name, 7) == _bodies(name, 7)


def test_other_seed_other_bytes():
    for name in WORKLOADS:
        first, second = _bodies(name, 7), _bodies(name, 8)
        assert len(first) == len(second)
        assert first != second


def test_workloads_draw_from_separate_streams():
    assert _bodies("serve_ingest", 7)[0] != _bodies("serve_mixed", 7)[0]


def test_script_shape():
    workload = WORKLOADS["serve_mixed"].smoke()
    script = generate(workload, 3)
    roles = [op.role for op in script.ops]
    assert roles.count("fresh") == workload.live_steps
    assert roles.count("hit") == workload.replay
    assert roles.count("full") == 1
    quiet = [op for op in script.ops if op.phase == "quiet"]
    assert len({op.body for op in quiet}) == workload.quiet  # all distinct
    replayed = [op.body for op in script.ops if op.role == "hit"]
    assert replayed == [op.body for op in quiet[:workload.replay]]
    # stored buckets never share a key with the live stream
    live = np.concatenate([op.keys for op in script.ops if op.is_ingest])
    for _bucket, keys, _weights in script.preload:
        assert not np.intersect1d(live, keys).size
    assert len(script.preload) == workload.preload_buckets


def test_seed_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SEED", raising=False)
    assert resolve_seed(None) == DEFAULT_SEED
    monkeypatch.setenv("REPRO_BENCH_SEED", "41")
    assert resolve_seed(None) == 41
    assert resolve_seed(5) == 5  # the argument wins
