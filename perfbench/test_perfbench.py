"""Self-tests of the benchmark: seeded selection, span arithmetic, the
tail rule, the filling counts and a smallest-size run of every workload."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Item, shards  # noqa: E402


def _items():
    return [Item(f"{b}-{k}", b, None)
            for b in ("1x1", "2x5", "3x8") for k in range(5)]


def test_shards_are_deterministic_stratified_and_cover_once():
    items = _items()
    first = shards(items, 7, 2)
    assert first == shards(items, 7, 2)
    ids = sorted(it.id for shard in first for it in shard)
    assert ids == sorted(it.id for it in items)
    for bucket in ("1x1", "2x5", "3x8"):
        sizes = [sum(it.bucket == bucket for it in s) for s in first]
        assert sorted(sizes) == [2, 3]
    assert any(shards(items, seed, 2) != first for seed in range(8, 12))


def test_corpus_selection_is_deterministic():
    workload = WORKLOADS["det-faithful"]
    picks = [[[it.id for it in shard]
              for shard in shards(workload.setup("smoke"), 3, 2)]
             for _ in range(2)]
    assert picks[0] == picks[1]
    assert len(set(sum(picks[0], []))) == 26  # one per bucket


def test_self_times_on_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),      # overlaps a: the union is counted once
        ("a.child", 2.0, 3.0, 1),
        ("late", 9.0, 12.0, 0),  # clipped to its parent's interval
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0,
                                                       3.0])


def test_tracer_links_nested_calls_to_their_parent():
    tracer = tracing.Tracer()
    inner = tracer._wrap("inner", lambda x: x + 1)
    outer = tracer._wrap("outer", lambda x: inner(x) * 2)
    tracer.instance = "i0"
    assert outer(1) == 4
    (n0, _, _, p0, i0), (n1, _, _, p1, _) = tracer.spans
    assert (n0, p0, i0) == ("outer", -1, "i0")
    assert (n1, p1) == ("inner", 0)
    stats = tracer.layer_stats()
    assert stats["outer"]["calls"] == stats["inner"]["calls"] == 1


def test_tail_leaves_ten_samples_beyond():
    assert run.tail(range(104)) == (93, pytest.approx(100 * 94 / 104), 10)
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


def test_filling_counts_match_enumeration():
    from ribbonimm.shapes import SkewShape
    from ribbonimm.symfunc import skew_schur, ssyt_count

    shape = SkewShape((3, 2), (1,))
    p = skew_schur(shape, 3)
    assert tracing.monomials_all(p) == ssyt_count(shape, 3)
    assert tracing.monomials_kept(p) < tracing.monomials_all(p)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smallest_size_passes_the_gate(name):
    for shard in range(WORKLOADS[name].parts):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "pass", "--workload",
             name, "--seed", "0", "--shard", str(shard), "--size", "smoke"],
            capture_output=True, text=True, timeout=300, check=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["instances"]
        bad = [(r["id"], r["error"]) for r in report["instances"]
               if not r["ok"]]
        assert not bad
