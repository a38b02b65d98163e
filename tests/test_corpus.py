import hashlib
import json

import pytest

from ribbonimm import corpus
from ribbonimm.errors import BudgetExceeded, NotSkew
from ribbonimm.shapes import decompose, shape_from_tuples


def test_ribbons_are_canonical_and_distinct():
    ribbons = list(corpus.enumerate_ribbons(3))
    assert len(ribbons) == len(set(ribbons))
    for r in ribbons:
        assert len(r.steps) <= 3
        # canonical window: steps neither start with the low tail nor end
        # with the high tail
        if r.steps:
            assert r.steps[0] != r.tail_lo
            assert r.steps[-1] != r.tail_hi


def test_decompositions_roundtrip_and_dedupe():
    decs = corpus.sweep_corpus(5, 2, 3, 10**6)
    assert len(decs) > 20
    seen = set()
    for dec in decs:
        key = (dec.ribbon, dec.abar, dec.bbar)
        assert key not in seen
        seen.add(key)
        assert dec.shape.is_connected()
        assert decompose(dec.shape, dec.ribbon).abar == dec.abar
        assert sum(b - a for a, b in zip(dec.abar, dec.bbar)) == \
            dec.shape.size <= 5


def test_sweep_corpus_buckets_and_determinism():
    first = corpus.sweep_corpus(6, 3, 3, per_bucket=3)
    again = corpus.sweep_corpus(6, 3, 3, per_bucket=3)
    assert first == again
    counts = {}
    for dec in first:
        counts[(dec.ell, dec.shape.size)] = counts.get(
            (dec.ell, dec.shape.size), 0) + 1
    assert all(v <= 3 for v in counts.values())
    assert counts[(1, 1)] == 3 and counts[(3, 6)] == 3
    with pytest.raises(ValueError):
        corpus.sweep_corpus(6, 3, 3, per_bucket=0)


@pytest.mark.parametrize("args, count, digest", [
    ((8, 5, 4, 16), 416,
     "37e704a1c56e9e820a51793fda7017d6544639bfb3b83c3a7507b985c0e17af3"),
    ((8, 5, 4, 2), 52,
     "426543ce88a442b76af2965f3ab3ac6c51586abcde611ef87f491a84a28b3600"),
    ((8, 5, 5, 1), 30,
     "f9b399370b898cfb5458e53ba01319e493243564a3c8c1e49d9d60285db52ff0"),
    ((10, 5, 5, 2), 80,
     "cb50a330229f5dc7b45d1a9423ae5366727fe71c208bf2af53d60747b278aef2"),
    ((10, 5, 6, 2), 90,
     "38fb92286fa03a77f88342b9d321445c822921d295959fbaa978343043a670f4"),
])
def test_sweep_corpus_pinned(args, count, digest):
    decs = corpus.sweep_corpus(*args)
    blob = json.dumps([d.to_json() for d in decs], sort_keys=True,
                      separators=(",", ":"))
    assert len(decs) == count
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_pruning_keeps_the_first_of_every_bucket():
    everything = {}
    for dec in corpus.sweep_corpus(6, 3, 3, 10**6):
        everything.setdefault((dec.ell, dec.shape.size), []).append(dec)
    for k in range(1, 5):
        expected = tuple(dec for key in sorted(everything)
                         for dec in everything[key][:k])
        assert corpus.sweep_corpus(6, 3, 3, k) == expected


def _whole_shape_corpus(max_cells, max_window, max_ell):
    """Every (ribbon, sections) placement whose whole assembled shape is a
    connected skew shape, grouped by (section count, cell count) in
    enumeration order.  Only sections whose contents are too far apart to
    share an edge with the previous one are skipped unbuilt."""
    found = {}
    for R in corpus.enumerate_ribbons(max_window):
        hi = R.window_hi + 2
        pairs = [(a, b) for a in range(-2, hi + 1)
                 for b in range(a + 1, hi + 2) if b - a <= max_cells]

        def rec(sections, used):
            for a, b in pairs:
                if used + (b - a) > max_cells or sections and (
                        a > sections[-1][1] or b < sections[-1][0]):
                    continue
                sections.append((a, b))
                abar, bbar = zip(*sections)
                try:
                    if shape_from_tuples(R, abar, bbar).is_connected():
                        key = (len(sections), used + (b - a))
                        found.setdefault(key, []).append(
                            (R, tuple(sections)))
                except NotSkew:
                    pass
                if len(sections) < max_ell:
                    rec(sections, used + (b - a))
                sections.pop()

        rec([], 0)
    return [item for key in sorted(found) for item in found[key]]


def test_pair_rule_matches_the_whole_shape_rule():
    decs = corpus.sweep_corpus(6, 3, 4, 10**6)
    assert len(decs) == 2562
    assert [(d.ribbon, tuple(zip(d.abar, d.bbar))) for d in decs] == \
        _whole_shape_corpus(6, 3, 4)


def test_corpus_search_is_budgeted(monkeypatch):
    # a lowered budget refuses even a corpus built earlier in the process:
    # every call searches again
    pool = corpus.sweep_corpus(8, 5, 4, 2)
    monkeypatch.setenv("RIL_BUDGET", "100")
    with pytest.raises(BudgetExceeded, match=r"sweep_corpus\(max_cells=8, "
                       r"max_window=5, max_ell=4, per_bucket=2\): 101 "
                       r"search nodes exceed RIL_BUDGET=100$"):
        corpus.sweep_corpus(8, 5, 4, 2)
    # the benchmark pool takes 329 search nodes
    monkeypatch.setenv("RIL_BUDGET", "329")
    assert corpus.sweep_corpus(8, 5, 4, 2) == pool
    monkeypatch.setenv("RIL_BUDGET", "328")
    with pytest.raises(BudgetExceeded):
        corpus.sweep_corpus(8, 5, 4, 2)
