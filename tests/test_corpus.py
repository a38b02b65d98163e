import hashlib
import json

import pytest

from ribbonimm import corpus
from ribbonimm.shapes import decompose


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
