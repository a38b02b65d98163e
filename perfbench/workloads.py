"""The benchmark's workloads: inputs, the timed call per instance, and the
correctness gate that judges its output.

Every workload fixes its own ``nvars``, so a later change to a CLI default
cannot move its numbers.  The three corpus workloads draw from
``sweep_corpus(8, 5, 4, per_bucket=2)`` (52 instances, two from every
(section count, cell count) bucket); ``remarks-kltable`` is fixed input.

ribbonimm is imported lazily, and layer functions are looked up on their
module at call time, so the tracer's rebinding takes effect.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from typing import Callable, NamedTuple

POOL = (8, 5, 4)  # max_cells, max_window, max_ell of the sampled corpus
PER_BUCKET = {"full": 2, "smoke": 1}
REMARK_SIZE = {"full": (5, 6), "smoke": (5, 4)}  # (nvars, KL table n)

# Negative Schur terms of the two remark certificates, by nvars.
PINNED_NEGATIVES = {
    5: {
        "imm_2143": {(4, 4, 3, 2): -1, (4, 3, 3, 3): -2, (4, 3, 3, 2, 1): -2,
                     (4, 3, 2, 2, 2): -1, (3, 3, 3, 3, 1): -2,
                     (3, 3, 3, 2, 2): -1},
        "bad_minor": {(6, 4, 3, 1): -1, (6, 4, 2, 1, 1): -1,
                      (5, 4, 4, 1): -1, (5, 4, 3, 1, 1): -1,
                      (4, 4, 4, 1, 1): -1},
    },
    6: {
        "imm_2143": {(4, 4, 3, 2): -1, (4, 3, 3, 3): -2, (4, 3, 3, 2, 1): -2,
                     (4, 3, 2, 2, 2): -1, (3, 3, 3, 3, 1): -2,
                     (3, 3, 3, 2, 2): -1, (3, 3, 3, 2, 1, 1): -1},
        "bad_minor": {(6, 4, 3, 1): -1, (6, 4, 2, 1, 1): -1,
                      (5, 4, 4, 1): -1, (5, 4, 3, 1, 1): -1,
                      (4, 4, 4, 1, 1): -1},
    },
}


class Item(NamedTuple):
    """One input: its stable id, its bucket ("<sections>x<cells>" for corpus
    instances) and the payload the instance runs on."""
    id: str
    bucket: str
    payload: object


class Instance(NamedTuple):
    id: str
    bucket: str
    run: Callable[[], object]             # the timed call
    judge: Callable[[object], tuple]      # output -> (ok, canonical result)


def result_digest(result) -> str:
    """sha256 of the canonical JSON form of one instance's result."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def poly_json(p) -> list:
    return sorted([list(k), c] for k, c in p.coeffs.items())


def corpus_items(size: str) -> list:
    """The pool, built through the program's own corpus layer."""
    from ribbonimm import corpus

    items, seen = [], Counter()
    for dec in corpus.sweep_corpus(*POOL, PER_BUCKET[size]):
        bucket = f"{dec.ell}x{dec.shape.size}"
        items.append(Item(f"{bucket}-{seen[bucket]}", bucket, dec))
        seen[bucket] += 1
    return items


def shards(items, seed: int, parts: int) -> list:
    """Deal every bucket's items, in seeded order, round-robin over parts
    shards from a seeded start, then shuffle each shard.

    Each shard is a stratified sample of the pool, and the shards together
    cover it once, so a full cycle of passes does the same work for every
    seed; the seed decides which pass runs each instance, and in which
    order.  Every instance starts from its pass's clean state, so neither
    changes the work an instance does.
    """
    rng = random.Random(seed)
    by_bucket = {}
    for it in items:
        by_bucket.setdefault(it.bucket, []).append(it)
    out = [[] for _ in range(parts)]
    for key in sorted(by_bucket):
        group = list(by_bucket[key])
        rng.shuffle(group)
        start = rng.randrange(parts)
        for i, it in enumerate(group):
            out[(start + i) % parts].append(it)
    for shard in out:
        rng.shuffle(shard)
    return out


def _tallest_column(shape) -> int:
    heights = Counter(j for _, j, _ in shape.cells())
    return max(heights.values())


class DetFaithful:
    """det == skew Schur at nvars = cell count (criterion 1)."""

    name = "det-faithful"
    parts = 2
    repeat_s = 0.2

    setup = staticmethod(corpus_items)

    def instances(self, items):
        from ribbonimm import ribbonmat, symfunc

        def make(dec):
            def run():
                N = max(dec.shape.size, 1)
                rm = ribbonmat.build(dec, N)
                return (N, symfunc.determinant(rm.matrix),
                        symfunc.skew_schur(dec.shape, N))

            def judge(out):
                N, det, target = out
                return det == target, {"nvars": N, "det": poly_json(det)}
            return run, judge

        return [Instance(it.id, it.bucket, *make(it.payload)) for it in items]


class ImmanantsN4:
    """All TL immanants (theorem 1.1), the cor3.5 sum and all KL immanants
    (conjecture 1.2) at nvars = 4."""

    name = "immanants-n4"
    parts = 2
    repeat_s = 0.2
    nvars = 4

    setup = staticmethod(corpus_items)

    def instances(self, items):
        from ribbonimm import klbase, ribbonmat, symfunc

        N = self.nvars

        def make(dec):
            def run():
                tl = ribbonmat.theorem1_harness(dec, N)
                odd_even = symfunc.expand_schur(
                    ribbonmat.odd_even_product(dec, N))
                kl = klbase.conjecture12_harness(dec, N)
                det = symfunc.expand_schur(
                    symfunc.determinant(ribbonmat.build(dec, N).matrix))
                return tl, odd_even, kl, det

            def judge(out):
                tl, odd_even, kl, det = out
                total = Counter()
                for im in tl["immanants"]:
                    for term in im["terms"]:
                        total[tuple(term["partition"])] += int(term["coeff"])
                nonzero = {k: c for k, c in total.items() if c}
                cor35 = nonzero == odd_even.coeffs
                first = kl["immanants"][0]
                det_ok = (first["perm"] == list(range(1, dec.ell + 1))
                          and first["expansion"] == str(det))
                ok = (tl["overall_positive"] and cor35 and kl["all_positive"]
                      and det_ok)
                return ok, {
                    "nvars": N,
                    "tl": [[im["perm"], im["expansion"]]
                           for im in tl["immanants"]],
                    "kl": [[im["perm"], im["expansion"]]
                           for im in kl["immanants"]],
                    "odd_even": str(odd_even),
                }
            return run, judge

        return [Instance(it.id, it.bucket, *make(it.payload)) for it in items]


class ModelsCrosscheck:
    """Three-way TL agreement (definition, shuffle fillings, path covers)
    and the crystal expansion, at nvars = min(4, tallest column + 1)
    (criteria 3 and 5)."""

    name = "models-crosscheck"
    parts = 2
    repeat_s = 0.2

    setup = staticmethod(corpus_items)

    def instances(self, items):
        from ribbonimm import network, ribbonmat, shuffle, symfunc, tlalgebra

        def make(dec):
            N = min(4, _tallest_column(dec.shape) + 1)

            def run():
                rm = ribbonmat.build(dec, N)
                types = [tlalgebra.perm_to_matching(u)
                         for u in tlalgebra.enumerate_321_avoiding(dec.ell)]
                by_def = {t: tlalgebra.imm_tl(t, rm.matrix) for t in types}
                by_shuffle = shuffle.tableaux_by_type(dec, N)
                by_covers = network.covers_by_type(dec, N)
                by_crystal = shuffle.schur_expand_by_crystal(dec, N)
                direct = {t: symfunc.expand_schur(p)
                          for t, p in by_shuffle.items()}
                return by_def, by_shuffle, by_covers, by_crystal, direct

            def judge(out):
                by_def, by_shuffle, by_covers, by_crystal, direct = out
                zero = symfunc.SymPoly.zero(N)
                agree = all(
                    p == by_shuffle.get(t, zero) == by_covers.get(t, zero)
                    for t, p in by_def.items())
                closed = set(by_shuffle) | set(by_covers) <= set(by_def)
                ok = agree and closed and by_crystal == direct
                return ok, {
                    "nvars": N,
                    "types": sorted([str(t), poly_json(p)]
                                    for t, p in by_def.items()),
                    "crystal": sorted([str(t), str(e)]
                                      for t, e in by_crystal.items()),
                }
            return run, judge

        return [Instance(it.id, it.bucket, *make(it.payload)) for it in items]


class RemarksKLTable:
    """The two remark certificates and the complementary product at
    nvars = 5, plus the full KL table of S_6 (fixed input)."""

    name = "remarks-kltable"
    parts = 1
    repeat_s = 1.0  # few instances: afford more samples of the mid ones

    @staticmethod
    def setup(size):
        from ribbonimm import ribbonmat

        nvars, kl_n = REMARK_SIZE[size]
        rows, cols = ribbonmat.remark_bad_minor_indices()  # fixture load
        return [Item(f"remarks@N{nvars}", "remarks", (nvars, rows, cols)),
                Item(f"kl.table@n{kl_n}", "kl-table", kl_n)]

    def instances(self, items):
        from ribbonimm import klbase, ribbonmat, symfunc, tlalgebra

        (nvars, rows, cols), kl_n = items[0].payload, items[1].payload
        comp_rows = tuple(sorted(set(range(1, 5)) - set(rows)))
        comp_cols = tuple(sorted(set(range(1, 5)) - set(cols)))
        pinned = PINNED_NEGATIVES[nvars]
        tag = f"@N{nvars}"

        # each instance builds the matrix it needs, as `ribbonimm remarks`
        # does, so every instance runs on its own from cold caches
        def imm_2143():
            A, _ = ribbonmat.remark_matrices(N_first=nvars, N_second=nvars)
            tau = tlalgebra.perm_to_matching((2, 1, 4, 3))
            return symfunc.expand_schur(tlalgebra.imm_tl(tau, A))

        def bad_minor():
            _, Abad = ribbonmat.remark_matrices(N_first=nvars, N_second=nvars)
            return symfunc.expand_schur(tlalgebra.minor(Abad, rows, cols))

        def complementary_product():
            _, Abad = ribbonmat.remark_matrices(N_first=nvars, N_second=nvars)
            return symfunc.expand_schur(
                tlalgebra.minor(Abad, rows, cols)
                * tlalgebra.minor(Abad, comp_rows, comp_cols))

        def negatives(key):
            return lambda exp: (exp.negative_part() == pinned[key],
                                exp.to_json())

        def kl_table():
            return klbase.kl_polynomials(kl_n)

        def judge_kl(table):
            m = min(kl_n, 5)
            oracle = (klbase.kl_polynomials(m).polys
                      == klbase.kl_polynomials_hecke(m).polys)
            dump = "\n".join(table.dump()).encode()
            return oracle, {"size": len(table.polys),
                            "sha256": hashlib.sha256(dump).hexdigest()}

        bucket = items[0].bucket
        return [
            Instance("remarks.imm_2143" + tag, bucket, imm_2143,
                     negatives("imm_2143")),
            Instance("remarks.bad_minor" + tag, bucket, bad_minor,
                     negatives("bad_minor")),
            Instance("remarks.complementary_product" + tag, bucket,
                     complementary_product,
                     lambda exp: (exp.schur_positive, exp.to_json())),
            Instance(items[1].id, items[1].bucket, kl_table, judge_kl),
        ]


WORKLOADS = {w.name: w for w in (DetFaithful(), ImmanantsN4(),
                                 ModelsCrosscheck(), RemarksKLTable())}


def select(workload, items, seed: int) -> list:
    """The shards of a workload's items; fixed-input workloads ignore the
    seed and run in their fixed order."""
    if workload.parts == 1:
        return [list(items)]
    return shards(items, seed, workload.parts)
