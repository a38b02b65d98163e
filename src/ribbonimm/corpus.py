"""Deterministic sweep corpus: small connected decompositions.

Canonical infinite ribbons with short step windows are taken in a fixed
order; for each, placements of 1..max_ell consecutive sections with at
most max_cells total cells are searched depth first, and those whose
assembled shape is a connected skew diagram are kept.  A placement's
bucket (section count, cell count) is known from its section tuples
alone, so a bucket that already holds per_bucket instances is skipped
before any shape is built, and the search stops descending once no
bucket it could still reach is open.  Every ribbon is canonical with
window_lo = 0 and each section sequence is visited once, so no
decomposition is produced twice and the corpus is reproducible run to
run.
"""

from __future__ import annotations

import functools
import itertools

from .errors import NotSkew
from .shapes import (BELOW, LEFT, InfiniteRibbon, decompose,
                     shape_from_tuples)


def enumerate_ribbons(max_window: int):
    """Canonical ribbons (window_lo = 0) with at most max_window steps:
    the step words that neither start with tail_lo nor end with tail_hi."""
    for tail_lo, tail_hi in itertools.product((LEFT, BELOW), repeat=2):
        for k in range(max_window + 1):
            for steps in itertools.product((LEFT, BELOW), repeat=k):
                if not steps or (steps[0] != tail_lo and steps[-1] != tail_hi):
                    yield InfiniteRibbon(0, steps, tail_lo, tail_hi)


def _touches(R: InfiniteRibbon, outer_sec, inner_sec) -> bool:
    """True iff a section on copy m+1 (inner coordinates outer_sec is the
    copy-m one) shares an edge with the section below it.

    A copy-(m+1) cell of content c borders copy m exactly at content c+1
    when the step there is L, or at content c-1 when the step at c is B.
    """
    a0, b0 = outer_sec
    a1, b1 = inner_sec
    for c in range(a1, b1):
        if R.step(c + 1) == LEFT and a0 <= c + 1 < b0:
            return True
        if R.step(c) == BELOW and a0 <= c - 1 < b0:
            return True
    return False


@functools.lru_cache(maxsize=None)
def sweep_corpus(max_cells: int = 8, max_window: int = 5, max_ell: int = 4,
                 per_bucket: int = 16) -> tuple:
    """The first per_bucket decompositions of every (section count, cell
    count) bucket in enumeration order, grouped by bucket.

    Buckets fill bucket-first: a candidate whose bucket is full is
    skipped before its shape is built, and a prefix of ell sections and
    `used` cells is extended only while some open bucket has more
    sections and at least one more cell per extra section.  A bucket
    only ever takes its first per_bucket candidates and never reopens,
    so neither skip can change which instances are selected or their
    order.
    """
    if per_bucket < 1:
        raise ValueError("per_bucket must be positive")
    buckets = {(ell, size): [] for ell in range(1, max_ell + 1)
               for size in range(ell, max_cells + 1)}
    open_ = set(buckets)

    def reachable(ell, used):
        return any(e > ell and s - used >= e - ell for e, s in open_)

    def keep(R, sections, key):
        abar = tuple(a for a, _ in sections)
        bbar = tuple(b for _, b in sections)
        try:
            shape = shape_from_tuples(R, abar, bbar)
        except NotSkew:
            return
        if not shape.is_connected():
            return
        dec = decompose(shape, R)
        assert dec.abar == abar and dec.bbar == bbar
        buckets[key].append(dec)
        if len(buckets[key]) == per_bucket:
            open_.discard(key)

    for R in enumerate_ribbons(max_window):
        if not reachable(0, 0):
            break
        lo, hi = -2, R.window_hi + 2  # beyond this the tails repeat
        pairs = [(a, b) for a in range(lo, hi + 1)
                 for b in range(a + 1, hi + 2) if b - a <= max_cells]

        def rec(sections, used):
            for a, b in pairs:
                if used + (b - a) > max_cells:
                    continue
                if sections and not _touches(R, sections[-1], (a, b)):
                    continue
                sections.append((a, b))
                key = (len(sections), used + (b - a))
                if key in open_:
                    keep(R, sections, key)
                if reachable(*key):
                    rec(sections, key[1])
                sections.pop()

        rec([], 0)
    return tuple(dec for key in sorted(buckets) for dec in buckets[key])
