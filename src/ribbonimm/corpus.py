"""Deterministic sweep corpus: small connected decompositions.

Canonical infinite ribbons with short step windows are taken in a fixed
order; for each, placements of 1..max_ell consecutive sections with at
most max_cells total cells are searched depth first.  A section may
follow the one before it iff the two form a connected skew shape on
consecutive copies, so only such placements are searched and only kept
instances are built.  A placement's bucket (section count, cell count)
is known from its section tuples alone, so a full bucket is skipped,
and the search stops descending once no bucket it could still reach is
open.  Every ribbon is canonical with window_lo = 0 and each section
sequence is visited once, so no decomposition is produced twice and
the corpus is reproducible run to run.
"""

from __future__ import annotations

import functools
import itertools

from .errors import BudgetExceeded, NotSkew, budget
from .shapes import BELOW, LEFT, InfiniteRibbon, decompose, shape_from_tuples


def enumerate_ribbons(max_window: int):
    """Canonical ribbons (window_lo = 0) with at most max_window steps:
    the step words that neither start with tail_lo nor end with tail_hi."""
    for tail_lo, tail_hi in itertools.product((LEFT, BELOW), repeat=2):
        for k in range(max_window + 1):
            for steps in itertools.product((LEFT, BELOW), repeat=k):
                if not steps or (steps[0] != tail_lo and steps[-1] != tail_hi):
                    yield InfiniteRibbon(0, steps, tail_lo, tail_hi)


@functools.lru_cache(maxsize=None)
def sweep_corpus(max_cells: int = 8, max_window: int = 5, max_ell: int = 4,
                 per_bucket: int = 16) -> tuple:
    """The first per_bucket decompositions of every (section count, cell
    count) bucket in enumeration order, grouped by bucket.

    Section k+1 may follow section k iff the two form a connected skew
    shape on copies k and k+1 (`follows`, once per previous section).
    Cells between those copies lie on one of them, so a skew union has
    skew consecutive pairs; the tests check the converse against the
    whole-shape rule, and a kept instance is built whole, so a wrong
    admission would raise NotSkew.  A full bucket is skipped, and a
    prefix of ell sections and `used` cells is extended only while some
    open bucket has more sections and one more cell per extra section.
    Buckets take their first per_bucket candidates and never reopen, so
    neither skip changes which instances are selected or their order.
    Each placed section is a search node, counted against the budget.
    """
    if per_bucket < 1:
        raise ValueError("per_bucket must be positive")
    buckets = {(ell, size): [] for ell in range(1, max_ell + 1)
               for size in range(ell, max_cells + 1)}
    open_ = set(buckets)
    limit, nodes = budget(), 0

    def reachable(ell, used):
        return any(e > ell and s - used >= e - ell for e, s in open_)

    for R in enumerate_ribbons(max_window):
        if not reachable(0, 0):
            break
        lo, hi = -2, R.window_hi + 2  # beyond this the tails repeat
        pairs = [(a, b) for a in range(lo, hi + 1)
                 for b in range(a + 1, hi + 2) if b - a <= max_cells]

        @functools.lru_cache(maxsize=None)
        def follows(pa, pb):
            # a skew shape is connected iff its contents form an interval
            out = []
            for a, b in pairs:
                if a <= pb and b >= pa:
                    try:
                        shape_from_tuples(R, (pa, a), (pb, b))
                    except NotSkew:
                        continue
                    out.append((a, b))
            return out

        def rec(sections, used):
            nonlocal nodes
            for a, b in follows(*sections[-1]) if sections else pairs:
                if used + (b - a) > max_cells:
                    continue
                nodes += 1
                if nodes > limit:
                    raise BudgetExceeded(
                        f"sweep_corpus({max_cells=}, {max_window=}, "
                        f"{max_ell=}, {per_bucket=}): more than {limit} "
                        "search nodes")
                sections.append((a, b))
                key = (len(sections), used + (b - a))
                if key in open_:
                    abar, bbar = zip(*sections)
                    dec = decompose(shape_from_tuples(R, abar, bbar), R)
                    assert dec.abar == abar and dec.bbar == bbar
                    buckets[key].append(dec)
                    if len(buckets[key]) == per_bucket:
                        open_.discard(key)
                if reachable(*key):
                    rec(sections, key[1])
                sections.pop()

        rec([], 0)
    return tuple(dec for key in sorted(buckets) for dec in buckets[key])
