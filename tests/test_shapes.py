import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import row_interval
from oracles import is_connected
from ribbonimm import corpus
from ribbonimm.errors import (BudgetExceeded, EmptySection, IncompatibleShape,
                             NotSkew)
from ribbonimm.shapes import (BELOW, LEFT, InfiniteRibbon, SkewShape,
                              decompose, normalize_partition,
                              ribbon_section_shape, shape_from_tuples)


def test_normalize_partition():
    assert normalize_partition([3, 1, 0, 0]) == (3, 1)
    assert normalize_partition([]) == ()
    with pytest.raises(ValueError):
        normalize_partition([1, 2])


def test_skew_shape_basics():
    sh = SkewShape((3, 2), (1, 0))
    assert sh.size == 4
    assert sh.n_rows == 2
    assert row_interval(sh, 1) == (2, 3)
    assert (2, 1) in sh and (1, 1) not in sh
    assert [(i, j, c) for i, j, c in sh.cells()] == [
        (1, 2, 1), (1, 3, 2), (2, 1, -1), (2, 2, 0)]


def test_skew_shape_validation():
    with pytest.raises(ValueError):
        SkewShape((1, 2))
    with pytest.raises(NotSkew):
        SkewShape((2,), (3,))


def test_from_cells_roundtrip():
    sh = SkewShape((4, 3, 1), (2, 1, 0))
    assert SkewShape.from_cells(sh.cell_set()) == sh


def test_from_cells_rejects_non_skew():
    # two opposite corners of a square do not form a skew diagram
    with pytest.raises(NotSkew):
        SkewShape.from_cells({(1, 1), (2, 2)})
    with pytest.raises(NotSkew):
        SkewShape.from_cells({(1, 1), (1, 3)})


def test_ribbon_and_connected():
    assert is_connected(SkewShape((2, 2)))
    assert not is_connected(SkewShape((3, 1), (2, 0)))


def test_skew_shape_connected_iff_contents_are_an_interval():
    # the corpus's pair rule reads connectivity off the section contents
    parts = [tuple(reversed(p)) for p in
             itertools.combinations_with_replacement(range(5), 4)]
    for outer in parts:
        for inner in parts:
            if all(m <= l for l, m in zip(outer, inner)) and outer != inner:
                shape = SkewShape(outer, inner)
                contents = {c for _, _, c in shape.cells()}
                interval = len(contents) == max(contents) - min(contents) + 1
                assert is_connected(shape) == interval, (outer, inner)


def test_from_cells_keeps_absolute_coordinates():
    # rows 1-2 and column 1 are empty: nothing is translated
    cells = {(3, 3), (3, 4), (4, 2), (4, 3), (5, 2)}
    sh = SkewShape.from_cells(cells)
    assert sh.cell_set() == cells
    assert sh == SkewShape((4, 4, 4, 3, 2), (4, 4, 2, 1, 1))
    for bad in ({(0, 1), (1, 1)}, {(1, 0), (1, 1)}):
        with pytest.raises(NotSkew):
            SkewShape.from_cells(bad)


def test_ribbon_canonical_form():
    # leading tail_lo steps and trailing tail_hi steps are absorbed
    r = InfiniteRibbon(0, (LEFT, BELOW, LEFT), tail_lo=LEFT, tail_hi=LEFT)
    assert r.steps == (BELOW,)
    assert r.window_lo == 1
    r2 = InfiniteRibbon(1, (BELOW,), tail_lo=LEFT, tail_hi=LEFT)
    assert r == r2


def test_ribbon_step_walk():
    r = InfiniteRibbon(0, (BELOW, LEFT), tail_lo=LEFT, tail_hi=BELOW)
    assert r.box(0) == (0, 0)
    # BELOW steps move one row up, LEFT steps one column right
    assert r.box(1) == (-1, 0)
    assert r.box(2) == (-1, 1)
    assert r.box(3) == (-2, 1)
    assert r.box(-1) == (0, -1)


@given(st.integers(-6, 6))
def test_ribbon_box_content(i):
    r = InfiniteRibbon(0, (BELOW, LEFT, BELOW), tail_lo=BELOW, tail_hi=LEFT)
    row, col = r.box(i)
    assert col - row == i


def _walked_box(ribbon, i):
    """Box of content i, one step at a time from r_0 = (0, 0)."""
    r = q = 0
    for k in range(1, i + 1):
        r, q = (r - 1, q) if ribbon.step(k) == BELOW else (r, q + 1)
    for k in range(0, i, -1):
        r, q = (r + 1, q) if ribbon.step(k) == BELOW else (r, q - 1)
    return r, q


def test_ribbon_box_counts_the_walk(hook_ribbon):
    ribbons = [*corpus.enumerate_ribbons(5), hook_ribbon]
    assert len(ribbons) == 67
    for ribbon in ribbons:
        for t in (-7, 0, 4):
            # the ribbon shifted by t: step(i) of R is step(i - t) of ribbon
            R = InfiniteRibbon(ribbon.window_lo + t, ribbon.steps,
                               ribbon.tail_lo, ribbon.tail_hi)
            assert [R.step(i) for i in range(-30, 31)] == [
                ribbon.step(i - t) for i in range(-30, 31)], R
            assert [R.box(i) for i in range(-30, 31)] == [
                _walked_box(R, i) for i in range(-30, 31)], R


def test_ribbon_box_far_from_the_window(hook_ribbon):
    # counted, not walked: no recursion depth or cache grows with |i|
    # three BELOW steps in the window at 1..5, then the LEFT tail
    assert hook_ribbon.box(10 ** 6) == (-3, 10 ** 6 - 3)
    # the BELOW tail below -2, and one more BELOW in the window at -2..0
    assert hook_ribbon.box(-10 ** 6) == (10 ** 6 - 2, -2)
    assert hook_ribbon.box(500) == _walked_box(hook_ribbon, 500)


def test_section_shape():
    row = InfiniteRibbon(tail_lo=LEFT, tail_hi=LEFT)
    sh = ribbon_section_shape(row, 0, 4)
    assert sh == SkewShape((4,))
    with pytest.raises(EmptySection):
        ribbon_section_shape(row, 2, 2)


def test_decompose_pin(hook_dec):
    assert hook_dec.abar == (0, -4, -3, 3)
    assert hook_dec.bbar == (3, 5, 9, 6)
    assert hook_dec.copies == (2, 3, 4, 5)


def test_decompose_row_ribbon_always_works(row_ribbon):
    dec = decompose(SkewShape((3, 3, 1), (1, 0, 0)), row_ribbon)
    assert dec.ell == 3
    assert sum(b - a for a, b in zip(dec.abar, dec.bbar)) == 6


def test_decompose_incompatible():
    ribbon = InfiniteRibbon(0, (BELOW, LEFT, BELOW),
                            tail_lo=LEFT, tail_hi=LEFT)
    with pytest.raises(IncompatibleShape):
        decompose(SkewShape((2, 1)), ribbon)


def test_shape_from_tuples_roundtrip(hook_dec):
    rebuilt = shape_from_tuples(hook_dec.ribbon, hook_dec.abar,
                                hook_dec.bbar)
    assert rebuilt == hook_dec.shape


def test_json_roundtrips(hook_dec):
    sh, r = hook_dec.shape, hook_dec.ribbon
    assert SkewShape.from_json(sh.to_json()) == sh
    assert InfiniteRibbon.from_json(r.to_json()) == r
    blob = hook_dec.to_json()
    assert blob["a"] == [0, -4, -3, 3]
    assert blob["b"] == [3, 5, 9, 6]


def test_from_json_takes_json_integers_and_lists_only():
    ribbon = {"window_lo": 0, "steps": ["B", "L"], "tail_lo": "L",
              "tail_hi": "B"}
    assert InfiniteRibbon.from_json(ribbon) == InfiniteRibbon(
        0, "BL", tail_lo=LEFT, tail_hi=BELOW)
    for bad in [{"outer": ["3", "2"], "inner": ["1"]}, {"outer": [True, 1]},
                {"outer": [2], "inner": [1.0]}, {"outer": "21"}, [2, 1]]:
        with pytest.raises(TypeError):
            SkewShape.from_json(bad)
    for key, value in [("window_lo", "0"), ("window_lo", True),
                       ("steps", "LB"), ("steps", [1]), ("tail_lo", ["L"])]:
        with pytest.raises(TypeError):
            InfiniteRibbon.from_json({**ribbon, key: value})
    with pytest.raises(TypeError):
        InfiniteRibbon.from_json([ribbon])


def test_decompose_charges_the_cells_before_listing_them(row_ribbon,
                                                         monkeypatch):
    monkeypatch.setattr(SkewShape, "cells", None)   # never listed
    with pytest.raises(BudgetExceeded, match="decompose: 99999999999 cells"):
        decompose(SkewShape((99999999999,)), row_ribbon)
