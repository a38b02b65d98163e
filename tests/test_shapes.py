import pytest
from hypothesis import given, strategies as st

from conftest import row_interval
from ribbonimm.errors import EmptySection, IncompatibleShape, NotSkew
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
    assert SkewShape((2, 1)).is_ribbon()
    assert not SkewShape((2, 2)).is_ribbon()
    assert SkewShape((2, 2)).is_connected()
    assert not SkewShape((3, 1), (2, 0)).is_connected()


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


def test_ribbon_shift():
    r = InfiniteRibbon(0, (BELOW,), tail_lo=LEFT, tail_hi=LEFT)
    assert r.shift(3).step(4) == r.step(1)


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
