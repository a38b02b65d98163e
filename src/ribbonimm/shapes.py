"""Partitions, skew shapes, infinite ribbons and ribbon decompositions.

Coordinates follow the English convention: row i increases downward, column
j increases rightward, and the content of a cell (i, j) is j - i.  An
infinite ribbon is encoded by its step map content -> {L, B}: the step at
content i records whether box r_{i-1} sits left of or below box r_i.  The
map is eventually constant on both sides (the two tails), so a finite
window suffices.  Copies of a ribbon are its diagonal translates
R + (m, m); these are the only content-preserving translates, and they
tile the plane with one box of each content per copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (EmptySection, IncompatibleShape, NonConsecutiveCopies,
                     NotSkew, charge)

LEFT = "L"
BELOW = "B"
STEP_DIRS = (LEFT, BELOW)


def normalize_partition(parts) -> tuple:
    """Trim trailing zeros and validate weak decrease with positive parts."""
    parts = tuple(int(p) for p in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    for k in range(len(parts) - 1):
        if parts[k] < parts[k + 1]:
            raise ValueError(f"not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    return parts


def _json_field(obj, key, kind, default=None):
    """obj[key], or default if given and the key is missing, of exactly
    the type kind (a JSON true is not an integer)."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected an object, not {type(obj).__name__}")
    value = obj[key] if default is None else obj.get(key, default)
    if type(value) is not kind:
        raise TypeError(f"{key} must be {kind.__name__}, "
                        f"not {type(value).__name__}")
    return value


def _json_list(obj, key, kind, default=None):
    """obj[key] as a tuple: a list of values of exactly the type kind."""
    value = _json_field(obj, key, list, default)
    for v in value:
        if type(v) is not kind:
            raise TypeError(f"{key} must list {kind.__name__} values, "
                            f"not {type(v).__name__}")
    return tuple(value)


@dataclass(frozen=True)
class SkewShape:
    """Skew diagram outer/inner, with cells {(i, j) : inner_i < j <= outer_i}.

    Rows with outer_i == inner_i are empty; their common value is
    normalized so that equal cell sets (at equal absolute coordinates)
    compare equal.
    """

    outer: tuple
    inner: tuple

    def __init__(self, outer, inner=()):
        outer = normalize_partition(outer)
        inner = normalize_partition(inner)
        if len(inner) > len(outer):
            raise NotSkew(f"inner longer than outer: {inner} vs {outer}")
        inner = inner + (0,) * (len(outer) - len(inner))
        if any(m > l for l, m in zip(outer, inner)):
            raise NotSkew(f"inner not contained in outer: {inner} vs {outer}")
        # drop trailing empty rows, then normalize remaining empty rows
        n = len(outer)
        while n and outer[n - 1] == inner[n - 1]:
            n -= 1
        outer, inner = list(outer[:n]), list(inner[:n])
        for k in range(n - 2, -1, -1):
            if outer[k] == inner[k]:
                outer[k] = inner[k] = outer[k + 1]
        object.__setattr__(self, "outer", tuple(outer))
        object.__setattr__(self, "inner", tuple(inner))

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    @property
    def n_rows(self) -> int:
        return len(self.outer)

    def cells(self):
        """All cells as (row, col, content) in row-major order."""
        out = []
        for i, (l, m) in enumerate(zip(self.outer, self.inner), start=1):
            for j in range(m + 1, l + 1):
                out.append((i, j, j - i))
        return out

    def cell_set(self):
        return {(i, j) for i, j, _ in self.cells()}

    def __contains__(self, cell):
        i, j = cell
        if not 1 <= i <= len(self.outer):
            return False
        return self.inner[i - 1] < j <= self.outer[i - 1]

    @classmethod
    def from_cells(cls, cells):
        """SkewShape with exactly the given (row, col) cells, kept at their
        absolute coordinates.  Rows and columns start at 1, so a cell in
        row or column 0 or below raises NotSkew, as a gap in a row does."""
        cells = set(cells)
        if not cells:
            return cls((), ())
        span = {}
        for i, j in cells:
            lo, hi = span.get(i, (j, j))
            span[i] = (min(lo, j), max(hi, j))
        max_row = max(span)
        outer, inner = [0] * max_row, [0] * max_row
        nxt = 0  # outer value forced on empty rows, scanning bottom-up
        for i in range(max_row, 0, -1):
            if i in span:
                lo, hi = span[i]
                outer[i - 1], inner[i - 1] = hi, lo - 1
                nxt = hi
            else:
                outer[i - 1] = inner[i - 1] = nxt
        try:
            shape = cls(tuple(outer), tuple(inner))
        except ValueError as exc:
            raise NotSkew(f"cell set is not a skew diagram: {exc}") from exc
        if shape.cell_set() != cells:
            raise NotSkew("cell set is not a skew diagram")
        return shape

    def to_json(self):
        return {"outer": list(self.outer), "inner": list(self.inner)}

    @classmethod
    def from_json(cls, obj):
        """Shape from {"outer": [...], "inner": [...]}, lists of JSON
        integers; "inner" may be omitted."""
        return cls(_json_list(obj, "outer", int),
                   _json_list(obj, "inner", int, []))


@dataclass(frozen=True)
class InfiniteRibbon:
    """Doubly infinite ribbon given by its step map.

    steps[k] is the step at content window_lo + 1 + k; contents at or below
    window_lo take tail_lo and contents above window_lo + len(steps) take
    tail_hi.  The representation is canonical: steps never start with
    tail_lo nor end with tail_hi.
    """

    window_lo: int
    steps: tuple
    tail_lo: str
    tail_hi: str

    def __init__(self, window_lo=0, steps=(), tail_lo=LEFT, tail_hi=LEFT):
        steps = tuple(steps)
        if tail_lo not in STEP_DIRS or tail_hi not in STEP_DIRS:
            raise ValueError("tails must be 'L' or 'B'")
        if any(s not in STEP_DIRS for s in steps):
            raise ValueError("steps must be 'L' or 'B'")
        while steps and steps[0] == tail_lo:
            steps = steps[1:]
            window_lo += 1
        while steps and steps[-1] == tail_hi:
            steps = steps[:-1]
        object.__setattr__(self, "window_lo", int(window_lo))
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "tail_lo", tail_lo)
        object.__setattr__(self, "tail_hi", tail_hi)

    @property
    def window_hi(self) -> int:
        return self.window_lo + len(self.steps)

    def step(self, i: int) -> str:
        """Relation of box r_{i-1} to box r_i: LEFT or BELOW."""
        if i <= self.window_lo:
            return self.tail_lo
        if i <= self.window_hi:
            return self.steps[i - self.window_lo - 1]
        return self.tail_hi

    def box(self, i: int):
        """Position (row, col) of the content-i box, anchored r_0 = (0, 0):
        (-b, i - b) for b the BELOW steps at contents 1..i, each one row up
        (negated, over contents i+1..0, when i < 0)."""
        lo, hi = sorted((0, i))
        wlo, whi = self.window_lo, self.window_hi
        b = (self.steps[max(lo, wlo) - wlo:max(min(hi, whi), wlo) - wlo]
             .count(BELOW)
             + (self.tail_lo == BELOW) * max(min(hi, wlo) - lo, 0)
             + (self.tail_hi == BELOW) * max(hi - max(lo, whi), 0))
        return (-b, i - b) if i >= 0 else (b, i + b)

    def to_json(self):
        return {
            "window_lo": self.window_lo,
            "steps": list(self.steps),
            "tail_lo": self.tail_lo,
            "tail_hi": self.tail_hi,
        }

    @classmethod
    def from_json(cls, obj):
        """Ribbon from {"window_lo": int, "steps": ["L", "B", ...],
        "tail_lo": "L" or "B", "tail_hi": ...}; window_lo defaults to 0
        and steps to []."""
        return cls(_json_field(obj, "window_lo", int, 0),
                   _json_list(obj, "steps", str, []),
                   _json_field(obj, "tail_lo", str),
                   _json_field(obj, "tail_hi", str))


def ribbon_section_shape(ribbon: InfiniteRibbon, a: int, b: int) -> SkewShape:
    """Standalone shape of the ribbon section [a, b), its rows and columns
    translated independently to start at 1: read from content a up, a
    LEFT step extends the current row one column right, and a BELOW step
    starts the row above at the same column."""
    if a >= b:
        raise EmptySection(f"section [{a}, {b}) is empty")
    rows = [[1, 1]]  # [first column, last column], the bottom row first
    for c in range(a + 1, b):
        col = rows[-1][1]
        if ribbon.step(c) == LEFT:
            rows[-1][1] = col + 1
        else:
            rows.append([col, col])
    return SkewShape(tuple(hi for _, hi in reversed(rows)),
                     tuple(lo - 1 for lo, _ in reversed(rows)))


def odd_even_shapes(ribbon: InfiniteRibbon, abar, bbar):
    """Shapes assembled from the odd-indexed and from the even-indexed
    sections [a_k, b_k) (an empty shape when there are none)."""
    return tuple(shape_from_tuples(ribbon, abar[p::2], bbar[p::2])
                 if abar[p:] else SkewShape((), ()) for p in (0, 1))


@dataclass(frozen=True)
class RibbonDecomposition:
    """A skew shape cut along the copies R + (m, m) of an infinite ribbon.

    sections lists (copy index m, a, b) inside out, i.e. by increasing m;
    section k occupies the content interval [a_k, b_k) of its copy.
    """

    shape: SkewShape
    ribbon: InfiniteRibbon
    sections: tuple

    @property
    def ell(self) -> int:
        return len(self.sections)

    @property
    def abar(self) -> tuple:
        return tuple(a for _, a, _ in self.sections)

    @property
    def bbar(self) -> tuple:
        return tuple(b for _, _, b in self.sections)

    @property
    def copies(self) -> tuple:
        return tuple(m for m, _, _ in self.sections)

    def to_json(self):
        return {
            "shape": self.shape.to_json(),
            "ribbon": self.ribbon.to_json(),
            "a": list(self.abar),
            "b": list(self.bbar),
            "copies": list(self.copies),
        }


def decompose(shape: SkewShape, ribbon: InfiniteRibbon) -> RibbonDecomposition:
    """Cut shape along the copies of ribbon; raise if incompatible.  The
    cells are charged to the budget before they are listed."""
    if shape.size == 0:
        raise IncompatibleShape("shape is empty")
    charge("decompose", shape.size, "cells")
    by_copy = {}
    for i, j, c in shape.cells():
        r, q = ribbon.box(c)
        m = i - r
        if j - q != m:
            raise IncompatibleShape(
                f"cell {(i, j)} lies on no diagonal copy of the ribbon"
            )
        by_copy.setdefault(m, []).append(c)
    ms = sorted(by_copy)
    if ms != list(range(ms[0], ms[-1] + 1)):
        raise NonConsecutiveCopies(f"occupied copies {ms} are not consecutive")
    sections = []
    for m in ms:
        cs = sorted(by_copy[m])
        if cs != list(range(cs[0], cs[-1] + 1)):
            raise IncompatibleShape(
                f"copy {m} meets the shape in non-contiguous contents {cs}"
            )
        sections.append((m, cs[0], cs[-1] + 1))
    return RibbonDecomposition(shape, ribbon, tuple(sections))


def shape_from_tuples(ribbon: InfiniteRibbon, abar, bbar) -> SkewShape:
    """Place section [a_k, b_k) on copy k and assemble the skew shape.

    The cells are translated diagonally only, by the least t that brings
    every row and column to 1 or more, so decompose round-trips the tuples
    exactly.  Sections on distinct copies never share a cell: a cell's
    content fixes its ribbon box, and the diagonal shift then its copy.
    """
    abar, bbar = tuple(abar), tuple(bbar)
    if len(abar) != len(bbar) or not abar:
        raise ValueError("tuple lengths must agree and be positive")
    if any(a >= b for a, b in zip(abar, bbar)):
        raise EmptySection(f"empty section in a={abar}, b={bbar}")
    cells_ = {(r + k, q + k)
              for k, (a, b) in enumerate(zip(abar, bbar), start=1)
              for r, q in map(ribbon.box, range(a, b))}
    t = max(1 - min(i for i, _ in cells_), 1 - min(j for _, j in cells_))
    return SkewShape.from_cells({(i + t, j + t) for i, j in cells_})
