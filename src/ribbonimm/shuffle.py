"""Interleaved (shuffle) diagrams of a ribbon decomposition.

The odd-indexed sections are re-drawn at the (odd, odd) lattice positions
and the even-indexed sections at the (even, even) ones, so that the two
halves of the decomposition occupy complementary sublattices.  A filling
of the interleaved diagram that weakly increases along rows and strictly
increases down columns is exactly a pair of SSYT on the two halves.

Each section keeps a start node Q_k and an end node P_k on the boundary
of its drawn cells.  Reading the filling locally (compare the entry
south-west of each lattice corner with the entry north-east of it) lays
down strand segments whose endpoint-terminated paths form a noncrossing
matching on the nodes: the tableau's type.  Reading words and the
bracket-matching crystal operators act on the fillings without changing
that type.

The immanant pipeline is weight first: the polynomials are symmetric, so
only fillings with a partition weight are recorded, and only those are
built.  The red and blue SSYT are listed as value tuples, grouped by
weight vector, and a red group meets a blue group only when their summed
weight is a partition (symfunc.pair_by_weight); a filling is the tuple
red + blue.  The part of the strand picture that no filling changes
(blocks, sentinels, segments, node labels) is compiled once per diagram;
a filling supplies only its i <= j comparisons, read through the two
value slots of each compared block, so each diagram traces and checks
one picture per distinct pattern of comparisons and looks the type of
every other filling up.

The crystal expansion does not list the fillings to filter them: it
searches for the sources with symfunc's Littlewood-Richardson search
(LRProducts.search on the diagram's reading_layout, lattice step 2),
filling the diagram one cell at a time in reverse reading order and
placing a letter i+1 only while the word of i keeps at least as many i's
as (i+1)'s (the ballot pruning of Stembridge's proof of the LR rule).
The search counts the partial fillings it visits and charges them to the
budget.  Each filling it completes is built as a ShuffleTableau (whose
constructor checks that it is semistandard), confirmed by the one-pass
Yamanouchi test and typed by tl_type.  Only the crystal operators build
reading words.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StrandTraceError, ValidityError
from .shapes import BELOW, RibbonDecomposition, SkewShape
from .symfunc import (LRProducts, SchurExpansion, charge_budget,
                      enumerate_ssyt, pair_by_weight, reading_layout, tally)
from .tlalgebra import NoncrossingMatching, matching, trace_strands

NEG = float("-inf")
POS = float("inf")


class ShuffleDiagram:
    """Interleaving of the odd (red) and even (blue) section shapes.

    Red cells sit at (odd, odd) positions and blue cells at (even, even);
    red_shape/blue_shape are the halved representatives, so the red cell
    for (i, j) of red_shape is (2i-1, 2j-1) and the blue cell for (i, j)
    of blue_shape is (2i, 2j).  P and Q list the node positions, one pair
    per section.  strand_picture is the part of the strand picture that
    no filling changes, compiled by the constructor (_compile_picture).
    """

    __slots__ = ("decomposition", "red_shape", "blue_shape", "cells", "P",
                 "Q", "row_off", "col_off", "reading_order",
                 "strand_picture", "_types")

    def __init__(self, dec: RibbonDecomposition):
        self.decomposition = dec
        R = dec.ribbon
        # offsets chosen so odd sections land on the odd sublattice; the
        # shift into rows and columns >= 1 found below is even
        off = (1 + dec.copies[0]) % 2
        cells, P, Q = [], [], []
        for k, (m, a, b) in enumerate(dec.sections, start=1):
            section = [(2 * r + m + off, 2 * q + m + off)
                       for r, q in map(R.box, range(a, b))]
            cells += [(pos, (k, c)) for pos, c in zip(section, range(a, b))]
            (i, j), (i2, j2) = section[0], section[-1]
            Q.append((i + 1, j) if R.step(a) == BELOW else (i, j - 1))
            P.append((i2 - 1, j2) if R.step(b) == BELOW else (i2, j2 + 1))
        coords = [pos for pos, _ in cells] + P + Q
        dr = max(0, 1 - min(r for r, _ in coords))
        dc = max(0, 1 - min(c for _, c in coords))
        dr, dc = dr + dr % 2, dc + dc % 2
        self.row_off, self.col_off = off + dr, off + dc

        self.cells = {}
        for (r, c), (k, content) in cells:
            pos = (r + dr, c + dc)
            assert pos not in self.cells
            assert pos[0] % 2 == pos[1] % 2 == k % 2
            self.cells[pos] = (k, content)
        self.P = tuple((r + dr, c + dc) for r, c in P)
        self.Q = tuple((r + dr, c + dc) for r, c in Q)
        pts = set(self.P) | set(self.Q)
        if len(pts) != 2 * dec.ell or pts & set(self.cells):
            raise StrandTraceError("node positions collide")

        self.red_shape = SkewShape.from_cells(
            {((r + 1) // 2, (c + 1) // 2) for (r, c), (k, _) in
             self.cells.items() if k % 2 == 1})
        self.blue_shape = SkewShape.from_cells(
            {(r // 2, c // 2) for (r, c), (k, _) in self.cells.items()
             if k % 2 == 0})
        # (cell, cell above, cell below): rows bottom to top, each left to
        # right; column neighbours are two lattice steps apart
        self.reading_order = tuple(
            ((r, c), (r - 2, c), (r + 2, c))
            for r, c in sorted(self.cells, key=lambda p: (-p[0], p[1])))
        self.strand_picture = _compile_picture(self)
        self._types = {}  # choice pattern -> traced type, see tl_type


class ShuffleTableau:
    """Filling of an interleaved diagram, entries positive integers;
    ValidityError if it does not cover the diagram semistandardly.

    Nothing mutates the entries after construction, so the reading word of
    each index is built once and kept in words."""

    __slots__ = ("diagram", "entries", "words")

    def __init__(self, diagram: ShuffleDiagram, entries):
        self.diagram = diagram
        self.entries = dict(entries)
        self.words = {}
        if self.entries.keys() != diagram.cells.keys():
            raise ValidityError("filling does not cover the diagram")
        # rows weakly increase, columns strictly increase; consecutive
        # cells of a diagram row or column are two lattice steps apart
        # (the gap position belongs to the other sublattice)
        for (r, c), v in self.entries.items():
            if not (isinstance(v, int) and v >= 1
                    and self.entries.get((r, c + 2), v) >= v
                    and self.entries.get((r + 2, c), v + 1) > v):
                raise ValidityError("filling is not semistandard")

    def __eq__(self, other):
        return (isinstance(other, ShuffleTableau)
                and self.diagram.decomposition == other.diagram.decomposition
                and self.entries == other.entries)

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def weight(self, N: int) -> tuple:
        return _weight(self.entries.values(), N)


def _weight(entries, N: int) -> tuple:
    """How many of the entries equal 1, 2, ..., N."""
    alpha = [0] * N
    for v in entries:
        if not 1 <= v <= N:
            raise ValueError(f"entry {v} is outside 1..{N}")
        alpha[v - 1] += 1
    return tuple(alpha)


def _charge(d: ShuffleDiagram, N: int) -> bool:
    """Count the fillings in N variables, the product of the red and the
    blue SSYT counts, and charge them to the budget (charge_budget)."""
    return charge_budget("fillings", N, {"red": d.red_shape,
                                         "blue": d.blue_shape})


def _halves(d: ShuffleDiagram, N: int):
    """(cells, reds, blues): the red and the blue SSYT as enumerate_ssyt's
    value tuples, and the diagram cells that the values of red + blue fill
    (the red cells, then the blue ones, each half in its cells() order).

    Both halves are counted and charged to the budget before either is
    listed."""
    cells = ([(2 * i - 1, 2 * j - 1) for i, j, _ in d.red_shape.cells()]
             + [(2 * i, 2 * j) for i, j, _ in d.blue_shape.cells()])
    if not _charge(d, N):
        return cells, iter(()), iter(())
    return (cells, enumerate_ssyt(d.red_shape, N),
            enumerate_ssyt(d.blue_shape, N))


# -------------------------------------------------------------- type reading

def _virtual_entry(d: ShuffleDiagram, pos) -> float:
    """Sentinel entry of a cell-parity lattice position outside the diagram.

    The position is pulled back to a (virtual) cell of the decomposed
    shape; positions falling north-west of the shape behave as -inf
    (smaller than any entry), south-east ones as +inf.
    """
    r, c = pos
    dec = d.decomposition
    diff = (c - d.col_off) - (r - d.row_off)
    if diff % 2:
        raise StrandTraceError(f"position {pos} is not on the cell lattice")
    content = diff // 2
    rho, gamma = dec.ribbon.box(content)
    m = r - 2 * rho - d.row_off
    p, q = rho + m, gamma + m
    if 2 * q - m + d.col_off != c:
        raise StrandTraceError(f"inconsistent pullback at {pos}")
    shape = dec.shape
    if p < 1:
        return NEG
    if p > shape.n_rows:
        return POS
    if q <= shape.inner[p - 1]:
        return NEG
    if q > shape.outer[p - 1]:
        return POS
    raise StrandTraceError(f"virtual position {pos} maps inside the shape")


def _compile_picture(d: ShuffleDiagram):
    """The parts of the strand picture that no filling changes, compiled
    once per diagram by its constructor (ShuffleDiagram.strand_picture).

    Every lattice corner has the diagram entry (or sentinel) i to its
    south-west and j to its north-east; i <= j lays the two vertical
    segments of that block, i > j the two horizontal ones.  Only segments
    ending at a real cell are kept.  A block with a sentinel compares the
    same way for every filling (a sentinel is infinite, an entry finite),
    so its segments are fixed.

    Returns (fixed, compared, node_label): the fixed segments as (cell,
    corner) pairs; one (sw, ne, vertical, horizontal) per block between
    two cells, whose segments the filling's i <= j chooses; and the label
    of each node position.
    """
    cells = d.cells
    blocks = set()
    for (r, c) in cells:
        blocks.add(((r + 1, c - 1), (r, c)))
        blocks.add(((r, c), (r - 1, c + 1)))
    fixed, compared = [], []
    for sw, ne in blocks:
        nw = (sw[0] - 1, sw[1])
        se = (sw[0], sw[1] + 1)
        vertical = tuple(s for s in ((sw, nw), (ne, se)) if s[0] in cells)
        horizontal = tuple(s for s in ((sw, se), (ne, nw)) if s[0] in cells)
        if sw in cells and ne in cells:
            compared.append((sw, ne, vertical, horizontal))
            continue
        i = 0 if sw in cells else _virtual_entry(d, sw)
        j = 0 if ne in cells else _virtual_entry(d, ne)
        fixed += vertical if i <= j else horizontal
    node_label = {pos: ("L", k) for k, pos in enumerate(d.P, start=1)}
    node_label.update({pos: ("R", k) for k, pos in enumerate(d.Q, start=1)})
    return tuple(fixed), tuple(compared), node_label


def tl_type(T: ShuffleTableau) -> NoncrossingMatching:
    """Noncrossing matching traced by the strand segments; P_k is the
    left point L_k, Q_k the right point R_k.  Closed loops are ignored.
    The matching is the interned one, traced once per distinct pattern of
    i <= j comparisons of the diagram (see _trace_type)."""
    d = T.diagram
    entries = T.entries
    return _type_of(d, tuple([entries[sw] <= entries[ne]
                              for sw, ne, _, _ in d.strand_picture[1]]))


def _type_of(d: ShuffleDiagram, choice) -> NoncrossingMatching:
    """The type of the picture of this choice pattern, traced on its
    first lookup and kept on the diagram."""
    tau = d._types.get(choice)
    if tau is None:
        tau = d._types[choice] = _trace_type(d, choice)
    return tau


def _trace_type(d: ShuffleDiagram, choice) -> NoncrossingMatching:
    """Type of the strand picture whose compared blocks lay the segments
    choice picks (True: the vertical pair, False: the horizontal pair),
    checked for degree and coverage before it is traced."""
    fixed, compared, node_label = d.strand_picture
    segs = list(fixed)
    for (_, _, vertical, horizontal), le in zip(compared, choice):
        segs += vertical if le else horizontal
    adj = {}
    for a, b in segs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    for pos, nbs in adj.items():
        if len(nbs) == 2 and pos not in node_label:
            continue
        want = 1 if pos in node_label else 2
        if pos in d.cells and len(nbs) != 2:
            raise StrandTraceError(f"cell {pos} has degree {len(nbs)}")
        if pos in node_label and len(nbs) != want:
            raise StrandTraceError(f"node {pos} has degree {len(nbs)}")
        if len(nbs) > 2:
            raise StrandTraceError(f"position {pos} has degree {len(nbs)}")
    for pos in node_label:
        if pos not in adj:
            raise StrandTraceError(f"node {pos} received no segment")
    if not adj.keys() >= d.cells.keys():
        pos = next(pos for pos in d.cells if pos not in adj)
        raise StrandTraceError(f"cell {pos} received no segment")

    pairs, _ = trace_strands(adj, node_label)
    return matching(len(d.P), pairs)


# ------------------------------------------------------ reading word, crystal

@dataclass(frozen=True)
class ReadingWord:
    index: int
    word: tuple       # letters, each index or index + 1
    positions: tuple  # diagram coordinates, parallel to word


def reading_word(T: ShuffleTableau, i: int) -> ReadingWord:
    """The reading word of T at i, built once per (T, i) and kept on T."""
    word = T.words.get(i)
    if word is None:
        word = T.words[i] = _build_reading_word(T, i)
    return word


def _build_reading_word(T: ShuffleTableau, i: int) -> ReadingWord:
    """Letters i/i+1 outside column overlaps, rows bottom to top and left
    to right within a row.

    A column holds at most one i and one i+1 (column strictness), with the
    i necessarily above; such a pair is an overlap and is removed."""
    squares = {pos: v for pos, v in T.entries.items() if v in (i, i + 1)}
    by_col = {}
    for (r, c), v in squares.items():
        by_col.setdefault(c, []).append((r, v))
    removed = set()
    for c, items in by_col.items():
        lo = [r for r, v in items if v == i]
        hi = [r for r, v in items if v == i + 1]
        assert len(lo) <= 1 and len(hi) <= 1
        if lo and hi:
            assert lo[0] < hi[0]
            removed.add((lo[0], c))
            removed.add((hi[0], c))
    rest = sorted((pos for pos in squares if pos not in removed),
                  key=lambda pos: (-pos[0], pos[1]))
    return ReadingWord(i, tuple(squares[pos] for pos in rest), tuple(rest))


def unmatched_positions(word, i):
    """Bracket matching with i+1 opening and i closing; returns the word
    positions of unmatched i's and unmatched i+1's, left to right."""
    stack, open_i = [], []
    for pos, v in enumerate(word):
        if v == i + 1:
            stack.append(pos)
        elif stack:
            stack.pop()
        else:
            open_i.append(pos)
    return open_i, stack


def _flip(T: ShuffleTableau, pos, new_value) -> ShuffleTableau:
    entries = dict(T.entries)
    entries[pos] = new_value
    return ShuffleTableau(T.diagram, entries)


def crystal_E(T: ShuffleTableau, i: int):
    """Turn the leftmost unmatched i+1 into an i, or None."""
    w = reading_word(T, i)
    _, un_hi = unmatched_positions(w.word, i)
    if not un_hi:
        return None
    return _flip(T, w.positions[un_hi[0]], i)


def crystal_F(T: ShuffleTableau, i: int):
    """Turn the rightmost unmatched i into an i+1, or None."""
    w = reading_word(T, i)
    un_lo, _ = unmatched_positions(w.word, i)
    if not un_lo:
        return None
    return _flip(T, w.positions[un_lo[-1]], i + 1)


def is_yamanouchi(T: ShuffleTableau) -> bool:
    """True iff no raising operator applies: every i+1 of every reading
    word is bracketed by an i.

    One pass over the cells in reading order serves every index at once.
    A cell of value v is the letter i+1 of the word of i = v-1 unless v-1
    sits above it, and the letter i of the word of i = v unless v+1 sits
    below it (those pairs are the column overlaps the words leave out).
    An i+1 opens a bracket and a later i closes one; the filling is
    Yamanouchi iff no bracket is left open."""
    entries = T.entries
    get = entries.get
    # opened[i]: the open brackets of the word of i.  A missing cell reads
    # 0, so a 1 opens nothing and opened[0] stays 0
    opened = [0] * (max(entries.values(), default=1) + 1)
    for pos, above, below in T.diagram.reading_order:
        v = entries[pos]
        if get(above, 0) != v - 1:
            opened[v - 1] += 1
        if opened[v] and get(below) != v + 1:
            opened[v] -= 1
    return not any(opened)


# -------------------------------------------------------- immanant pipeline

def tableaux_by_type(dec: RibbonDecomposition, N: int):
    """Map from type to the summed weights of its fillings.

    Only partition (sorted) weights are recorded, the polynomials being
    symmetric, and only those fillings are enumerated and typed.  Weight
    first: the red and the blue SSYT are grouped by weight vector and only
    the groups whose summed weight is a partition are paired, so no other
    filling is built.  A partition weight has no more parts than the
    diagram has cells, so no such filling has a larger entry: the halves
    are listed in min(N, cells) variables, as value tuples.  A filling is
    the tuple red + blue, and its i <= j pattern is read through the slots
    of each compared block, found once per diagram.
    """
    d = ShuffleDiagram(dec)
    n = min(N, len(d.cells))
    cells, reds, blues = _halves(d, n)
    slot = {pos: s for s, pos in enumerate(cells)}
    pairs = [(slot[sw], slot[ne]) for sw, ne, _, _ in d.strand_picture[1]]

    def typed():
        for red, blue, key in pair_by_weight(reds, blues,
                                             lambda half: _weight(half, n)):
            vals = red + blue
            yield _type_of(d, tuple([vals[sw] <= vals[ne]
                                     for sw, ne in pairs])), key, 1

    return tally(typed(), N)


def _sources(d: ShuffleDiagram, N: int):
    """The fillings in N variables that pass the ballot counts below, each
    with its weight (a partition): every source, and a few others.

    They are the LR fillings on s_() (LRProducts.search) of the diagram's
    cells in reverse reading order, row and column neighbours two lattice
    steps apart: an entry v is placed only while the v-1's placed
    outnumber the v's.  That is the ballot count of the words.  Read
    backwards, the word of i is Yamanouchi iff each of its prefixes has at
    least as many i's as (i+1)'s.  An entry v takes one from that surplus
    in the word of v-1, as its letter i+1 or, if v-1 sits above it, by
    uncounting that column overlap's upper cell, counted as an i when it
    was placed; it adds one in the word of v.  The counts are optimistic
    (a pending overlap is still counted), so the caller confirms each
    filling with is_yamanouchi.  The fillings are charged to the budget
    before the search, and the partial fillings it visits as it runs.
    """
    if not _charge(d, N):
        return
    order = [pos for pos, _, _ in reversed(d.reading_order)]
    for vals, key in LRProducts(N).search(
            (), reading_layout(order, 2),
            lambda: f"crystal sources of {d.decomposition.shape} in {N} "
                    f"variables"):
        yield ShuffleTableau(d, zip(order, vals)), key


def schur_expand_by_crystal(dec: RibbonDecomposition, N: int):
    """Expansion of every immanant read off the source fillings alone.

    Each filling on which no raising operator acts contributes 1 to the
    coefficient of its weight, under its type.  A source's weight is a
    partition (each i+1 of a reading word is bracketed by an i, so there
    are at least as many i as i+1), with no more parts than the diagram
    has cells: the sources are searched for in min(N, cells) variables
    (_sources), and only the fillings the search reaches are built and
    confirmed.  Coefficients are nonnegative by construction.
    """
    d = ShuffleDiagram(dec)
    return tally(((tl_type(T), key, 1)
                  for T, key in _sources(d, min(N, len(d.cells)))
                  if is_yamanouchi(T)), N, SchurExpansion)
