import random

import pytest

from ribbonimm import corpus
from ribbonimm.klbase import imm_kl
from ribbonimm.perms import identity_perm
from ribbonimm.shapes import (BELOW, LEFT, InfiniteRibbon, SkewShape,
                              decompose, shape_from_tuples)
from ribbonimm.symfunc import ShapeMatrix, SymPoly, determinant
from ribbonimm.tlalgebra import all_matchings


@pytest.fixture(scope="session")
def hook_ribbon():
    # B,LLL,BB,L,B window with a B tail below and an L tail above
    return InfiniteRibbon(-3, (BELOW, LEFT, LEFT, LEFT, BELOW, BELOW,
                               LEFT, BELOW), tail_lo=BELOW, tail_hi=LEFT)


@pytest.fixture(scope="session")
def hook_dec(hook_ribbon):
    shape = shape_from_tuples(hook_ribbon, (0, -4, -3, 3), (3, 5, 9, 6))
    return decompose(shape, hook_ribbon)


@pytest.fixture(scope="session")
def corpus_decs():
    """Corpus instances with 3 and 4 sections, and one with 5."""
    decs = corpus.sweep_corpus(8, 5, 5, per_bucket=1)
    return [d for d in decs if d.ell in (3, 4) and d.shape.size >= 6] + [
        next(d for d in decs if d.ell == 5 and d.shape.size == 8)]


@pytest.fixture(scope="session")
def row_ribbon():
    return InfiniteRibbon(tail_lo=LEFT, tail_hi=LEFT)


@pytest.fixture(scope="session")
def column_ribbon():
    return InfiniteRibbon(tail_lo=BELOW, tail_hi=BELOW)


def row_sections_dec(abar, bbar):
    """Decomposition of an all-row ribbon: every matrix entry is a
    complete homogeneous polynomial."""
    ribbon = InfiniteRibbon(tail_lo=LEFT, tail_hi=LEFT)
    return decompose(shape_from_tuples(ribbon, abar, bbar), ribbon)


def random_shape_matrix(rng: random.Random, n: int, nvars: int,
                        box: int = 3) -> ShapeMatrix:
    """Matrix of random skew shapes in a box x box square, with the
    entries 0 (None) and 1 (the empty shape) among them, reporting in the
    monomial basis."""
    def rand_shape():
        kind = rng.randrange(6)
        if kind < 2:
            return (None, SkewShape(()))[kind]
        outer = sorted((rng.randint(0, box) for _ in range(box)),
                       reverse=True)
        inner = sorted((rng.randint(0, box) for _ in range(box)),
                       reverse=True)
        return SkewShape(outer, tuple(map(min, outer, inner)))

    grid = [[rand_shape() for _ in range(n)] for _ in range(n)]
    return ShapeMatrix(n, nvars, grid, SymPoly.from_schur)


def is_homogeneous(p: SymPoly) -> bool:
    return len({sum(k) for k in p.coeffs}) <= 1


def row_interval(shape, i):
    """Half-open column interval (inner_i, outer_i] of row i of a skew
    shape, or None."""
    if not 1 <= i <= len(shape.outer):
        return None
    if shape.outer[i - 1] == shape.inner[i - 1]:
        return None
    return (shape.inner[i - 1] + 1, shape.outer[i - 1])


def imm_det_check(A: ShapeMatrix) -> bool:
    """Imm at the identity equals the determinant."""
    return imm_kl(identity_perm(A.n), A) == determinant(A)


def compatible(tau, I, J) -> bool:
    """True iff every strand of the matching tau has one black and one
    white endpoint, where L_i is black iff i in I and R_j is white iff
    j in J."""
    I, J = set(I), set(J)
    if len(I) != len(J):
        raise ValueError("|I| != |J|")

    def black(point):
        side, k = point
        return (k in I) if side == "L" else (k not in J)

    return all(black(a) != black(b) for a, b in tau.pairs)


def compatible_types(n, I, J):
    """The matchings compatible with (I, J): their immanants sum to the
    product of the complementary minors on (I, J) and on their
    complements."""
    return [m for m in all_matchings(n) if compatible(m, I, J)]
