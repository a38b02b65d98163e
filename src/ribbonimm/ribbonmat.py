"""Ribbon decomposition matrices and the identities built on them.

Entry (i, j) of the matrix for a decomposition with tuples (a_k), (b_k) is
the skew Schur polynomial of the ribbon section [a_j, b_i), with the
convention 1 when a_j = b_i and 0 when a_j > b_i.  The determinant equals
the skew Schur polynomial of the whole shape, and every principal minor is
again a matrix of the same kind.

`section_matrix` keeps each entry as its section's shape, and every
determinant, minor and immanant on it multiplies Schur expansions by
those shapes through Littlewood-Richardson fillings.  The harnesses
report in the Schur basis; `build` and the remark fixtures report in the
monomial basis.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass

from .shapes import (RibbonDecomposition, SkewShape, decompose,
                     odd_even_shapes, ribbon_section_shape, shape_from_tuples)
from .symfunc import (LRProducts, SchurExpansion, ShapeMatrix, SymPoly,
                      determinant, skew_schur)
from . import tlalgebra


@dataclass(frozen=True)
class RibbonMatrix:
    decomposition: RibbonDecomposition
    matrix: ShapeMatrix


def section_matrix(dec: RibbonDecomposition, N: int) -> ShapeMatrix:
    """The matrix with entry (i, j) the shape of the section [a_j, b_i):
    the empty shape (the entry 1) when a_j = b_i, None (the entry 0) when
    a_j > b_i.  It reports in the Schur basis."""
    a, b = dec.abar, dec.bbar
    empty = SkewShape(())
    return ShapeMatrix(dec.ell, N, [
        [ribbon_section_shape(dec.ribbon, aj, bi) if aj < bi else
         empty if aj == bi else None for aj in a] for bi in b])


def build(dec: RibbonDecomposition, N: int) -> RibbonMatrix:
    """The section matrix reporting in the monomial basis, in N
    variables."""
    return RibbonMatrix(dec, ShapeMatrix(
        dec.ell, N, section_matrix(dec, N).shapes, SymPoly.from_schur))


def check_determinant(rm: RibbonMatrix, det=None) -> bool:
    """det == skew Schur polynomial of the decomposed shape, exactly, in
    the monomial basis; det is the determinant of rm's matrix, in its
    ring, computed here if not given."""
    if det is None:
        det = determinant(rm.matrix)
    if isinstance(det, SchurExpansion):
        det = det.to_poly()
    return det == skew_schur(rm.decomposition.shape, rm.matrix.nvars)


def principal_minor(rm: RibbonMatrix, I) -> RibbonMatrix:
    """rm's principal submatrix on I, in rm's ring, as the matrix of the
    shape whose tuples are the I-indexed subtuples: its section shapes
    are that shape's."""
    I = sorted(I)
    dec = rm.decomposition
    if not I or any(k < 1 or k > dec.ell for k in I):
        raise ValueError(f"index set {I} out of range")
    a = [dec.abar[k - 1] for k in I]
    b = [dec.bbar[k - 1] for k in I]
    sub_dec = decompose(shape_from_tuples(dec.ribbon, a, b), dec.ribbon)
    sub = rm.matrix.submatrix(I, I)
    assert section_matrix(sub_dec, sub.nvars).shapes == sub.shapes, I
    return RibbonMatrix(sub_dec, sub)


def odd_even_product(dec: RibbonDecomposition, N: int) -> SymPoly:
    """s_red * s_blue for the odd/even split, in the monomial basis."""
    red, blue = odd_even_shapes(dec.ribbon, dec.abar, dec.bbar)
    lr = LRProducts(N)
    return lr.times(lr.times(SchurExpansion(N, {(): 1}), red), blue).to_poly()


def theorem1_harness(dec: RibbonDecomposition, N: int):
    """Schur-expand every Temperley-Lieb immanant of the matrix.

    Returns a report dict; overall_positive is True iff no expansion has a
    negative coefficient.
    """
    by_type = tlalgebra.imm_tl_all(section_matrix(dec, N))
    per_type = []
    ok = True
    for u in tlalgebra.enumerate_321_avoiding(dec.ell):
        tau = tlalgebra.perm_to_matching(u)
        exp = by_type.get(tau, SchurExpansion(N))
        positive = exp.schur_positive
        ok = ok and positive
        per_type.append({
            "perm": list(u),
            "type": str(tau),
            "expansion": str(exp),
            "schur_positive": positive,
            "terms": exp.to_json()["terms"],
        })
    return {
        "a": list(dec.abar),
        "b": list(dec.bbar),
        "nvars": N,
        "immanants": per_type,
        "overall_positive": ok,
    }


def _matrix_from_fixture(obj, N: int) -> ShapeMatrix:
    """The fixture's shapes, reporting in the monomial basis: a constant
    1 is the empty shape and a constant 0 is None."""
    n = obj["n"]
    missing = object()
    grid = [[missing] * n for _ in range(n)]
    for e in obj["entries"]:
        if "const" in e:
            if e["const"] not in (0, 1):
                raise ValueError("fixture constants must be 0 or 1")
            theta = SkewShape(()) if e["const"] else None
        else:
            theta = SkewShape(tuple(e["outer"]), tuple(e["inner"]))
        grid[e["row"] - 1][e["col"] - 1] = theta
    if any(theta is missing for row in grid for theta in row):
        raise ValueError("fixture does not cover the full matrix")
    return ShapeMatrix(n, N, grid, SymPoly.from_schur)


def _load_fixture():
    data = importlib.resources.files("ribbonimm").joinpath("data/remarks.json")
    return json.loads(data.read_text())


def remark_matrices(N_first=None, N_second=None):
    """The two hardcoded counterexample matrices, as ShapeMatrix values
    reporting in the monomial basis.

    N defaults keep positivity verdicts faithful for the relevant immanant
    (degree 13) and minor (degree 14).  A negative Schur coefficient found
    at smaller N is still a valid certificate: expansions are stable in N
    for the partitions that survive truncation.
    """
    fixture = _load_fixture()
    first = _matrix_from_fixture(fixture["nonpositive_immanant_4x4"],
                                 13 if N_first is None else N_first)
    second = _matrix_from_fixture(fixture["bad_minor_4x4"],
                                  14 if N_second is None else N_second)
    return first, second


def remark_bad_minor_indices():
    fixture = _load_fixture()
    obj = fixture["bad_minor_4x4"]
    return tuple(obj["bad_minor_rows"]), tuple(obj["bad_minor_cols"])
