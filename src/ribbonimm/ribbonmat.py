"""Ribbon decomposition matrices and the identities built on them.

Entry (i, j) of the matrix for a decomposition with tuples (a_k), (b_k) is
the skew Schur polynomial of the ribbon section [a_j, b_i), with the
convention 1 when a_j = b_i and 0 when a_j > b_i.  The determinant equals
the skew Schur polynomial of the whole shape, and every principal minor is
again a matrix of the same kind.

`section_matrix` keeps each entry as its section's shape, and the
harnesses compute every immanant on it in the Schur basis, by
Littlewood-Richardson fillings; `build` maps the same grid through
`skew_schur` to the monomial basis.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass

from .shapes import (RibbonDecomposition, SkewShape, decompose,
                     odd_even_shapes, ribbon_section_shape, shape_from_tuples)
from .symfunc import (SchurExpansion, SFMatrix, ShapeMatrix, SymPoly,
                      determinant, skew_schur)
from . import tlalgebra


@dataclass(frozen=True)
class RibbonMatrix:
    decomposition: RibbonDecomposition
    nvars: int
    matrix: SFMatrix

    @property
    def ell(self) -> int:
        return self.decomposition.ell


def section_matrix(dec: RibbonDecomposition, N: int) -> ShapeMatrix:
    """The matrix with entry (i, j) the shape of the section [a_j, b_i):
    the empty shape (the entry 1) when a_j = b_i, None (the entry 0) when
    a_j > b_i."""
    a, b = dec.abar, dec.bbar
    empty = SkewShape(())
    return ShapeMatrix(dec.ell, N, [
        [ribbon_section_shape(dec.ribbon, aj, bi) if aj < bi else
         empty if aj == bi else None for aj in a] for bi in b])


def build(dec: RibbonDecomposition, N: int) -> RibbonMatrix:
    """The matrix in the monomial basis: each section's skew Schur
    polynomial in N variables."""
    rows = [[SymPoly.zero(N) if theta is None else skew_schur(theta, N)
             for theta in row] for row in section_matrix(dec, N).shapes]
    return RibbonMatrix(dec, N, SFMatrix(dec.ell, N, rows))


def check_determinant(rm: RibbonMatrix) -> bool:
    """det == skew Schur polynomial of the decomposed shape, exactly."""
    return determinant(rm.matrix) == skew_schur(rm.decomposition.shape, rm.nvars)


def principal_minor(rm: RibbonMatrix, I) -> RibbonMatrix:
    """Matrix of the shape whose tuples are the I-indexed subtuples."""
    I = sorted(I)
    dec = rm.decomposition
    if not I or any(k < 1 or k > dec.ell for k in I):
        raise ValueError(f"index set {I} out of range")
    a = [dec.abar[k - 1] for k in I]
    b = [dec.bbar[k - 1] for k in I]
    sub_shape = shape_from_tuples(dec.ribbon, a, b)
    sub = build(decompose(sub_shape, dec.ribbon), rm.nvars)
    expected = rm.matrix.submatrix(I, I)
    for i in range(1, len(I) + 1):
        for j in range(1, len(I) + 1):
            assert sub.matrix[i, j] == expected[i, j], (I, i, j)
    return sub


def odd_even_split(dec: RibbonDecomposition):
    """Shapes built from the odd-indexed and even-indexed tuples."""
    return odd_even_shapes(dec.ribbon, dec.abar, dec.bbar)


def odd_even_product(dec: RibbonDecomposition, N: int) -> SymPoly:
    red, blue = odd_even_split(dec)
    return skew_schur(red, N) * skew_schur(blue, N)


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


def _matrix_from_fixture(obj, N: int) -> SFMatrix:
    n = obj["n"]
    grid = [[None] * n for _ in range(n)]
    for e in obj["entries"]:
        i, j = e["row"], e["col"]
        if "const" in e:
            p = SymPoly.one(N) if e["const"] == 1 else SymPoly.zero(N)
            if e["const"] not in (0, 1):
                raise ValueError("fixture constants must be 0 or 1")
        else:
            p = skew_schur(SkewShape(tuple(e["outer"]), tuple(e["inner"])), N)
        grid[i - 1][j - 1] = p
    if any(p is None for row in grid for p in row):
        raise ValueError("fixture does not cover the full matrix")
    return SFMatrix(n, N, grid)


def _load_fixture():
    data = importlib.resources.files("ribbonimm").joinpath("data/remarks.json")
    return json.loads(data.read_text())


def remark_matrices(N_first=None, N_second=None):
    """The two hardcoded counterexample matrices, as SFMatrix values.

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
