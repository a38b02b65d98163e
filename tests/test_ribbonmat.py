import pytest

from conftest import is_homogeneous, row_sections_dec
from ribbonimm import ribbonmat
from ribbonimm.shapes import (SkewShape, decompose, ribbon_section_shape,
                              shape_from_tuples)
from ribbonimm.symfunc import (SchurExpansion, ShapeMatrix, SymPoly,
                               determinant, expand_schur, schur_poly,
                               skew_schur)
from ribbonimm.tlalgebra import imm_tl, minor, perm_to_matching

CATALAN = {3: 5, 4: 14, 5: 42}


def test_entries_are_section_schur_functions(hook_dec):
    rm = ribbonmat.build(hook_dec, 2)
    a, b = hook_dec.abar, hook_dec.bbar
    for i in range(1, 5):
        for j in range(1, 5):
            entry = rm.matrix[i, j]
            if a[j - 1] > b[i - 1]:
                assert entry.is_zero(), (i, j)
            elif a[j - 1] == b[i - 1]:
                assert entry == SymPoly.one(2), (i, j)
            else:
                section = ribbon_section_shape(hook_dec.ribbon,
                                               a[j - 1], b[i - 1])
                assert entry == skew_schur(section, 2), (i, j)


def test_row_sections_give_h_entries():
    dec = row_sections_dec((0, -2, -4), (3, 2, 1))
    rm = ribbonmat.build(dec, 3)
    a, b = dec.abar, dec.bbar
    for i in range(1, 4):
        for j in range(1, 4):
            assert rm.matrix[i, j] == schur_poly((b[i - 1] - a[j - 1],), 3)


def test_determinant_identity(hook_dec):
    for N in (2, 3):
        rm = ribbonmat.build(hook_dec, N)
        assert ribbonmat.check_determinant(rm)
        assert determinant(rm.matrix) == skew_schur(hook_dec.shape, N)


def test_determinant_identity_single_section(row_ribbon):
    dec = decompose(SkewShape((4,)), row_ribbon)
    rm = ribbonmat.build(dec, 2)
    assert ribbonmat.check_determinant(rm)


def test_check_determinant_in_either_basis(corpus_decs):
    # the check holds on the section matrix in the Schur basis and in the
    # monomial one, with the determinant computed or given, and fails
    # when row 1 repeats row 2: that determinant is 0, the skew Schur
    # polynomial at N = cells is not
    for dec in corpus_decs:
        N = dec.shape.size
        for ring in (SchurExpansion, SymPoly.from_schur):
            A = ribbonmat.section_matrix(dec, N, ring)
            rm = ribbonmat.RibbonMatrix(dec, N, A)
            assert ribbonmat.check_determinant(rm), (dec.abar, ring)
            assert ribbonmat.check_determinant(rm, determinant(A))
            wrong = ShapeMatrix(A.n, N, [A.shapes[1], *A.shapes[1:]], ring)
            assert determinant(wrong).is_zero()
            assert not skew_schur(dec.shape, N).is_zero()
            assert not ribbonmat.check_determinant(
                ribbonmat.RibbonMatrix(dec, N, wrong)), (dec.abar, ring)


def test_principal_minor_roundtrip(hook_dec):
    rm = ribbonmat.build(hook_dec, 2)
    sub = ribbonmat.principal_minor(rm, (1, 3, 4))
    assert sub.decomposition.abar == (0, -3, 3)
    assert sub.decomposition.bbar == (3, 9, 6)
    rebuilt = shape_from_tuples(hook_dec.ribbon, (0, -3, 3), (3, 9, 6))
    assert rebuilt == sub.decomposition.shape
    assert ribbonmat.check_determinant(sub)


def test_odd_even_split(hook_dec):
    odd, even = ribbonmat.odd_even_split(hook_dec)
    sizes = [b - a for a, b in zip(hook_dec.abar, hook_dec.bbar)]
    assert odd.size == sizes[0] + sizes[2]
    assert even.size == sizes[1] + sizes[3]


def test_odd_even_product_is_minor_product(hook_dec):
    N = 2
    rm = ribbonmat.build(hook_dec, N)
    prod = minor(rm.matrix, (1, 3), (1, 3)) * minor(rm.matrix, (2, 4), (2, 4))
    assert prod == ribbonmat.odd_even_product(hook_dec, N)


def test_theorem1_harness_structure():
    dec = row_sections_dec((0, -2), (2, 1))
    report = ribbonmat.theorem1_harness(dec, 2)
    assert report["overall_positive"]
    assert len(report["immanants"]) == 2
    for item in report["immanants"]:
        assert item["schur_positive"]


def test_theorem1_harness_matches_imm_tl(corpus_decs):
    # the harness reports in the Schur basis, imm_tl here on a matrix
    # reporting in the monomial one, peeled back: truncated (N = 3) and
    # faithful (N = cell count)
    for dec in corpus_decs:
        for N in (3, dec.shape.size):
            rm = ribbonmat.build(dec, N)
            report = ribbonmat.theorem1_harness(dec, N)
            assert len(report["immanants"]) == CATALAN[dec.ell]
            for item in report["immanants"]:
                tau = perm_to_matching(tuple(item["perm"]))
                assert item["expansion"] == str(
                    expand_schur(imm_tl(tau, rm.matrix))), (dec.abar, N, tau)


def test_remark_matrices_homogeneous():
    import itertools
    A, Abad = ribbonmat.remark_matrices(N_first=5, N_second=5)
    for M in (A, Abad):
        for i in range(1, 5):
            for j in range(1, 5):
                assert is_homogeneous(M[i, j])
    # every nonvanishing permutation diagonal of the first matrix has
    # total degree 13, so its immanants are homogeneous
    for perm in itertools.permutations(range(1, 5)):
        degs = [A[i, j].degree() for i, j in enumerate(perm, start=1)]
        if None not in degs:
            assert sum(degs) == 13, perm
    # the flagged 3x3 minor of the second matrix is homogeneous of degree 14
    rows, cols = ribbonmat.remark_bad_minor_indices()
    for sigma in itertools.permutations(cols):
        degs = [Abad[i, j].degree() for i, j in zip(rows, sigma)]
        if None not in degs:
            assert sum(degs) == 14, sigma


def test_fixture_must_cover_the_matrix_with_0_1_constants():
    entries = [{"row": 1, "col": 1, "const": 1},
               {"row": 1, "col": 2, "const": 0},
               {"row": 2, "col": 1, "outer": [2], "inner": []},
               {"row": 2, "col": 2, "const": 1}]
    full = ribbonmat._matrix_from_fixture({"n": 2, "entries": entries}, 3)
    one = SkewShape(())
    assert full.shapes == [[one, None], [SkewShape((2,)), one]]
    # None is the entry 0, so a missing entry is told apart from it
    with pytest.raises(ValueError, match="^fixture does not cover the full "
                       "matrix$"):
        ribbonmat._matrix_from_fixture({"n": 2, "entries": entries[:3]}, 3)
    with pytest.raises(ValueError, match="^fixture constants must be 0 or "
                       "1$"):
        ribbonmat._matrix_from_fixture({"n": 2, "entries": [
            *entries[:3], {"row": 2, "col": 2, "const": 2}]}, 3)


def test_remark_bad_minor_is_negative_already_at_four_vars():
    _, Abad = ribbonmat.remark_matrices(N_second=4)
    rows, cols = ribbonmat.remark_bad_minor_indices()
    assert rows == (1, 2, 4) and cols == (1, 2, 3)
    exp = expand_schur(minor(Abad, rows, cols))
    assert not exp.schur_positive
