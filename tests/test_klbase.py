import hashlib
import itertools
import math
import random

import pytest

from conftest import imm_det_check, random_shape_matrix, row_sections_dec
from oracles import identity_perm
from ribbonimm import klbase, ribbonmat, tlalgebra
from ribbonimm.errors import BudgetExceeded
from ribbonimm.perms import apply_s, perm_inverse, perm_length
from ribbonimm.shapes import SkewShape, decompose
from ribbonimm.symfunc import (ShapeMatrix, determinant, expand_schur,
                               skew_schur)


def ehresmann_leq(x, w):
    """Sorted-prefix criterion for Bruhat order, as an oracle."""
    n = len(x)
    for k in range(1, n):
        xs = sorted(x[:k])
        ws = sorted(w[:k])
        if any(a > b for a, b in zip(xs, ws)):
            return False
    return True


@pytest.fixture(scope="module")
def kl7():
    """Build kl_polynomials(7) at the raised budget (its rows store
    3,550,919 Bruhat pairs) that the tests of this module reading S_7
    set; they run one after another, so they share it.  The table and the
    index of S_7 are dropped at the next table read under another budget:
    built alone, they take a process to 153 MB peak RSS."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("RIL_BUDGET", "4000000")
        klbase.kl_polynomials(7)


def kl_weights(table, w) -> dict:
    """v -> (-1)^{l(v)-l(w)} P_{w0 v, w0 w}(1), the weight of v in the KL
    immanant at w, read off the row of w0 w in table.rows."""
    n, W = table.n, klbase._weyl(table.n)
    top = W.index[tuple(n + 1 - k for k in w)]
    return {tuple(n + 1 - k for k in W.perms[x]):
            (-1) ** (W.length[top] - W.length[x]) * sum(table.pool[pid])
            for x, pid in table.rows[top].items()}


def perm_matrix(v) -> ShapeMatrix:
    """The 0/1 matrix of v in one variable, the empty shape for 1 and
    None for 0: the diagonal product of v is 1 and every other one is
    0."""
    one = SkewShape(())
    return ShapeMatrix(len(v), 1, [[one if j == k else None
                                    for j in range(1, len(v) + 1)]
                                   for k in v])


def test_bruhat_matches_prefix_criterion():
    for n in (2, 3, 4, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        W, table = klbase._weyl(n), klbase.kl_polynomials(n)
        for w in perms:
            # x is a key of the row of w iff x <= w
            keys = {W.perms[x] for x in table.rows[W.index[w]]}
            for x in perms:
                assert (x in keys) == ehresmann_leq(x, w), (x, w)
            # the immanant weights: every v >= w, with
            # (-1)^{l(v)-l(w)} P_{w0 v, w0 w}(1)
            w0w = tuple(n + 1 - k for k in w)
            expected = {
                v: (-1) ** (perm_length(v) - perm_length(w))
                * sum(table.polys.get((tuple(n + 1 - k for k in v), w0w), ()))
                for v in perms if ehresmann_leq(w, v)}
            assert kl_weights(table, w) == expected, w
            # the KL immanant at w of the matrix of v is the weight of v
            column = {v: klbase.imm_kl(w, perm_matrix(v)).coeffs
                      for v in perms}
            assert {v: c[()] for v, c in column.items() if c} == expected, w


def test_kl_base_cases():
    table = klbase.kl_polynomials(3)
    e = identity_perm(3)
    w0 = (3, 2, 1)
    for w in itertools.permutations(range(1, 4)):
        assert table.polys.get((w, w), ()) == (1,)
        # the longest element dominates everything with polynomial 1
        assert table.polys.get((w, w0), ()) == (1,)
    assert table.polys.get((e, (2, 1, 3)), ()) == (1,)


def test_first_nontrivial_polynomial():
    # smallest interval with a nonconstant polynomial in S_4
    table = klbase.kl_polynomials(4)
    assert table.polys.get(((1, 3, 2, 4), (3, 4, 1, 2)), ()) == (1, 1)
    assert table.polys.get(((2, 1, 4, 3), (4, 2, 3, 1)), ()) == (1, 1)


def test_recursion_matches_bar_involution_solve():
    for n in (2, 3, 4, 5):
        assert klbase.kl_polynomials(n).polys == \
            klbase.kl_polynomials_hecke(n).polys


def test_kl_table_s6_pinned():
    table = klbase.kl_polynomials(6)
    assert len(table.polys) == 98407
    dump = "\n".join(table.dump()).encode()
    assert hashlib.sha256(dump).hexdigest() == (
        "7162a3dc3142c109c162c7ba9ffc5ab6144f2461908e1643e3e06a194478c253")


def test_kl_table_budget_guard(monkeypatch):
    # the index of S_4 holds 4! * 4 = 96 permutations and right actions;
    # the table then counts its 213 Bruhat pairs as it stores its rows
    monkeypatch.setenv("RIL_BUDGET", "95")
    with pytest.raises(BudgetExceeded, match=r"^_weyl\(n=4\): 96 permutations "
                       r"and right actions exceed RIL_BUDGET=95$"):
        klbase.kl_polynomials(4)
    monkeypatch.setenv("RIL_BUDGET", "100")
    with pytest.raises(BudgetExceeded, match=r"^kl_polynomials\(n=4\): 109 "
                       r"Bruhat pairs exceed RIL_BUDGET=100$"):
        klbase.kl_polynomials(4)
    # a table built under a larger budget is not read under a smaller one:
    # the table of S_4 is built again, and refused as a cold call is
    monkeypatch.setenv("RIL_BUDGET", "213")
    klbase.kl_polynomials(4)
    monkeypatch.setenv("RIL_BUDGET", "212")
    with pytest.raises(BudgetExceeded, match=r"^kl_polynomials\(n=4\): 213 "
                       r"Bruhat pairs exceed RIL_BUDGET=212$"):
        klbase.kl_polynomials(4)
    # the default budget refuses S_7 while its Bruhat pairs are stored,
    # and S_9 from its permutations alone
    monkeypatch.delenv("RIL_BUDGET")
    with pytest.raises(BudgetExceeded, match=r"^kl_polynomials\(n=7\): "
                       r"2000277 Bruhat pairs exceed RIL_BUDGET=2000000$"):
        klbase.kl_polynomials(7)
    with pytest.raises(BudgetExceeded, match=r"^_weyl\(n=9\): 3265920 "
                       r"permutations and right actions exceed "
                       r"RIL_BUDGET=2000000$"):
        klbase.kl_polynomials(9)


def test_table_only_on_bruhat_pairs():
    table = klbase.kl_polynomials(4)
    for (x, w), p in table.polys.items():
        assert ehresmann_leq(x, w)
        assert p[0] == 1 and all(c >= 0 for c in p)
        if x != w:
            assert 2 * (len(p) - 1) <= perm_length(w) - perm_length(x) - 1


def kl_inverse_symmetry(table) -> bool:
    """P_{x,w} == P_{x^-1,w^-1} over the whole table."""
    for (x, w), p in table.polys.items():
        if table.polys.get((perm_inverse(x), perm_inverse(w))) != p:
            return False
    return True


@pytest.mark.parametrize("n", range(1, 6))
def test_rows_are_the_interval_masks(n):
    # each row grows from the row of w s; its keys are [e, w], ascending
    W, table = klbase._weyl(n), klbase.kl_polynomials(n)
    for w, row in enumerate(table.rows):
        keys = list(row)
        assert keys == sorted(keys)
        assert keys == [x for x, u in enumerate(W.perms)
                        if ehresmann_leq(u, W.perms[w])]


def test_inverse_symmetry():
    for n in range(1, 7):
        assert kl_inverse_symmetry(klbase.kl_polynomials(n)), n


def left_s(u, i):
    """s_i u: swap the values i and i+1."""
    return tuple(i + 1 if a == i else i if a == i + 1 else a for a in u)


def test_descent_identities():
    # P_{x,w} = P_{xs,w} for every right descent s of w and P_{x,w} =
    # P_{sx,w} for every left descent (Bjorner-Brenti, Combinatorics of
    # Coxeter Groups, Sec. 5.1); the table is built from the first right
    # descent only, so the other descents and the left side check it
    for n in range(1, 6):
        table = klbase.kl_polynomials(n)
        for (x, w), p in table.polys.items():
            lw = perm_length(w)
            for i in range(1, n):
                if perm_length(apply_s(w, i)) < lw:
                    assert table.polys.get((apply_s(x, i), w)) == p, (x, w, i)
                if perm_length(left_s(w, i)) < lw:
                    assert table.polys.get((left_s(x, i), w)) == p, (x, w, i)


def test_polys_is_a_read_only_view():
    table = klbase.kl_polynomials(4)
    W = klbase._weyl(4)
    keys = list(table.polys)
    assert keys == sorted(keys, key=lambda xw: (W.index[xw[1]],
                                                W.index[xw[0]]))
    assert len(keys) == len(table.polys) == 213
    assert dict(table.polys) == table.polys
    assert table.polys[((1, 3, 2, 4), (3, 4, 1, 2))] == (1, 1)
    assert ((2, 1, 3, 4), (1, 3, 2, 4)) not in table.polys
    with pytest.raises(KeyError):
        table.polys[((2, 1, 3, 4), (1, 3, 2, 4))]
    with pytest.raises(TypeError):
        table.polys[((1, 2, 3, 4), (1, 2, 3, 4))] = (1,)


def test_dump_format():
    lines = list(klbase.kl_polynomials(2).dump())
    assert lines == ["12 12 : 1", "12 21 : 1", "21 21 : 1"]


def test_conjecture_harness_matches_imm_kl(corpus_decs):
    # the harness reports in the Schur basis, imm_kl here on a matrix
    # reporting in the monomial one, peeled back: truncated (N = 3) and
    # faithful (N = cell count)
    for dec in corpus_decs:
        perms = list(itertools.permutations(range(1, dec.ell + 1)))
        for N in (3, dec.shape.size):
            rm = ribbonmat.build(dec, N)
            report = klbase.conjecture12_harness(dec, N)
            assert [tuple(item["perm"])
                    for item in report["immanants"]] == perms
            for item in report["immanants"]:
                w = tuple(item["perm"])
                assert item["expansion"] == str(
                    expand_schur(klbase.imm_kl(w, rm.matrix))), (
                        dec.abar, N, w)


def test_guards(monkeypatch):
    # no fixed guard: the budget refuses the S_8 KL table and the S_7
    # Hecke oracle
    monkeypatch.delenv("RIL_BUDGET", raising=False)
    with pytest.raises(BudgetExceeded):
        klbase.kl_polynomials(8)
    with pytest.raises(BudgetExceeded):
        klbase.kl_polynomials_hecke(7)


def test_identity_immanant_is_determinant():
    rng = random.Random(17)
    for _ in range(5):
        n = rng.randint(1, 4)
        A = random_shape_matrix(rng, n, 2)
        assert imm_det_check(A)
        assert klbase.imm_kl(identity_perm(n), A) == determinant(A)


def test_2143_immanant_matches_tl_twin():
    # on the hardcoded counterexample matrix the signed KL sum at 2143
    # agrees with the Temperley-Lieb immanant of the matching of 2143,
    # and both fail Schur positivity
    A, _ = ribbonmat.remark_matrices(N_first=5, N_second=2)
    w = (2, 1, 4, 3)
    kl_value = klbase.imm_kl(w, A)
    tl_value = tlalgebra.imm_tl(tlalgebra.perm_to_matching(w), A)
    assert kl_value == tl_value
    exp = expand_schur(kl_value)
    assert not exp.schur_positive
    assert exp.negative_part() == {
        (4, 4, 3, 2): -1, (4, 3, 3, 3): -2, (4, 3, 3, 2, 1): -2,
        (4, 3, 2, 2, 2): -1, (3, 3, 3, 3, 1): -2, (3, 3, 3, 2, 2): -1}


def test_conjecture_harness_small():
    dec = row_sections_dec((0, -2), (2, 1))
    report = klbase.conjecture12_harness(dec, 3)
    assert report["all_positive"]
    assert report["certificates"] == []
    assert len(report["immanants"]) == 2
    for entry in report["immanants"]:
        assert entry["schur_positive"]


def assert_jacobi_trudi_positive(shape, row_ribbon, ell):
    # the all-row ribbon cuts a shape into its rows, so the matrix is the
    # (skew) Jacobi-Trudi matrix, and each of its KL immanants is Schur
    # positive by Haiman's theorem: a certificate here would be a bug
    dec = decompose(shape, row_ribbon)
    assert dec.ell == ell
    N = shape.size
    report = klbase.conjecture12_harness(dec, N)
    assert report["all_positive"]
    assert len(report["immanants"]) == math.factorial(ell)
    identity = report["immanants"][0]
    assert identity["perm"] == list(range(1, ell + 1))
    assert identity["expansion"] == str(expand_schur(skew_schur(shape, N)))


@pytest.mark.parametrize("outer, inner", [
    ((2, 2, 1, 1, 1, 1), ()), ((3, 3, 2, 2, 1, 1), (2, 1, 1))])
def test_conjecture_harness_jacobi_trudi_six_sections(outer, inner,
                                                      row_ribbon):
    assert_jacobi_trudi_positive(SkewShape(outer, inner), row_ribbon, 6)


def test_tl_is_kl_at_321_avoiding(kl7, monkeypatch):
    # Theorem 1.1 is the 321-avoiding case of Conjecture 1.2: the KL
    # weight of v at a 321-avoiding w is the TL coefficient of v at the
    # matching of w^-1 (Rhoades-Skandera, "Temperley-Lieb immanants").
    # n = 7 needs a raised budget for the KL table: it stores 3,550,919
    # Bruhat pairs.
    monkeypatch.setenv("RIL_BUDGET", "4000000")
    for n in range(1, 8):
        tl = tlalgebra._tl_table.__wrapped__(n)
        kl = klbase.kl_polynomials(n)
        for w in tlalgebra.enumerate_321_avoiding(n):
            tau = tlalgebra.perm_to_matching(perm_inverse(w))
            by_tl = {v: row[tau] for v, row in tl.items() if tau in row}
            assert kl_weights(kl, w) == by_tl, w


def test_hecke_oracle_charges_its_visits(kl7, monkeypatch):
    # n!^2 (x, w) visits, charged once S_n is indexed: 518,400 at n = 6
    # fit the default budget, and 25,401,600 at n = 7 pass a raised one
    monkeypatch.setenv("RIL_BUDGET", "4000000")
    with pytest.raises(BudgetExceeded, match=r"^kl_polynomials_hecke\(n=7\): "
                       r"25401600 \(x, w\) visits exceed RIL_BUDGET=4000000$"):
        klbase.kl_polynomials_hecke(7)


def test_conjecture_harness_jacobi_trudi_seven_sections(kl7, row_ribbon,
                                                        monkeypatch):
    # 5,040 immanants at N = 9, on the shared S_7 table
    monkeypatch.setenv("RIL_BUDGET", "4000000")
    assert_jacobi_trudi_positive(SkewShape((2, 2, 1, 1, 1, 1, 1)),
                                 row_ribbon, 7)


def test_kl_immanant_expands_in_tl_immanants():
    # every KL immanant of a 3x3 matrix is an integer combination of
    # diagonal products; cross-check the full S_3 family sums to the
    # permanent-free identity sum_w Imm_w = product of diagonal entries
    rng = random.Random(23)
    A = random_shape_matrix(rng, 3, 2)
    total = None
    for w in itertools.permutations(range(1, 4)):
        value = klbase.imm_kl(w, A)
        total = value if total is None else total + value
    diag = A[1, 1] * A[2, 2] * A[3, 3]
    assert total == diag
