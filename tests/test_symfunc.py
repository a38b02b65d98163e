import functools
import inspect
import itertools
import operator
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import degree, is_homogeneous, random_shape_matrix
from oracles import evaluate, explicit_monomials, is_connected, perm_sign
from ribbonimm import symfunc
from ribbonimm.errors import BudgetExceeded
from ribbonimm.ribbonmat import build
from ribbonimm.shapes import SkewShape, decompose, odd_even_shapes
from ribbonimm.symfunc import (LRProducts, SchurExpansion, ShapeMatrix,
                               SymPoly, determinant,
                               diagonal_products, enumerate_ssyt,
                               expand_schur, partition_key, schur_poly,
                               skew_schur, ssyt_count, weighted_sums)
from ribbonimm.tlalgebra import imm_tl_all, minor

partitions = st.lists(st.integers(1, 4), min_size=0, max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


def sympolys(nvars):
    return st.dictionaries(partitions, st.integers(-3, 3), max_size=4).map(
        lambda d: SymPoly(nvars, {k: v for k, v in d.items()
                                  if len(k) <= nvars}))


def test_sympoly_basics():
    p = SymPoly(2, {(1,): 2, (2, 1): -1})
    assert not p.is_zero()
    assert degree(p) == 3
    assert not is_homogeneous(p)
    assert degree(SymPoly.one(2)) == 0
    assert degree(SymPoly.zero(3)) is None
    with pytest.raises(ValueError):
        SymPoly(1, {(2, 1): 1})


@given(sympolys(2), sympolys(2))
def test_mul_commutative(p, q):
    assert p * q == q * p


@settings(max_examples=40)
@given(sympolys(2), sympolys(2), sympolys(2))
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(st.integers(1, 5), st.data())
def test_evaluate_matches_product(N, data):
    # evaluation is a ring morphism: check against an explicit point
    p, q = data.draw(sympolys(N)), data.draw(sympolys(N))
    point = (1, 2, 3, 5, 7)[:N]
    assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)


def _brute_product(p, q):
    prod = Counter()
    for alpha, a in explicit_monomials(p).items():
        for beta, b in explicit_monomials(q).items():
            prod[tuple(map(sum, zip(alpha, beta)))] += a * b
    # the coefficient of m_nu is that of the sorted monomial x^nu
    return SymPoly(p.nvars, {partition_key(v): c for v, c in prod.items()
                             if partition_key(v) is not None})


def _partitions_of(d, most=None):
    if not d:
        yield ()
    for part in range(min(d, most or d), 0, -1):
        for rest in _partitions_of(d - part, part):
            yield (part,) + rest


def test_product_matches_explicit_monomials():
    small = [lam for d in range(5) for lam in _partitions_of(d)]
    rng = random.Random(5)
    for N in range(1, 5):
        keys = [lam for lam in small if len(lam) <= N]
        for lam in keys:
            for mu in keys:
                p, q = SymPoly(N, {lam: 2}), SymPoly(N, {mu: -3})
                assert p * q == _brute_product(p, q), (lam, mu, N)
        p = SymPoly(N, {k: rng.randint(-3, 3) for k in keys})
        q = SymPoly(N, {k: rng.randint(-3, 3) for k in keys})
        assert p * q == _brute_product(p, q), N


@settings(max_examples=60)
@given(st.integers(1, 4), st.data())
def test_basis_change_commutes_with_truncation(N, data):
    # setting x_{N+1} = x_{N+2} = 0 drops the partitions with more than N
    # parts in both bases, so expand_schur and to_poly commute with it;
    # with the truncated LR product (test_schur_product_ring_laws), so
    # does SymPoly *
    def drop(p):
        return type(p)(N, {k: c for k, c in p.coeffs.items() if len(k) <= N})

    for p in (data.draw(sympolys(N)), data.draw(sympolys(N))):
        assert expand_schur(p) == drop(expand_schur(SymPoly(N + 2, p.coeffs)))
        assert SchurExpansion(N, p.coeffs).to_poly() == drop(
            SchurExpansion(N + 2, p.coeffs).to_poly())


def test_sympoly_product_is_budgeted(monkeypatch):
    # s_21 * s_21 in 3 variables visits 13 partial fillings of the LR
    # search: a budget of 12 refuses it in the one-line form, raised
    # while handling no other error
    p = schur_poly((2, 1), 3)
    want = SchurExpansion(3, {(4, 2): 1, (4, 1, 1): 1, (3, 3): 1,
                              (3, 2, 1): 2, (2, 2, 2): 1})
    monkeypatch.setenv("RIL_BUDGET", "12")
    with pytest.raises(BudgetExceeded, match=re.escape(
            "LRProducts of SkewShape(outer=(2, 1), inner=(0, 0)) on "
            "s[2, 1] in 3 variables: 13 partial fillings exceed "
            "RIL_BUDGET=12")) as refused:
        p * p
    assert refused.value.__context__ is None
    monkeypatch.delenv("RIL_BUDGET")
    assert p * p == want.to_poly()


def schur_expansions(nvars):
    small = st.lists(st.integers(1, 2), max_size=3).map(
        lambda xs: tuple(sorted(xs, reverse=True)))
    return st.dictionaries(small, st.integers(-3, 3), max_size=3).map(
        lambda d: SchurExpansion(nvars, {k: v for k, v in d.items()
                                         if len(k) <= nvars}))


@given(st.integers(1, 4), st.data())
def test_schur_product_ring_laws(N, data):
    # the LR product is commutative and associative, is the product in
    # N + 2 variables with the longer partitions dropped, and multiplies
    # the polynomials the expansions stand for
    p, q, r = (data.draw(schur_expansions(N)) for _ in range(3))
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    wide = SchurExpansion(N + 2, p.coeffs) * SchurExpansion(N + 2, q.coeffs)
    assert p * q == SchurExpansion(N, {k: c for k, c in wide.coeffs.items()
                                       if len(k) <= N})
    assert (p * q).to_poly() == _brute_product(p.to_poly(), q.to_poly())
    with pytest.raises(ValueError, match="nvars mismatch"):
        p * SchurExpansion(N + 1)


def test_schur_expansion_refuses_long_partitions():
    # s_211 is 0 in one variable, and a value holding it would make the
    # product depend on the order of its factors: both bases refuse it,
    # and a zero coefficient is dropped before the check
    for cls in (SchurExpansion, SymPoly):
        with pytest.raises(ValueError, match=re.escape(
                "(2, 1, 1) has more than 1 parts")):
            cls(1, {(2, 1, 1): 1})
        assert cls(1, {(2, 1, 1): 0}).is_zero()


def test_negative_part_is_lex_descending():
    # the same expansion built in two insertion orders
    terms = [((2, 1), -1), ((3,), 2), ((1, 1, 1), -2), ((2, 2), -3)]
    for exp in (SchurExpansion(3, dict(terms)),
                SchurExpansion(3, dict(reversed(terms)))):
        assert list(exp.negative_part().items()) == [
            ((2, 2), -3), ((2, 1), -1), ((1, 1, 1), -2)]


def test_schur_pins():
    assert schur_poly((1,), 2) == SymPoly(2, {(1,): 1})
    # s_11 in two variables is x1*x2
    assert schur_poly((1, 1), 2) == SymPoly(2, {(1, 1): 1})
    # s_21(x1,x2) = m21 + ... : evaluate at (1,1) counts SSYT
    assert evaluate(schur_poly((2, 1), 2), (1, 1)) == 2
    assert evaluate(schur_poly((2, 1), 3), (1, 1, 1)) == 8


def test_h_e_pins():
    # h_k = s_(k) and e_k = s_(1^k)
    assert schur_poly((2,), 2) == SymPoly(2, {(2,): 1, (1, 1): 1})
    assert schur_poly((1, 1), 2) == SymPoly(2, {(1, 1): 1})
    assert schur_poly((1, 1, 1), 2).is_zero()


def test_skew_schur_matches_enumeration():
    sh = SkewShape((3, 2), (1, 0))
    poly = skew_schur(sh, 2)
    assert evaluate(poly, (1, 1)) == ssyt_count(sh, 2)
    assert ssyt_count(sh, 2) == sum(1 for _ in enumerate_ssyt(sh, 2))


def test_skew_schur_matches_ssyt_weights(corpus_decs):
    # every skew shape inside a 4x4 box, and the disconnected halves of
    # corpus decompositions, against weight counts of the fillings; their
    # number is ssyt_count, by the h-matrix over the rows or the smaller
    # e-matrix over the columns, both met here
    box = list(itertools.combinations_with_replacement(range(4, -1, -1), 4))
    shapes = {SkewShape(lam, mu) for lam in box for mu in box
              if all(m <= l for m, l in zip(mu, lam))}
    halves = {h for dec in corpus_decs
              for h in odd_even_shapes(dec.ribbon, dec.abar, dec.bbar)}
    assert any(h.size and not is_connected(h) for h in halves)
    assert SkewShape(()) in shapes
    for shape in shapes | halves:
        weights = Counter()
        for filling in enumerate_ssyt(shape, 5):
            wt = [0] * 5
            for v in filling:
                wt[v - 1] += 1
            weights[tuple(wt)] += 1
        for N in range(1, 6):
            kept = {partition_key(wt[:N]): c for wt, c in weights.items()
                    if not any(wt[N:])}
            kept.pop(None, None)
            assert skew_schur(shape, N) == SymPoly(N, kept), (shape, N)
            assert ssyt_count(shape, N) == sum(
                c for wt, c in weights.items() if not any(wt[N:])), (shape, N)


def test_skew_schur_budget_guard(monkeypatch):
    monkeypatch.setenv("RIL_BUDGET", "3")
    with pytest.raises(BudgetExceeded, match=r"skew_schur.*\(3, 2\)"):
        skew_schur(SkewShape((3, 2), (1,)), 3)


def test_skew_schur_charges_every_walk_node(monkeypatch):
    # the 40-cell row walks 215,308 prefixes of the partitions of 40 but
    # needs only 40 strip lists: the nodes, not the lists, meet the budget
    row = SkewShape((40,))
    monkeypatch.setenv("RIL_BUDGET", "215307")
    with pytest.raises(BudgetExceeded, match="215308 Kostka walk nodes "
                       "exceed RIL_BUDGET=215307"):
        skew_schur(row, 40)
    monkeypatch.setenv("RIL_BUDGET", "215308")
    assert len(skew_schur(row, 40).coeffs) == 37338     # p(40)


def test_deep_column_walks_loop_instead_of_recursing():
    # a 300-row column has one SSYT in 300 variables and one Kostka chain;
    # both walks run under a recursion limit a few dozen frames above the
    # test's own depth, far below one frame per row
    column = SkewShape((1,) * 300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        poly = skew_schur(column, 300)
        fillings = list(enumerate_ssyt(column, 300))
    finally:
        sys.setrecursionlimit(limit)
    assert poly == SymPoly(300, {(1,) * 300: 1})
    assert [(i, j) for i, j, _ in column.cells()] == [
        (i, 1) for i in range(1, 301)]
    assert fillings == [tuple(range(1, 301))]


def test_skew_schur_lr_expansion():
    # s_{(2,1)/(1)} = s_2 + s_11
    exp = expand_schur(skew_schur(SkewShape((2, 1), (1, 0)), 2))
    assert exp.coeffs == {(2,): 1, (1, 1): 1}


def test_lr_coefficients():
    def lr_coefficient(lam, mu, nu):
        # c^lam_{mu,nu}: the coefficient of s_lam in s_mu * s_nu
        fillings = LRProducts(max(sum(lam), 1)).fillings(mu, SkewShape(nu))
        return fillings.get(lam, 0)

    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (1,), (2,)) == 1
    assert lr_coefficient((2, 2), (1,), (2, 1)) == 1
    assert lr_coefficient((3,), (1,), (1, 1)) == 0
    # mu not inside lam: s_lam is not a term of s_mu * s_nu
    assert lr_coefficient((2, 1), (3,), ()) == 0
    assert lr_coefficient((2,), (1, 1), ()) == 0


def test_expand_schur_roundtrip():
    rng = random.Random(7)
    for _ in range(10):
        coeffs = {}
        for _ in range(3):
            lam = tuple(sorted((rng.randint(1, 3)
                                for _ in range(rng.randint(1, 3))),
                               reverse=True))
            coeffs[lam] = rng.randint(-2, 2)
        exp = SchurExpansion(3, coeffs)
        assert expand_schur(exp.to_poly()) == exp


def spy_walks(monkeypatch) -> list:
    """The outers of every Kostka walk made from now on."""
    targets = []
    walk = symfunc._kostka_walk
    monkeypatch.setattr(symfunc, "_kostka_walk",
                        lambda layer, inner, outers, N:
                        targets.append(outers) or walk(layer, inner,
                                                       outers, N))
    return targets


def test_from_schur_builds_no_cancelled_term(monkeypatch):
    # a determinant's Schur terms cancel in its sums, and tally keeps the
    # cancelled keys at 0: none of them may cost a Kostka walk.  A budget
    # text read for the first time drops every kept value.
    monkeypatch.setenv("RIL_BUDGET", "2000001")
    targets = spy_walks(monkeypatch)
    assert SymPoly.from_schur(3, {(2, 1): 0, (1,): 2}) == SymPoly(
        3, {(1,): 2})
    assert targets == [[(1,)]]


def test_from_schur_is_the_sum_of_single_walks(monkeypatch):
    # mixed degrees, zero coefficients and terms of more than N parts,
    # each expansion converted from nothing kept
    rng = random.Random(30)
    for trial in range(40):
        monkeypatch.setenv("RIL_BUDGET", str(2000000 + trial))
        N = rng.randint(1, 4)
        coeffs = {}
        for _ in range(rng.randint(0, 8)):
            lam = tuple(sorted((rng.randint(1, 3)
                                for _ in range(rng.randint(0, 5))),
                               reverse=True))
            coeffs[lam] = rng.randint(-2, 2)
        want = SymPoly.zero(N)
        for lam, c in coeffs.items():
            if c and len(lam) <= N:
                single = skew_schur.__wrapped__(SkewShape(lam), N)
                want += SymPoly(N, {k: c * v
                                    for k, v in single.coeffs.items()})
        assert SymPoly.from_schur(N, coeffs) == want, (N, coeffs)


def test_from_schur_walk_is_budgeted(monkeypatch):
    monkeypatch.setenv("RIL_BUDGET", "5")
    with pytest.raises(BudgetExceeded, match=r"^from_schur of 2 Schur "
                       r"terms of degree 4 in 3 variables: 6 Kostka states "
                       r"exceed RIL_BUDGET=5$"):
        SymPoly.from_schur(3, {(2, 2): 1, (3, 1): -1, (1,): 1})


def test_expand_schur_reads_the_batch_under_its_budget(monkeypatch):
    # the batch records each s_lam as skew_schur keeps it, so the peel and
    # a second conversion walk nothing; another budget drops what the
    # batch recorded
    coeffs = {(3, 1): 2, (2, 2): -1, (2, 1, 1): 1, (2,): 3}
    monkeypatch.setenv("RIL_BUDGET", "2000001")
    targets = spy_walks(monkeypatch)
    p = SymPoly.from_schur(3, coeffs)
    assert targets == [[(3, 1, 0), (2, 2, 0), (2, 1, 1)], [(2,)]]
    del targets[:]
    assert expand_schur(p) == SchurExpansion(3, coeffs)
    assert SymPoly.from_schur(3, coeffs) == p
    assert targets == []
    monkeypatch.setenv("RIL_BUDGET", "2000002")
    assert expand_schur(p) == SchurExpansion(3, coeffs)
    assert sorted(targets) == [[(2,)], [(2, 1, 1)], [(2, 2)], [(3, 1)]]


def test_expand_schur_of_schur_is_delta():
    exp = expand_schur(schur_poly((3, 1), 3))
    assert exp.coeffs == {(3, 1): 1}
    assert exp.schur_positive


def test_lr_products_match_disjoint_union_walks():
    # every lam with |lam| <= 4 times every skew shape in a 3 x 3 box, in
    # 1 to 5 variables, against the Kostka walk of the disjoint union of
    # lam (shifted right past theta) and theta, which is s_lam * s_theta:
    # the terms with more than N parts drop on both sides (s_lam itself is
    # 0 when lam has more than N parts)
    lams = {partition_key(sorted(c, reverse=True))
            for c in itertools.product(range(5), repeat=4) if sum(c) <= 4}
    rows = [partition_key(t) for t in itertools.product(range(4), repeat=3)
            if partition_key(t) is not None]
    thetas = {SkewShape(o, i) for o in rows for i in rows
              if len(i) <= len(o) and all(map(operator.ge, o, i))}
    assert len(lams) == 12 and len(thetas) == 114
    for N in range(1, 6):
        products = LRProducts(N)
        for lam in lams:
            for theta in thetas:
                w = theta.outer[0] if theta.outer else 0
                union = SkewShape(
                    tuple(part + w for part in lam) + theta.outer,
                    (w,) * len(lam) + theta.inner)
                s_lam = expand_schur(schur_poly(lam, N))
                got = products.times(s_lam, theta)
                assert got == expand_schur(skew_schur(union, N)), (
                    N, lam, theta)


def test_lr_products_charge_every_partial_filling(monkeypatch):
    # s_21 from s_empty visits 3 partial fillings, s_1 * s_21 seven more;
    # the count is kept over the searches of one LRProducts, a repeated
    # product is read from its memo, and a new LRProducts counts afresh
    theta = SkewShape((2, 1))
    one, s1 = SchurExpansion(3, {(): 1}), SchurExpansion(3, {(1,): 1})
    monkeypatch.setenv("RIL_BUDGET", "9")
    products = LRProducts(3)
    assert products.times(one, theta) == SchurExpansion(3, {(2, 1): 1})
    assert products.times(one, theta) == SchurExpansion(3, {(2, 1): 1})
    assert products.visited == 3
    with pytest.raises(BudgetExceeded, match=re.escape(
            "LRProducts of SkewShape(outer=(2, 1), inner=(0, 0)) on s[1] in "
            "3 variables: 10 partial fillings exceed RIL_BUDGET=9")):
        products.times(s1, theta)
    assert LRProducts(3).times(s1, theta) == SchurExpansion(
        3, {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1})
    monkeypatch.setenv("RIL_BUDGET", "10")
    products = LRProducts(3)
    products.times(one, theta)
    products.times(s1, theta)
    assert products.visited == 10


def determinant_naive(M: ShapeMatrix):
    """Signed sum over permutations; small-n oracle for determinant."""
    perms = itertools.permutations(range(1, M.n + 1))
    terms = (("det", perm_sign(w), p)
             for w, p in diagonal_products(M, perms).items())
    return weighted_sums(terms, M.nvars, M.ring).get("det", M.ring(M.nvars))


def test_diagonal_products_are_the_nonzero_row_products(row_ribbon):
    # a Jacobi-Trudi matrix h_{lambda_i - i + j}: zero below the
    # subdiagonal; its entries multiplied as monomial polynomials are the
    # reference for the Schur expansions of the walk
    M = build(decompose(SkewShape((2, 2, 1, 1)), row_ribbon), 6).matrix
    perms = list(itertools.permutations(range(1, M.n + 1)))
    naive = {w: functools.reduce(operator.mul, (M[i, j] for i, j in
                                                enumerate(w, 1)))
             for w in perms}
    nonzero = {w: expand_schur(p) for w, p in naive.items()
               if not p.is_zero()}
    # the zero entries make some products vanish, but not all
    assert 0 < len(nonzero) < len(perms)
    assert diagonal_products(M, perms) == nonzero
    # only the permutations asked for are walked
    some = perms[::3]
    assert diagonal_products(M, some) == {
        w: p for w, p in nonzero.items() if w in some}


def test_determinant_is_budgeted(monkeypatch):
    # a 4 x 4 determinant visits 2^4 = 16 column subsets, refused before
    # any product is formed; then every product is charged as the LR
    # partial fillings it visits, over the matrix's own LRProducts
    def matrix():
        return random_shape_matrix(random.Random(5), 4, 2)

    monkeypatch.setenv("RIL_BUDGET", "15")
    with pytest.raises(BudgetExceeded, match=r"^determinant\(n=4\): 2\^4 "
                       r"column subsets exceed RIL_BUDGET=15$"):
        determinant(matrix())
    monkeypatch.delenv("RIL_BUDGET")
    want = determinant_naive(matrix())
    # the 16 subsets pass a budget of 31, the 32 fillings do not
    monkeypatch.setenv("RIL_BUDGET", "31")
    with pytest.raises(BudgetExceeded, match=r"^LRProducts of .* in 2 "
                       r"variables: 32 partial fillings exceed "
                       r"RIL_BUDGET=31$"):
        determinant(matrix())
    monkeypatch.setenv("RIL_BUDGET", "32")
    M = matrix()
    assert determinant(M) == want
    assert M.products.visited == 32


def test_determinant_matches_naive(hook_dec):
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        M = random_shape_matrix(rng, n, 3)
        assert determinant(M) == determinant_naive(M)
        # the same matrix reporting in the Schur basis
        S = ShapeMatrix(n, 3, M.shapes)
        assert determinant(S) == expand_schur(determinant(M))
    # the hook from N = 3 on: all 24 diagonal products are nonzero (at
    # N = 2 they all vanish, and the comparison would be 0 == 0).  The
    # hook has a column of four cells, so at N = 3 they cancel to 0.
    perms = list(itertools.permutations(range(1, 5)))
    for N in (3, 4):
        M = build(hook_dec, N).matrix
        assert len(diagonal_products(M, perms)) == 24
        assert determinant(M).is_zero() == (N == 3)
        assert determinant(M) == determinant_naive(M)


def test_determinant_of_the_empty_matrix_is_one():
    assert determinant(ShapeMatrix(0, 3, [])) == SchurExpansion(3, {(): 1})
    assert determinant(ShapeMatrix(0, 3, [], SymPoly.from_schur)) == \
        SymPoly.one(3)


def test_matrix_products_form_no_monomial_product(monkeypatch):
    # determinants, minors and immanants multiply section shapes by LR
    # fillings, also on a matrix reporting in the monomial basis: no
    # SymPoly product is formed
    M = random_shape_matrix(random.Random(3), 3, 3)
    calls = []
    orig = SymPoly.__mul__
    monkeypatch.setattr(SymPoly, "__mul__",
                        lambda p, q: calls.append((p, q)) or orig(p, q))
    det = determinant(M)
    imms = imm_tl_all(M)
    minors = [minor(M, (1, 2), (2, 3)), minor(M, (3,), (1,))]
    assert calls == []
    assert det == determinant_naive(M) and not det.is_zero()
    assert len(imms) == 5
    assert all(isinstance(p, SymPoly) for p in [*imms.values(), *minors])


def test_shape_matrix_indexing():
    one, theta = SkewShape(()), SkewShape((2, 1), (1,))
    M = ShapeMatrix(2, 2, [[one, None], [theta, one]], SymPoly.from_schur)
    assert M[1, 1] == SymPoly.one(2) and M[1, 2] == SymPoly.zero(2)
    assert M[2, 1] == skew_schur(theta, 2)
    assert determinant(M) == SymPoly.one(2)
    sub = M.submatrix((2,), (1,))
    assert sub.n == 1 and sub.ring == M.ring
    assert sub[1, 1] == skew_schur(theta, 2)
    # indices are 1..n: 0 would wrap to the last row or column
    for ij in ((0, 1), (1, 0), (3, 1), (1, 3)):
        with pytest.raises(IndexError, match="outside 1..2"):
            M[ij]
    for rows, cols in (((0,), (0,)), ((1, 3), (1, 2)), ((1, 2), (1,))):
        with pytest.raises(ValueError, match="square submatrix of 1..2"):
            minor(M, rows, cols)
    # the default ring is the Schur basis
    assert ShapeMatrix(2, 2, M.shapes)[2, 1] == SchurExpansion(
        2, {(2,): 1, (1, 1): 1})
