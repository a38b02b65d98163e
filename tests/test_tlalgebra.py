import itertools
import pickle
import random

import pytest

from conftest import compatible, compatible_types, random_shape_matrix
from oracles import (all_matchings, diagram_mul, generator, identity_perm,
                     perm_mul, perm_sign, reduced_word)
from ribbonimm import tlalgebra
from ribbonimm.errors import BudgetExceeded
from ribbonimm.perms import (apply_s, enumerate_321_avoiding, is_321_avoiding,
                             perm_inverse, perm_length)
from ribbonimm.symfunc import SymPoly, determinant
from ribbonimm.tlalgebra import (NoncrossingMatching, cap, identity_matching,
                                 imm_tl, matching, minor, perm_to_matching)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def theta_of_perm(w: tuple) -> dict:
    """Image of w under the algebra map sending s_i to t_i - 1, as
    {matching: coefficient}."""
    return tlalgebra._tl_table(len(w))[perm_inverse(w)]


def f_coeff(u: tuple, w: tuple) -> int:
    """Coefficient of the basis element of u in theta_of_perm(w)."""
    return theta_of_perm(w).get(perm_to_matching(u), 0)


def test_perm_utilities():
    w = (3, 1, 2)
    assert perm_length(w) == 2
    assert perm_inverse(w) == (2, 3, 1)
    assert perm_mul(w, perm_inverse(w)) == identity_perm(3)
    assert perm_sign(w) == 1
    word = reduced_word(w)
    assert len(word) == perm_length(w)
    u = identity_perm(3)
    for i in word:
        u = apply_s(u, i)
    assert u == w


def test_long_permutation_has_a_reduced_word():
    # (34, ..., 66, 1, ..., 33) avoids 321 and has length 33 * 33
    u = tuple(range(34, 67)) + tuple(range(1, 34))
    word = reduced_word(u)
    assert len(word) == perm_length(u) == 1089
    v = identity_perm(66)
    for i in word:
        v = apply_s(v, i)
    assert v == u
    assert perm_to_matching(u).n == 66


def test_perm_to_matching_folds_any_reduced_word():
    # the first right descents that perm_to_matching peels spell one
    # reduced word; the oracle's word s_i1 ... s_ik, read off left
    # descents, is another, and t_i1 ... t_ik, acted from the left in
    # reverse, is the same matching
    def fold(u):
        m = identity_matching(len(u))
        for i in reversed(reduced_word(u)):
            m, loops = cap(m, i)
            assert loops == 0
        return m

    long_perm = tuple(range(34, 67)) + tuple(range(1, 34))
    for n in range(1, 8):
        for u in enumerate_321_avoiding(n):
            assert perm_to_matching(u) == fold(u), u
    assert perm_to_matching(long_perm) == fold(long_perm)


def test_321_avoiding_catalan():
    for n in range(1, 7):
        count = sum(1 for _ in enumerate_321_avoiding(n))
        assert count == CATALAN[n]
        assert count == len(all_matchings(n))


def test_is_321_avoiding():
    assert is_321_avoiding((2, 1, 4, 3))
    assert not is_321_avoiding((3, 2, 1))


def test_perm_to_matching_bijective():
    # the 321-avoiding bijection against the matchings listed by their
    # first strand and, for n <= 5, every perfect matching of the 2n points
    # that the constructor accepts
    def perfect_matchings(points):
        if not points:
            yield []
            return
        a, rest = points[0], points[1:]
        for k, b in enumerate(rest):
            for tail in perfect_matchings(rest[:k] + rest[k + 1:]):
                yield [(a, b)] + tail

    for n in range(1, 8):
        images = {perm_to_matching(u) for u in enumerate_321_avoiding(n)}
        assert len(images) == CATALAN[n]
        listed = all_matchings(n)
        assert len(listed) == len(set(listed)) == CATALAN[n]
        assert images == set(listed)
        if n <= 5:
            points = [(side, k) for side in "LR" for k in range(1, n + 1)]
            found = set()
            for pairs in perfect_matchings(points):
                try:
                    found.add(NoncrossingMatching(n, pairs))
                except ValueError:
                    pass
            assert found == images


BAD_PAIRS = [
    # crossing strands
    (2, [(("L", 1), ("R", 2)), (("L", 2), ("R", 1))]),
    (4, [(("L", 1), ("L", 3)), (("L", 2), ("L", 4)), (("R", 1), ("R", 2)),
         (("R", 3), ("R", 4))]),
    # not perfect: a point missing, a point used twice, a foreign point
    (2, [(("L", 1), ("L", 2))]),
    (2, [(("L", 1), ("L", 2)), (("L", 1), ("R", 1))]),
    (2, [(("L", 1), ("L", 2)), (("R", 1), ("R", 3))]),
]


def test_matching_validation():
    # the typers' canonical-pairs lookup raises what the constructor
    # raises, also once the whole basis of TL_n is interned
    for n, pairs in BAD_PAIRS:
        with pytest.raises(ValueError) as direct:
            NoncrossingMatching(n, pairs)
        for _ in range(2):
            with pytest.raises(ValueError) as looked_up:
                matching(n, pairs)
            assert str(looked_up.value) == str(direct.value), pairs
            all_matchings(n)


def test_matchings_are_interned():
    m = matching(3, [(("R", 3), ("L", 3)), (("L", 2), ("L", 1)),
                     (("R", 2), ("R", 1))])
    assert m is matching(3, list(reversed(m.pairs)))
    assert m is perm_to_matching((2, 1, 3))
    traced, _ = diagram_mul(generator(3, 1), identity_matching(3))
    assert traced is not m and traced == m and hash(traced) == hash(m)
    assert pickle.loads(pickle.dumps(m)) is m


def test_actions_match_diagram_products():
    # the left action that _tl_table and perm_to_matching read, against
    # the traced product on every matching
    for n in range(1, 7):
        for i in range(1, n):
            g = generator(n, i)
            for m in all_matchings(n):
                assert cap(m, i) == diagram_mul(g, m)


def test_generator_relations():
    n = 4
    for i in range(1, n):
        g = generator(n, i)
        m, loops = diagram_mul(g, g)
        assert m == g and loops == 1
        for j in range(1, n):
            if abs(i - j) > 1:
                a, _ = diagram_mul(g, generator(n, j))
                b, _ = diagram_mul(generator(n, j), g)
                assert a == b
    for i in range(1, n - 1):
        mid, l1 = diagram_mul(generator(n, i), generator(n, i + 1))
        left, l2 = diagram_mul(mid, generator(n, i))
        assert left == generator(n, i) and l1 + l2 == 0


def test_identity_absorbs():
    n = 3
    e = identity_matching(n)
    for m in all_matchings(n):
        assert diagram_mul(e, m) == (m, 0)
        assert diagram_mul(m, e) == (m, 0)


def test_theta_coefficients():
    # theta(s_i) = t_i - 1: coefficient of t_i is 1, of identity is -1
    n = 3
    w = apply_s(identity_perm(n), 1)
    el = theta_of_perm(w)
    assert el[generator(n, 1)] == 1
    assert el[identity_matching(n)] == -1
    assert f_coeff((2, 1, 3), w) == 1


def test_theta_matches_brute_force_expansion():
    # expand the product of (t_i - 1) over a reduced word by hand,
    # multiplying diagrams with loop value 2; n = 5 goes past the 4x4
    # corpus matrices
    for n in (3, 4, 5):
        for w in itertools.permutations(range(1, n + 1)):
            word = reduced_word(w)
            terms = {identity_matching(n): 1}
            for i in word:
                g = generator(n, i)
                nxt = {}
                for m, c in terms.items():
                    prod, loops = diagram_mul(m, g)
                    nxt[prod] = nxt.get(prod, 0) + c * (2 ** loops)
                    nxt[m] = nxt.get(m, 0) - c
                terms = {m: c for m, c in nxt.items() if c}
            el = theta_of_perm(w)
            for m in all_matchings(n):
                assert el.get(m, 0) == terms.get(m, 0), (w, m)


def test_imm_1x1():
    rng = random.Random(3)
    A = random_shape_matrix(rng, 1, 2)
    assert imm_tl(identity_matching(1), A) == A[1, 1]


def test_complementary_minor_sum():
    # sum of all immanants equals the product of complementary principal
    # minors on the odd/even index sets, for arbitrary matrices
    rng = random.Random(5)
    for n in (2, 3, 5):
        A = random_shape_matrix(rng, n, 2)
        total = SymPoly.zero(2)
        for m in all_matchings(n):
            total = total + imm_tl(m, A)
        I = tuple(range(1, n + 1, 2))
        J = tuple(range(2, n + 1, 2))
        assert total == minor(A, I, I) * minor(A, J, J)


def test_general_complementary_minor_identity():
    rng = random.Random(9)
    for n in (2, 3):
        A = random_shape_matrix(rng, n, 2)
        for k in range(n + 1):
            for I in itertools.combinations(range(1, n + 1), k):
                for J in itertools.combinations(range(1, n + 1), k):
                    Ic = tuple(x for x in range(1, n + 1) if x not in I)
                    Jc = tuple(x for x in range(1, n + 1) if x not in J)
                    total = SymPoly.zero(2)
                    for m in compatible_types(n, I, J):
                        total = total + imm_tl(m, A)
                    assert total == minor(A, I, J) * minor(A, Ic, Jc), (I, J)


def test_compatible_identity_matching():
    n = 4
    I = (1, 3)
    assert compatible(identity_matching(n), I, I)


def test_minor_matches_determinant():
    rng = random.Random(1)
    A = random_shape_matrix(rng, 3, 2)
    assert minor(A, (1, 2), (2, 3)) == determinant(
        A.submatrix((1, 2), (2, 3)))
    assert minor(A, (), ()) == SymPoly.one(2)


def test_tl_table_charges_its_slots(monkeypatch):
    # charged its n! permutations before any is listed, then its nonzero
    # entries as each row is stored: 174 at n = 4
    monkeypatch.setenv("RIL_BUDGET", "173")
    with pytest.raises(BudgetExceeded, match=r"^_tl_table\(n=4\): 174 "
                       r"entries exceed RIL_BUDGET=173$"):
        tlalgebra._tl_table.__wrapped__(4)
    monkeypatch.setenv("RIL_BUDGET", "174")
    assert tlalgebra._tl_table.__wrapped__(4) == tlalgebra._tl_table(4)
    # 8! permutations pass a budget of 40,319 before any generator acts
    monkeypatch.setenv("RIL_BUDGET", "40319")

    def refuse(*args):
        raise AssertionError("acted before the budget check")

    with monkeypatch.context() as mp:
        mp.setattr(tlalgebra, "cap", refuse)
        with pytest.raises(BudgetExceeded, match=r"^_tl_table\(n=8\): 40320 "
                           r"permutations exceed RIL_BUDGET=40319$"):
            tlalgebra._tl_table(8)
    # the default budget takes S_6 and S_7 by the entries they store, and
    # refuses S_8 once its entries pass it; the rows of S_n use exactly
    # the Catalan(n) basis matchings
    monkeypatch.delenv("RIL_BUDGET")
    stored = []
    for n in range(1, 8):
        rows = tlalgebra._tl_table.__wrapped__(n).values()
        assert len(set().union(*rows)) == CATALAN[n], n
        stored.append(sum(map(len, rows)))
    assert stored[5:] == [42600, 943584]
    with pytest.raises(BudgetExceeded, match=r"^_tl_table\(n=8\): 2000074 "
                       r"entries exceed RIL_BUDGET=2000000$"):
        tlalgebra._tl_table(8)
