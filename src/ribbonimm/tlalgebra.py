"""Temperley-Lieb algebra TL_n with loop value 2.

Basis diagrams are noncrossing perfect matchings on boundary points
L_1..L_n, R_1..R_n, read in circular order L_1..L_n, R_n..R_1.
Permutations are tuples in one-line notation with values 1..n.

The definitional immanants read one coefficient table over S_n: the
algebra map theta sending s_i to t_i - 1, taken at w^-1 and expanded in
the basis diagrams.  It is built once per n by a one-generator recursion
along right descents, in length order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import BudgetExceeded, StrandTraceError, budget, charge
from .perms import (apply_s, enumerate_321_avoiding,  # noqa: F401
                    first_right_descent, identity_perm, is_321_avoiding,
                    perm_inverse, perm_length, perm_mul, perm_sign,
                    reduced_word)
from .symfunc import SFMatrix, SymPoly, determinant, diagonal_sums


# ------------------------------------------------------------------- matchings

def _pt_L(i):
    return ("L", i)


def _pt_R(j):
    return ("R", j)


@dataclass(frozen=True)
class NoncrossingMatching:
    """Perfect matching on L_1..L_n, R_1..R_n; noncrossing on the circle."""

    n: int
    pairs: tuple  # sorted tuple of sorted 2-tuples of points

    def __init__(self, n, pairs):
        pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
        pts = [p for pair in pairs for p in pair]
        expected = {_pt_L(i) for i in range(1, n + 1)} | {
            _pt_R(j) for j in range(1, n + 1)}
        if len(pts) != len(set(pts)) or set(pts) != expected:
            raise ValueError("not a perfect matching on the 2n points")
        if _crosses(n, pairs):
            raise ValueError("matching has crossing strands")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", pairs)

    def __str__(self):
        def fmt(p):
            return f"{p[0]}{p[1]}"
        return "".join(f"({fmt(a)}-{fmt(b)})" for a, b in self.pairs)

    def to_json(self):
        return [[f"{a[0]}{a[1]}", f"{b[0]}{b[1]}"] for a, b in self.pairs]


def _circle_pos(n, point):
    side, k = point
    return k - 1 if side == "L" else 2 * n - k


def _crosses(n, pairs) -> bool:
    arcs = [tuple(sorted((_circle_pos(n, a), _circle_pos(n, b)))) for a, b in pairs]
    for (a1, b1), (a2, b2) in itertools.combinations(arcs, 2):
        if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
            return True
    return False


def identity_matching(n) -> NoncrossingMatching:
    return NoncrossingMatching(n, [(_pt_L(k), _pt_R(k)) for k in range(1, n + 1)])


def generator(n, i) -> NoncrossingMatching:
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    pairs = [(_pt_L(i), _pt_L(i + 1)), (_pt_R(i), _pt_R(i + 1))]
    pairs += [(_pt_L(k), _pt_R(k)) for k in range(1, n + 1) if k not in (i, i + 1)]
    return NoncrossingMatching(n, pairs)


def trace_strands(adj, ends):
    """Follow the strands of a picture in which no position has degree > 2.

    adj maps each position to the list of its neighbours; ends maps the
    strand ends (degree 1) to their labels.  Each strand is followed from
    one end to the next end it reaches.  Returns the (label, label) pairs
    of the strands and the number of closed loops: the components that
    contain no end.
    """
    pairs, seen = [], set()
    for start, label in ends.items():
        if start in seen:
            continue
        seen.add(start)
        prev, cur = None, start
        while True:
            for nxt in adj[cur]:
                if nxt != prev:
                    break
            else:
                raise StrandTraceError(f"dead end at {cur}")
            prev, cur = cur, nxt
            seen.add(cur)
            if cur in ends:
                break
        pairs.append((label, ends[cur]))
    loops = 0
    for start in adj:
        if start not in seen:
            loops += 1
            todo = [start]
            while todo:
                cur = todo.pop()
                if cur not in seen:
                    seen.add(cur)
                    todo.extend(adj[cur])
    return pairs, loops


def diagram_mul(m1: NoncrossingMatching, m2: NoncrossingMatching):
    """Concatenate m1 (left) with m2 (right): returns (matching, loops)."""
    if m1.n != m2.n:
        raise ValueError("size mismatch")
    n = m1.n
    # points of the glued diagram: ("A", side, k) from m1, ("B", side, k)
    # from m2; m1's R-side is identified with m2's L-side
    adj = {}

    def link(a, b):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    for a, b in m1.pairs:
        link(("A",) + a, ("A",) + b)
    for a, b in m2.pairs:
        link(("B",) + a, ("B",) + b)
    for k in range(1, n + 1):
        link(("A", "R", k), ("B", "L", k))

    boundary = {("A", "L", k): _pt_L(k) for k in range(1, n + 1)}
    boundary.update({("B", "R", k): _pt_R(k) for k in range(1, n + 1)})
    pairs, loops = trace_strands(adj, boundary)
    return NoncrossingMatching(n, pairs), loops


@functools.lru_cache(maxsize=None)
def perm_to_matching(u: tuple) -> NoncrossingMatching:
    """Basis matching of the product of generators over a reduced word.

    The KL immanant at a 321-avoiding w is the TL immanant of
    perm_to_matching(perm_inverse(w)), the matching of the inverse (for
    an involution such as 2143, the matching of w itself).
    """
    if not is_321_avoiding(u):
        raise ValueError(f"{u} contains the pattern 321")
    n = len(u)
    m = identity_matching(n)
    for i in reduced_word(u):
        m, loops = diagram_mul(m, generator(n, i))
        assert loops == 0
    return m


def charge_tl_table(n: int) -> None:
    """Charge the n! Catalan(n) (permutation, matching) slots of
    _tl_table(n) to the budget.  Since n! >= 2^(n-1), an n past the
    budget's bit length is refused without its (huge) count."""
    limit = budget()
    if n > limit.bit_length():
        raise BudgetExceeded(f"_tl_table(n={n}): more than 2^{n - 1} slots "
                             f"exceed RIL_BUDGET={limit}")
    charge(f"_tl_table(n={n})",
           math.factorial(n) * math.comb(2 * n, n) // (n + 1), "slots")


@functools.lru_cache(maxsize=None)
def _tl_table(n: int) -> dict:
    """Map w -> {matching: coefficient} of theta(w^-1) over S_n.

    Built in length order by one generator at a time: for a right descent
    i of w, theta(w^-1) = (t_i - 1) theta((w s_i)^-1).
    """
    charge_tl_table(n)
    table = {}
    for w in sorted(itertools.permutations(range(1, n + 1)), key=perm_length):
        i = first_right_descent(w)
        if i is None:
            table[w] = {identity_matching(n): 1}
            continue
        g, out = generator(n, i), {}
        for m, c in table[apply_s(w, i)].items():
            prod, loops = diagram_mul(g, m)
            out[prod] = out.get(prod, 0) + c * 2 ** loops
            out[m] = out.get(m, 0) - c
        table[w] = {m: c for m, c in out.items() if c}
    return table


def theta_of_perm(w: tuple) -> dict:
    """Image of w under the algebra map sending s_i to t_i - 1, as
    {matching: coefficient}."""
    return _tl_table(len(w))[perm_inverse(w)]


def all_matchings(n):
    """All noncrossing matchings, via the 321-avoiding bijection."""
    return [perm_to_matching(u) for u in enumerate_321_avoiding(n)]


def imm_tl(tau: NoncrossingMatching, A: SFMatrix) -> SymPoly:
    """Temperley-Lieb immanant of A at type tau, by the defining sum.

    Types are drawn with the row points on the left.  The immanant weighs
    the diagonal product of w by the coefficient of tau in theta(w^-1):
    our concatenation order is the left-right reflection of the one the
    immanant definition assumes, and the reflection is an anti-automorphism
    of TL_n fixing every t_i, so it sends theta(w) to theta(w^-1).  The
    choice is pinned by the general product-of-complementary-minors
    identity on asymmetric matrices.
    """
    if A.n != tau.n:
        raise ValueError("dimension mismatch")
    column = {w: {tau: terms[tau]}
              for w, terms in _tl_table(tau.n).items() if tau in terms}
    return diagonal_sums(A, column)[tau]


def imm_tl_all(A: SFMatrix) -> dict:
    """Every Temperley-Lieb immanant of A, keyed by type, in one pass."""
    return diagonal_sums(A, _tl_table(A.n))


def compatible(tau: NoncrossingMatching, I, J) -> bool:
    """True iff every strand has one black and one white endpoint, where
    L_i is black iff i in I and R_j is white iff j in J."""
    I, J = set(I), set(J)
    if len(I) != len(J):
        raise ValueError("|I| != |J|")

    def black(point):
        side, k = point
        return (k in I) if side == "L" else (k not in J)

    return all(black(a) != black(b) for a, b in tau.pairs)


def compatible_types(n, I, J):
    return [m for m in all_matchings(n) if compatible(m, I, J)]


def minor(A: SFMatrix, rows, cols) -> SymPoly:
    """Determinant of the submatrix on the given row/column sets."""
    return determinant(A.submatrix(rows, cols))
