"""Temperley-Lieb algebra TL_n with loop value 2.

Basis diagrams are noncrossing perfect matchings on boundary points
L_1..L_n, R_1..R_n, read in circular order L_1..L_n, R_n..R_1.
Permutations are tuples in one-line notation with values 1..n.

Matchings are interned: `matching(n, pairs)` returns the one object with
those canonical pairs, validated the first time they are seen.  A
generator acts by `cap`: t_i m (side "L") or m t_i (side "R") joins two
adjacent boundary points of m, in O(n), with no strand tracing
(Rhoades-Skandera, "Temperley-Lieb immanants", 2005, for the matching
model).  `perm_to_matching` peels first right descents off a 321-avoiding
permutation and folds the right action over the word they spell; every
reduced word of such a permutation gives the same product (Stembridge,
1996: they are all commutation-equivalent).  The tests check both
actions against the general product, which traces the strands of the
glued diagram.

The definitional immanants read one coefficient table over S_n: the
algebra map theta sending s_i to t_i - 1, taken at w^-1 and expanded in
the basis diagrams.  It is built once per n by a one-generator recursion
along right descents, in length order, reading the left action, which
it computes for each (t_i, matching) the first time a row reaches it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (StrandTraceError, budget, charge, charge_permutations,
                     table)
from .perms import (apply_s, enumerate_321_avoiding,  # noqa: F401
                    first_right_descent, is_321_avoiding, perm_length)
from .symfunc import ShapeMatrix, determinant, diagonal_products, weighted_sums


# ------------------------------------------------------------------- matchings

@dataclass(frozen=True)
class NoncrossingMatching:
    """Perfect matching on L_1..L_n, R_1..R_n; noncrossing on the circle.

    Its hash is computed once: matchings key every row of the TL table.
    """

    n: int
    pairs: tuple  # sorted tuple of sorted 2-tuples of points

    def __init__(self, n, pairs):
        pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
        pts = [p for pair in pairs for p in pair]
        expected = {("L", i) for i in range(1, n + 1)} | {
            ("R", j) for j in range(1, n + 1)}
        if len(pts) != len(set(pts)) or set(pts) != expected:
            raise ValueError("not a perfect matching on the 2n points")
        if _crosses(n, pairs):
            raise ValueError("matching has crossing strands")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_hash", hash((n, pairs)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt (and interned) on unpickling: string hashes differ
        # between interpreters
        return matching, (self.n, self.pairs)

    def __str__(self):
        def fmt(p):
            return f"{p[0]}{p[1]}"
        return "".join(f"({fmt(a)}-{fmt(b)})" for a, b in self.pairs)


def _circle_pos(n, point):
    side, k = point
    return k - 1 if side == "L" else 2 * n - k


def _crosses(n, pairs) -> bool:
    arcs = [tuple(sorted((_circle_pos(n, a), _circle_pos(n, b)))) for a, b in pairs]
    for (a1, b1), (a2, b2) in itertools.combinations(arcs, 2):
        if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
            return True
    return False


_INTERNED = {}  # (n, canonical pairs) -> the matching


def matching(n, pairs) -> NoncrossingMatching:
    """The interned matching with these pairs.  Pairs not seen before go
    through the validating constructor, which raises ValueError on a
    crossing or non-perfect list."""
    key = (n, tuple(sorted(tuple(sorted(p)) for p in pairs)))
    m = _INTERNED.get(key)
    if m is None:
        m = _INTERNED[key] = NoncrossingMatching(*key)
    return m


def identity_matching(n) -> NoncrossingMatching:
    return matching(n, [(("L", k), ("R", k)) for k in range(1, n + 1)])


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


# ------------------------------------------------------ the generators' action

def cap(m: NoncrossingMatching, side: str, i: int):
    """Join the boundary points (side, i) and (side, i + 1) of m by a cap
    from outside, in O(n): returns (matching, loops).  On side "L" this
    is t_i m, on side "R" it is m t_i.  The two strands at the points
    join (a closed loop if they were one strand) and the two points are
    paired."""
    p, q = (side, i), (side, i + 1)
    partner = {}
    for a, b in m.pairs:
        partner[a], partner[b] = b, a
    if partner[p] == q:
        return m, 1
    pairs = [pair for pair in m.pairs if p not in pair and q not in pair]
    return matching(m.n, pairs + [(p, q), (partner[p], partner[q])]), 0


# kept: theorem1_harness reads each type again for every instance
@table
def perm_to_matching(u: tuple) -> NoncrossingMatching:
    """Basis matching of u as a product of generators: the first right
    descents peeled off u down to the identity (u -> u s_i) spell a reduced
    word, and the right action m -> m t_i is folded over it in reverse.

    The KL immanant at a 321-avoiding w is the TL immanant of
    perm_to_matching(perm_inverse(w)), the matching of the inverse (for
    an involution such as 2143, the matching of w itself).
    """
    if not is_321_avoiding(u):
        raise ValueError(f"{u} contains the pattern 321")
    word, i = [], first_right_descent(u)
    while i is not None:
        word.append(i)
        u = apply_s(u, i)
        i = first_right_descent(u)
    m = identity_matching(len(u))
    for i in reversed(word):
        m, loops = cap(m, "R", i)
        assert loops == 0
    return m


# kept: imm_tl and imm_tl_all read it again for every instance of a sweep
@table
def _tl_table(n: int) -> dict:
    """Map w -> {matching: coefficient} of theta(w^-1) over S_n.

    Built in length order by one generator at a time: for a right descent
    i of w, theta(w^-1) = (t_i - 1) theta((w s_i)^-1), with t_i m = cap(m,
    "L", i) computed the first time a row reaches (i, m) and then read
    from left[i].  Charged its n! permutations before any is listed, then
    its nonzero entries as each row is stored (not the actions, at most
    (n - 1) Catalan(n)).
    """
    layer = f"_tl_table(n={n})"
    charge_permutations(layer, n, 1, "permutations")
    left = [{} for _ in range(n)]
    perms = sorted(itertools.permutations(range(1, n + 1)), key=perm_length)
    table, limit, stored = {perms[0]: {identity_matching(n): 1}}, budget(), 1
    for w in perms[1:]:
        i = first_right_descent(w)
        action, out = left[i], {}
        for m, c in table[apply_s(w, i)].items():
            acted = action.get(m)
            if acted is None:
                acted = action[m] = cap(m, "L", i)
            prod, loops = acted
            out[prod] = out.get(prod, 0) + c * 2 ** loops
            out[m] = out.get(m, 0) - c
        table[w] = row = {m: c for m, c in out.items() if c}
        stored += len(row)
        if stored > limit:
            charge(layer, stored, "entries")
    return table


def imm_tl(tau: NoncrossingMatching, A):
    """Temperley-Lieb immanant of A at type tau, by the defining sum, in
    A's ring (a SchurExpansion, or a SymPoly for a matrix reporting in
    the monomial basis).

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
    column = {w: row[tau]
              for w, row in _tl_table(tau.n).items() if tau in row}
    terms = ((tau, column[w], p)
             for w, p in diagonal_products(A, column).items())
    return weighted_sums(terms, A.nvars, A.ring).get(tau, A.ring(A.nvars))


def imm_tl_all(A) -> dict:
    """Every Temperley-Lieb immanant of A by type, in one pass and in A's
    ring; 0 if absent."""
    table = _tl_table(A.n)
    terms = ((tau, c, p) for w, p in diagonal_products(A, table).items()
             for tau, c in table[w].items())
    return weighted_sums(terms, A.nvars, A.ring)


def minor(A: ShapeMatrix, rows, cols):
    """Determinant of the submatrix on the given row/column sets, in A's
    ring."""
    return determinant(A.submatrix(rows, cols))
