"""Exact symmetric polynomial arithmetic in N variables.

Polynomials are stored in the monomial symmetric basis: a map from
partitions (at most N parts) to exact integers.  Symmetry is therefore
structural.  The coefficient of the single monomial x^gamma equals the
stored coefficient at the sorted exponent vector, which is what the
multiplication routine exploits.

N is only a truncation: it drops the partitions with more than N parts
and is never a loop bound of its own.  Skew Schur polynomials come from
the horizontal-strip recursion for skew Kostka numbers (Macdonald,
Symmetric Functions and Hall Polynomials, I.5), which visits only the
partitions of the degree with at most N parts.  A product is one pass
over pairs of terms, each weighted by the structure constants of
m_lambda * m_mu (Macdonald, I.2), which are computed for each pair of
terms in len(lambda) + len(mu) slots, not in all N.

Schur expansions (`SchurExpansion`) hold the same kind of map in the
Schur basis.  A matrix (`ShapeMatrix`) holds each entry as a skew shape.
Every product of entries, in a determinant, a minor or an immanant, and
every product of two Schur expansions goes through Littlewood-Richardson
fillings (`LRProducts`).  A matrix reports its results in its ring: the
Schur basis, or the monomial basis through `SymPoly.from_schur`.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import budget, charge, charge_determinant, table
from .shapes import SkewShape, normalize_partition


def partition_key(wt):
    """The nonnegative weight wt as a partition (trailing zeros dropped)
    if it is weakly decreasing, else None."""
    wt = tuple(wt)
    if not all(map(operator.ge, wt, wt[1:])):
        return None
    return wt[:len(wt) - wt.count(0)]


def pair_by_weight(reds, blues, weight):
    """Every (red, blue, key) with red from reds and blue from blues whose
    weight vectors sum to a partition, key being that partition.

    Both streams are grouped by weight vector first, and only the pairs of
    groups whose summed weight is weakly decreasing are expanded, so no
    pair with a non-partition weight is ever formed.
    """
    def groups(items):
        out = {}
        for item in items:
            out.setdefault(weight(item), []).append(item)
        return out

    blue_groups = groups(blues)
    for red_wt, red_group in groups(reds).items():
        for blue_wt, blue_group in blue_groups.items():
            key = partition_key(map(operator.add, red_wt, blue_wt))
            if key is not None:
                for red in red_group:
                    for blue in blue_group:
                        yield red, blue, key


def _sorted_key(vec) -> tuple:
    """The nonnegative exponent vector vec as a partition."""
    vec = sorted(vec, reverse=True)
    return tuple(vec[:len(vec) - vec.count(0)])


def _orbit(key: tuple, nvars: int) -> tuple:
    """All distinct length-nvars exponent vectors with sorted form key,
    in increasing lexicographic order."""
    if not nvars:
        return ((),)
    out = []
    if len(key) < nvars:
        out += [(0,) + tail for tail in _orbit(key, nvars - 1)]
    # the first entry takes each distinct part once, smallest first
    for i in reversed(range(len(key))):
        if not i or key[i] != key[i - 1]:
            rest = key[:i] + key[i + 1:]
            out += [(key[i],) + tail for tail in _orbit(rest, nvars - 1)]
    return tuple(out)


def _orbit_size(key: tuple, nvars: int) -> int:
    """len(_orbit(key, nvars)), by the multinomial formula."""
    out = math.factorial(nvars)
    for m in Counter(key + (0,) * (nvars - len(key))).values():
        out //= math.factorial(m)
    return out


def _monomial_product(lam: tuple, mu: tuple, nvars: int) -> dict:
    """m_lam * m_mu in nvars variables, as {nu: coefficient}.

    With lam's exponent vector fixed, count the beta in the orbit of mu
    whose sum with it sorts to nu.  Each vector of lam's orbit meets nu's
    orbit equally often, so counting the pairs (alpha, beta) with
    alpha + beta in the orbit of nu both ways gives
    hits * |O(lam)| = coefficient * |O(nu)|, an exact division.
    """
    # every nu has at most len(lam) + len(mu) parts
    width = min(nvars, len(lam) + len(mu))
    if _orbit_size(mu, width) > _orbit_size(lam, width):
        lam, mu = mu, lam
    lvec = lam + (0,) * (width - len(lam))
    hits = Counter(_sorted_key(map(operator.add, lvec, beta))
                   for beta in _orbit(mu, width))
    size = _orbit_size(lam, width)
    return {nu: h * size // _orbit_size(nu, width) for nu, h in hits.items()}


class _Terms:
    """Exact integer coefficients over the partitions with at most nvars
    parts, in the basis of the subclass; zero coefficients are dropped."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        self.coeffs = {tuple(k): c for k, c in (coeffs or {}).items() if c}
        if self.coeffs and max(map(len, self.coeffs)) > nvars:
            key = next(k for k in self.coeffs if len(k) > nvars)
            raise ValueError(f"{key} has more than {nvars} parts")

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")

    def __eq__(self, other):
        return (type(other) is type(self) and self.nvars == other.nvars
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))


class SymPoly(_Terms):
    """Symmetric polynomial in x_1..x_nvars, in the monomial basis."""

    __slots__ = ()

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(): 1})

    @classmethod
    def from_schur(cls, nvars, coeffs=None):
        """The sum of c * s_lam over the (lam, c) in coeffs: a Schur
        expansion in the monomial basis.  A zero c builds no s_lam."""
        return weighted_sums(((None, c, schur_poly(lam, nvars))
                              for lam, c in (coeffs or {}).items() if c),
                             nvars, cls).get(None, cls(nvars))

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        return max((sum(k) for k in self.coeffs), default=None)

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return SymPoly(self.nvars, out)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for lam, a in self.coeffs.items():
            for mu, b in other.coeffs.items():
                ab = a * b
                for nu, c in _monomial_product(lam, mu, self.nvars).items():
                    out[nu] = out.get(nu, 0) + ab * c
        return SymPoly(self.nvars, out)

    def evaluate(self, point) -> int:
        """Exact evaluation at an integer point of length nvars."""
        assert len(point) == self.nvars
        total = 0
        for key, c in self.coeffs.items():
            for alpha in _orbit(key, self.nvars):
                term = 1
                for x, e in zip(point, alpha):
                    term *= x ** e
                total += c * term
        return total

    def __repr__(self):
        items = ", ".join(f"m{list(k)}: {c}" for k, c in sorted(
            self.coeffs.items(), reverse=True))
        return f"SymPoly(N={self.nvars}, {{{items}}})"


def enumerate_ssyt(shape: SkewShape, N: int):
    """All fillings with weakly increasing rows and strictly increasing
    columns, entries in [1, N], as cell -> entry maps in row-major
    lexicographic order."""
    cells = [(i, j) for i, j, _ in shape.cells()]
    # an entry is capped at N minus the cells below it in its column; the
    # column of a cell's left neighbour reaches at least as far down, so
    # every partial filling within the caps completes
    bottom = {j: i for i, j in cells}
    cap = [N - bottom[j] + i for i, j in cells]
    if min(cap, default=1) < 1:
        return
    n = len(cells)
    # a missing left neighbour reads slot n (1), a missing one above n + 1 (0)
    index = {cell: k for k, cell in enumerate(cells)}
    left = [index.get((i, j - 1), n) for i, j in cells]
    above = [index.get((i - 1, j), n + 1) for i, j in cells]
    vals = [0] * n + [1, 0]
    k = 0
    while True:
        # the least entries from cell k on, then the next filling in
        # order: the last entry below its cap goes up by one
        for r in range(k, n):
            vals[r] = max(vals[left[r]], vals[above[r]] + 1)
        yield dict(zip(cells, vals))
        k = n - 1
        while k >= 0 and vals[k] == cap[k]:
            k -= 1
        if k < 0:
            return
        vals[k] += 1
        k += 1


def ssyt_count(shape: SkewShape, N: int) -> int:
    """Number of SSYT of shape with entries in [1, N], without listing
    them: a Jacobi-Trudi determinant at x_1 = ... = x_N = 1, over the rows
    or, if fewer, the columns (Macdonald I.5.4 and 5.5).  Over the rows it
    is det h_{outer_i - inner_j - i + j}, where h_k takes the value
    C(N + k - 1, k); over the columns it is the same determinant of e's
    on the conjugate shapes, where e_k takes the value C(N, k)."""
    lam, mu = shape.outer, shape.inner
    columns = bool(lam) and lam[0] < len(lam)
    if columns:
        lam, mu = ([sum(p > j for p in part) for j in range(lam[0])]
                   for part in (lam, mu))

    def value(k):
        if k <= 0:
            return int(k == 0)
        return math.comb(N, k) if columns else math.comb(N + k - 1, k)

    a = [[value(lam[i] - mu[j] - i + j) for j in range(len(lam))]
         for i in range(len(lam))]
    # fraction-free (Bareiss) elimination: every division is exact
    sign, prev = 1, 1
    for k in range(len(a) - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if a else 1


def charge_budget(what: str, N: int, shapes: dict) -> bool:
    """Count the objects an enumeration would build before it lists any.

    shapes maps a label to a skew shape whose SSYT in N variables are in
    bijection with that label's objects (for a colored model, the red and
    the blue half).  BudgetExceeded is raised if the product of the counts
    passes the enumeration budget.  Returns False when a count is 0: then
    there is nothing to build, and the caller must not list the other
    halves, which may be far larger than the budget.
    """
    counts = {label: ssyt_count(shape, N) for label, shape in shapes.items()}
    charge(" times ".join(f"{n} {label}" for label, n in counts.items())
           + f" in {N} variables", math.prod(counts.values()), what)
    return all(counts.values())


def tally(items, N: int, cls=SymPoly) -> dict:
    """Map from label to cls(N, coeffs), where coeffs sums, by partition
    key, the counts c of the (label, key, c) in items."""
    acc = {}
    for label, key, c in items:
        bucket = acc.setdefault(label, {})
        bucket[key] = bucket.get(key, 0) + c
    return {label: cls(N, coeffs) for label, coeffs in acc.items()}


def _horizontal_strips(nu, lam, size) -> list:
    """Every kappa with nu <= kappa <= lam such that kappa/nu is a
    horizontal strip of the given size; nu and kappa have len(lam) parts,
    listed in increasing lexicographic order."""
    room = [(lam[i] if i == 0 else min(lam[i], nu[i - 1])) - nu[i]
            for i in range(len(lam))]
    rows = [i for i, r in enumerate(room) if r]  # only these can grow
    below = list(itertools.accumulate(reversed(room[1:]), initial=0))[::-1]
    out, stack = [], [((), size)] if size <= sum(room) else []
    while stack:
        adds, left = stack.pop()
        if len(adds) + 1 >= len(rows):  # the last row takes what is left
            kappa = list(nu)
            for i, add in zip(rows, adds + (left,)):
                kappa[i] += add
            out.append(tuple(kappa))
            continue
        i = rows[len(adds)]  # at least what the rows below have no room for
        for add in range(min(room[i], left), max(0, left - below[i]) - 1, -1):
            stack.append((adds + (add,), left - add))
    return out


# kept: check_determinant reads each s_lam again, through from_schur
@table
def skew_schur(shape: SkewShape, N: int) -> SymPoly:
    """Weight generating function of the SSYT of shape, in N variables."""
    # The coefficient of m_alpha counts the chains inner = nu^0 <= nu^1
    # <= ... <= outer whose steps are horizontal strips of sizes alpha_1,
    # alpha_2, ...  The partitions alpha are walked as a prefix tree,
    # carrying the chain ends of the prefix with their counts.  Each node
    # of the walk and each strip list is charged to the budget.
    lam, mu = shape.outer, shape.inner
    limit = budget()
    strips = {}     # (nu, size) -> horizontal strips of that size on nu
    coeffs = {}

    def extend(ends, size):
        out = {}
        for nu, count in ends.items():
            key = (nu, size)
            if key not in strips:
                if len(strips) >= limit:
                    charge(f"skew_schur of {shape} in {N} variables",
                           len(strips) + 1, "Kostka states")
                strips[key] = _horizontal_strips(nu, lam, size)
            for kappa in strips[key]:
                out[kappa] = out.get(kappa, 0) + count
        return out

    # depth first over an explicit stack, largest next part first
    stack = [((), shape.size, {mu: 1})]
    nodes = 0
    while stack:
        alpha, left, ends = stack.pop()
        nodes += 1
        if nodes > limit:
            charge(f"skew_schur of {shape} in {N} variables", nodes,
                   "Kostka walk nodes")
        if not left:
            coeffs[alpha] = ends[lam]
            continue
        if len(alpha) == N:
            continue
        # the remaining parts, at most N - len(alpha) of them, are <= part
        lowest = -(-left // (N - len(alpha)))
        for part in range(lowest, min(left, alpha[-1] if alpha else left) + 1):
            nxt = extend(ends, part)
            if nxt:
                stack.append((alpha + (part,), left - part, nxt))
    return SymPoly(N, coeffs)


def schur_poly(lam, N: int) -> SymPoly:
    lam = normalize_partition(lam)
    if len(lam) > N:
        return SymPoly.zero(N)
    return skew_schur(SkewShape(lam), N)


def determinant(M: ShapeMatrix):
    """Exact determinant, in M's ring, summed from the top row.  D[S],
    the minor of the first |S| rows on the columns S, adds
    (-1)^(the columns of S greater than j) * D[S] * M[|S| + 1, j] to
    D[S + {j}]; every product is one of M's LR products, charged to the
    budget."""
    charge_determinant(M.n)
    if not M.n:
        return M.ring(M.nvars, {(): 1})
    sums = {0: M.one()}
    for row in range(1, M.n + 1):
        terms = ((cols | 1 << j - 1, (-1) ** (cols >> j).bit_count(),
                  M.times(p, row, j))
                 for cols, p in sums.items()
                 for j in range(1, M.n + 1) if not cols >> j - 1 & 1)
        sums = weighted_sums(terms, M.nvars,
                             M.ring if row == M.n else SchurExpansion)
    return sums.get((1 << M.n) - 1, M.ring(M.nvars))


def diagonal_products(M: ShapeMatrix, perms) -> dict:
    """Map w -> M[1, w(1)] ... M[n, w(n)], as a Schur expansion, over the
    permutations w in perms (one-line tuples of 1..n) whose product is
    nonzero.

    The permutations are walked as a prefix tree, depth first over an
    explicit stack, so each row-prefix product is formed once, and a
    prefix whose product is zero prunes every permutation that extends it.
    """
    out = {}
    # (row, j, prod, ws): prod * M[row, j] is the prefix of ws; 0 is the root
    stack = [(0, None, M.one(), list(perms))]
    while stack:
        row, j, prod, ws = stack.pop()
        if row:
            prod = M.times(prod, row, j)
            if prod.is_zero():
                continue
        if row == M.n:
            out.update(dict.fromkeys(ws, prod))
            continue
        by_col = {}
        for w in ws:
            by_col.setdefault(w[row], []).append(w)
        # the first column seen is popped, and multiplied, first
        stack.extend((row + 1, j, prod, ws)
                     for j, ws in reversed(by_col.items()))
    return out


def weighted_sums(terms, nvars: int, ring) -> dict:
    """Map key -> ring(nvars, coeffs), where coeffs sums c * p.coeffs over
    the (key, c, p) in terms, each p in one basis; only the keys in terms
    get an entry."""
    return tally(((key, lam, c * v) for key, c, p in terms
                  for lam, v in p.coeffs.items()), nvars, ring)


class SchurExpansion(_Terms):
    """Symmetric polynomial in x_1..x_nvars, in the Schur basis."""

    __slots__ = ()

    @property
    def schur_positive(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def negative_part(self):
        """The negative terms, lex-greatest partition first."""
        return {k: c for k, c in sorted(self.coeffs.items(), reverse=True)
                if c < 0}

    def __mul__(self, other):
        """The sum of c * self * s_mu over the terms c * s_mu of other,
        by one LRProducts, charged to the budget."""
        self._check(other)
        products = LRProducts(self.nvars)
        return weighted_sums(
            ((None, c, products.times(self, SkewShape(mu)))
             for mu, c in other.coeffs.items()),
            self.nvars, SchurExpansion).get(None, SchurExpansion(self.nvars))

    def to_poly(self) -> SymPoly:
        return SymPoly.from_schur(self.nvars, self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for lam in sorted(self.coeffs, reverse=True):
            c = self.coeffs[lam]
            body = "s[" + ",".join(map(str, lam)) + "]"
            mag = abs(c)
            term = body if mag == 1 else f"{mag}*{body}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    __repr__ = __str__

    def to_json(self):
        return {
            "nvars": self.nvars,
            "terms": [
                {"partition": list(lam), "coeff": str(self.coeffs[lam])}
                for lam in sorted(self.coeffs, reverse=True)
            ],
            "schur_positive": self.schur_positive,
        }


def expand_schur(p: SymPoly) -> SchurExpansion:
    """Expand in the Schur basis by subtracting c * s_lam at the
    lex-greatest key lam until nothing is left.  s_lam has no key
    lex-greater than lam, and m_lam in it once, so each step removes the
    greatest key for good."""
    rem = dict(p.coeffs)
    out = {}
    while rem:
        lam = max(rem)
        c = out[lam] = rem[lam]
        for key, v in schur_poly(lam, p.nvars).coeffs.items():
            rem[key] = rem.get(key, 0) - c * v
            if not rem[key]:
                del rem[key]
    return SchurExpansion(p.nvars, out)


class LRProducts:
    """Products s_lam * s_theta in nvars variables, theta a skew shape, by
    the Littlewood-Richardson rule in Stembridge's form ("A concise proof
    of the Littlewood-Richardson rule", EJC 9, 2002; Macdonald I.9):
    s_lam * s_theta is the sum of s_{lam + wt(T)} over the SSYT T of
    theta whose reverse reading word (rows top to bottom, each row right
    to left) keeps lam + content a partition at every letter.  Entries
    at most nvars drop exactly the terms with more than nvars parts, so
    the product is the truncated one.

    The fillings are memoized on (lam, theta) for the life of the object,
    and every partial filling the search visits is charged to RIL_BUDGET,
    counted over all searches of the object.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.visited = 0
        self.limit = budget()
        self._memo, self._layouts = {}, {}

    def fillings(self, lam: tuple, theta: SkewShape) -> dict:
        """Map nu -> the number of LR fillings T of theta with
        lam + wt(T) = nu; the caller must not modify the returned map."""
        key = (lam, theta)
        if key not in self._memo:
            self._memo[key] = self._search(lam, theta)
        return self._memo[key]

    def _layout(self, theta) -> tuple:
        """theta's cells in reverse reading order, as the slot of each
        cell's right neighbour (read just before it) and of the cell above
        it, n and n + 1 when missing, and the number of cells below it in
        its column."""
        if theta not in self._layouts:
            cells = [(i, j) for i, (hi, lo) in enumerate(
                     zip(theta.outer, theta.inner)) for j in range(hi, lo, -1)]
            n = len(cells)
            index = {cell: k for k, cell in enumerate(cells)}
            bottom = {j: i for i, j in cells}
            self._layouts[theta] = (
                [index.get((i, j + 1), n) for i, j in cells],
                [index.get((i - 1, j), n + 1) for i, j in cells],
                [bottom[j] - i for i, j in cells])
        return self._layouts[theta]

    def _search(self, lam, theta) -> dict:
        if len(lam) > self.nvars:  # s_lam is 0 in nvars variables
            return {}
        right, above, below = self._layout(theta)
        n = len(right)
        if not n:
            return {lam: 1}
        # each letter lengthens lam + content by at most one part
        width = min(self.nvars, len(lam) + n)
        # a value is at most its right neighbour's (width if none) and
        # leaves room for the cells below it, and it exceeds the value of
        # the cell above it (0 if none)
        cap = [width - b for b in below]
        vals = [0] * n + [width, 0]
        part = list(lam) + [0] * (width - len(lam))
        out = {}
        visited, limit = self.visited, self.limit
        # depth first over an explicit stack of values: vals[:k] is the
        # partial filling and v the next value to try at cell k
        k, v = 0, 1
        while k >= 0:
            hi = vals[right[k]]
            if hi > cap[k]:
                hi = cap[k]
            # v - 1 must stay a longer row than v: equal rows skip v, and
            # past the last nonempty row no value is left
            while v <= hi and v > 1 and part[v - 2] == part[v - 1]:
                v = v + 1 if part[v - 2] else hi + 1
            if v > hi:
                k -= 1
                if k >= 0:
                    v = vals[k]
                    part[v - 1] -= 1
                    v += 1
                continue
            visited += 1
            if visited > limit:
                charge(f"LRProducts of {theta} on s{list(lam)} in "
                       f"{self.nvars} variables", visited, "partial fillings")
            vals[k] = v
            part[v - 1] += 1
            if k + 1 < n:
                k += 1
                v = vals[above[k]] + 1
            else:
                nu = tuple(part[:width - part.count(0)])
                out[nu] = out.get(nu, 0) + 1
                part[v - 1] -= 1
                v += 1
        self.visited = visited
        return out

    def times(self, p: SchurExpansion, theta: SkewShape) -> SchurExpansion:
        """p * s_theta in the Schur basis."""
        if not theta.size:
            return p
        out = {}
        for lam, c in p.coeffs.items():
            for nu, k in self.fillings(lam, theta).items():
                out[nu] = out.get(nu, 0) + c * k
        return SchurExpansion(self.nvars, out)


@dataclass
class ShapeMatrix:
    """Square matrix of skew Schur functions given by their shapes, a
    shape being None for the entry 0 (the empty shape is the entry 1).

    Every product of entries is a Schur expansion formed by one
    LRProducts, so the fillings are memoized, and charged to the budget,
    per matrix.  ring(nvars, coeffs) builds a value from its Schur
    coefficients: the entries, determinants and immanants of the matrix
    are reported in it, the Schur basis by default and the monomial
    basis with SymPoly.from_schur.
    """

    n: int
    nvars: int
    shapes: list
    ring: Callable = SchurExpansion
    products: LRProducts = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        assert len(self.shapes) == self.n
        assert all(len(row) == self.n for row in self.shapes)
        self.products = LRProducts(self.nvars)

    def __getitem__(self, ij):
        """Entry ij in the matrix's ring."""
        return self.ring(self.nvars, self.times(self.one(), *ij).coeffs)

    def submatrix(self, rows, cols) -> "ShapeMatrix":
        rows, cols = sorted(rows), sorted(cols)
        assert len(rows) == len(cols)
        return ShapeMatrix(len(rows), self.nvars, [
            [self.shapes[i - 1][j - 1] for j in cols] for i in rows],
            self.ring)

    def one(self) -> SchurExpansion:
        return SchurExpansion(self.nvars, {(): 1})

    def times(self, prod: SchurExpansion, i: int, j: int) -> SchurExpansion:
        """prod * s_theta for the shape theta of entry (i, j)."""
        theta = self.shapes[i - 1][j - 1]
        if theta is None:
            return SchurExpansion(self.nvars)
        return self.products.times(prod, theta)
