"""Exact symmetric polynomial arithmetic in N variables.

Polynomials are stored in the monomial symmetric basis: a map from
partitions (at most N parts) to exact integers.  Symmetry is therefore
structural.

N is only a truncation: it drops the partitions with more than N parts
and is never a loop bound of its own.  Skew Schur polynomials come from
the horizontal-strip recursion for skew Kostka numbers (Macdonald,
Symmetric Functions and Hall Polynomials, I.5), which visits only the
partitions of the degree with at most N parts.  `SymPoly.from_schur`
builds the Schur polynomials it needs together, one Kostka walk per
degree, and keeps each under `skew_schur`'s own key.

Schur expansions (`SchurExpansion`) hold the same kind of map in the
Schur basis.  A matrix (`ShapeMatrix`) holds each entry as a skew shape.
Every product of entries, in a determinant, a minor or an immanant, and
every product of two Schur expansions goes through Littlewood-Richardson
fillings (`LRProducts`).  `SymPoly *` is that product too, through the
Schur basis.  A matrix reports its results in its ring: the Schur basis,
or the monomial basis through `SymPoly.from_schur`.  The filling search
(`LRProducts.search`) runs over any diagram's `reading_layout`, so the
crystal model of `shuffle` finds its sources with it too.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import budget, charge, charge_determinant, kept_values, table
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
        expansion in the monomial basis.  A zero c, or a lam of more than
        nvars parts, builds no s_lam, and the others take one Kostka walk
        per degree (`_schur_polys`)."""
        terms = [(normalize_partition(lam), c)
                 for lam, c in (coeffs or {}).items() if c]
        polys = _schur_polys([lam for lam, _ in terms], nvars)
        return weighted_sums(((None, c, polys[lam]) for lam, c in terms
                              if lam in polys),
                             nvars, cls).get(None, cls(nvars))

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
        """The LR product of the two Schur expansions, charged to the
        budget."""
        return (expand_schur(self) * expand_schur(other)).to_poly()

    def __repr__(self):
        items = ", ".join(f"m{list(k)}: {c}" for k, c in sorted(
            self.coeffs.items(), reverse=True))
        return f"SymPoly(N={self.nvars}, {{{items}}})"


def enumerate_ssyt(shape: SkewShape, N: int):
    """All fillings with weakly increasing rows and strictly increasing
    columns, entries in [1, N], in row-major lexicographic order: each a
    tuple of the entries of shape.cells(), in that order."""
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
        yield tuple(vals[:n])
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
    # only row 0 and the rows where nu steps down can grow
    rows, room = [], []
    for i in itertools.compress(range(len(nu)), itertools.chain(
            (True,), map(operator.gt, nu, nu[1:]))):
        r = (lam[i] if i == 0 else min(lam[i], nu[i - 1])) - nu[i]
        if r:
            rows.append(i)
            room.append(r)
    # below[k]: the room of the rows after rows[k]
    below = list(itertools.accumulate(reversed(room), initial=0))[-2::-1]
    out, stack = [], [((), size)] if size <= sum(room) else []
    while stack:
        adds, left = stack.pop()
        k = len(adds)
        if k + 1 >= len(rows):  # the last row takes what is left
            kappa = list(nu)
            for i, add in zip(rows, adds + (left,)):
                kappa[i] += add
            out.append(tuple(kappa))
            continue
        # at least what the rows below have no room for
        for add in range(min(room[k], left), max(0, left - below[k]) - 1, -1):
            stack.append((adds + (add,), left - add))
    return out


def _kostka_walk(layer, inner, outers, N) -> dict:
    """Map kappa -> {alpha: K} over the kappa in outers, where K, the skew
    Kostka number of kappa/inner and alpha, counts the chains inner =
    nu^0 <= nu^1 <= ... <= kappa whose steps are horizontal strips of
    sizes alpha_1, alpha_2, ...  The outers contain inner, all have its
    length (zeros padding) and all have the same size.  Only the alpha
    with at most N parts and K != 0 are listed, and a kappa with none is
    left out.

    The partitions alpha are walked as a prefix tree, carrying the chain
    ends of the prefix with their counts, kept only where they fit inside
    some kappa.  Each node of the walk and each strip list is charged to
    the budget, the refusal naming layer().
    """
    bound = tuple(map(max, *outers)) if len(outers) > 1 else outers[0]
    limit = budget()
    strips = {}     # (nu, size) -> the strips of that size on nu that fit
    fits = {}       # kappa -> whether it fits inside some outer
    out = {}

    def extend(ends, size):
        nxt = {}
        for nu, count in ends.items():
            key = (nu, size)
            if key not in strips:
                if len(strips) >= limit:
                    charge(layer(), len(strips) + 1, "Kostka states")
                found = _horizontal_strips(nu, bound, size)
                if len(outers) > 1:
                    for kappa in found:
                        if kappa not in fits:
                            fits[kappa] = any(all(map(operator.le, kappa, lam))
                                              for lam in outers)
                    found = [kappa for kappa in found if fits[kappa]]
                strips[key] = found
            for kappa in strips[key]:
                nxt[kappa] = nxt.get(kappa, 0) + count
        return nxt

    # depth first over an explicit stack, largest next part first
    stack = [((), sum(outers[0]) - sum(inner), {inner: 1})]
    nodes = 0
    while stack:
        alpha, left, ends = stack.pop()
        nodes += 1
        if nodes > limit:
            charge(layer(), nodes, "Kostka walk nodes")
        if not left:  # a chain end of full size is one of the outers
            for kappa, count in ends.items():
                out.setdefault(kappa, {})[alpha] = count
            continue
        if len(alpha) == N:
            continue
        # the remaining parts, at most N - len(alpha) of them, are <= part
        lowest = -(-left // (N - len(alpha)))
        for part in range(lowest, min(left, alpha[-1] if alpha else left) + 1):
            nxt = extend(ends, part)
            if nxt:
                stack.append((alpha + (part,), left - part, nxt))
    return out


# kept: check_determinant reads each s_lam again, through from_schur, and
# expand_schur's peel reads what from_schur recorded
@table
def skew_schur(shape: SkewShape, N: int) -> SymPoly:
    """Weight generating function of the SSYT of shape, in N variables:
    the coefficient of m_alpha is the skew Kostka number."""
    lam = shape.outer
    return SymPoly(N, _kostka_walk(
        lambda: f"skew_schur of {shape} in {N} variables", shape.inner,
        [lam], N).get(lam, {}))


# the unkept function, whose key _schur_polys records under; bound at
# import, so a tracer that rebinds skew_schur leaves the key as it is
_skew_schur = skew_schur.__wrapped__


def _schur_polys(lams, N: int) -> dict:
    """Map lam -> s_lam in N variables over the partitions lam in lams
    with at most N parts.  The s_lam not yet kept by skew_schur are built
    by one Kostka walk from the empty partition per degree and kept under
    skew_schur's key.  That walk visits every node and strip list of each
    single walk, so it records no value that skew_schur would refuse."""
    kept = kept_values(_skew_schur)
    out, missing = {}, {}  # missing: degree -> {lam: its key in kept}
    for lam in lams:
        if len(lam) <= N and lam not in out:
            key = (SkewShape(lam), N)
            value = kept.get(key)
            if value is None:
                missing.setdefault(sum(lam), {})[lam] = key
            else:
                out[lam] = value
    for size, group in missing.items():
        width = max(map(len, group))
        padded = [lam + (0,) * (width - len(lam)) for lam in group]
        counts = _kostka_walk(
            lambda: f"from_schur of {len(group)} Schur terms of degree "
                    f"{size} in {N} variables", (0,) * width, padded, N)
        for (lam, key), kappa in zip(group.items(), padded):
            out[lam] = kept[key] = SymPoly(N, counts.get(kappa, {}))
    return out


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


def reading_layout(cells, step: int) -> tuple:
    """A diagram's cells, listed in reverse reading order (rows top to
    bottom, each right to left) with row and column neighbours step
    apart, as the slot of each cell's right neighbour (read just before
    it) and of the cell above it, n and n + 1 when missing, and the number
    of cells below it in its column."""
    n = len(cells)
    index = {cell: k for k, cell in enumerate(cells)}
    bottom = {j: i for i, j in cells}
    return ([index.get((i, j + step), n) for i, j in cells],
            [index.get((i - step, j), n + 1) for i, j in cells],
            [(bottom[j] - i) // step for i, j in cells])


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
    counted over all searches of the object.  `search` runs on any
    reading_layout: the crystal sources of shuffle are its fillings on
    s_() of a shuffle diagram's layout, lattice step 2.
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
            if theta not in self._layouts:
                self._layouts[theta] = reading_layout(
                    [(i, j) for i, (hi, lo) in enumerate(
                        zip(theta.outer, theta.inner))
                     for j in range(hi, lo, -1)], 1)
            out = {}
            for _, nu in self.search(
                    lam, self._layouts[theta],
                    lambda: f"LRProducts of {theta} on s{list(lam)} in "
                            f"{self.nvars} variables"):
                out[nu] = out.get(nu, 0) + 1
            self._memo[key] = out
        return self._memo[key]

    def search(self, lam, layout, layer):
        """Yield (vals, nu) for each LR filling of the cells of layout (a
        reading_layout) on s_lam: vals[k] is the entry of cell k and nu is
        lam + the filling's weight.  vals is one list, refilled in place,
        so read it before the next filling.  Every partial filling visited
        is counted in visited; past the budget, layer() names the search
        in the refusal (a function: most searches never format it)."""
        if len(lam) > self.nvars:  # s_lam is 0 in nvars variables
            return
        right, above, below = layout
        n = len(right)
        if not n:
            yield [], lam
            return
        # each letter lengthens lam + content by at most one part
        width = min(self.nvars, len(lam) + n)
        # a value is at most its right neighbour's (width if none) and
        # leaves room for the cells below it, and it exceeds the value of
        # the cell above it (0 if none)
        cap = [width - b for b in below]
        vals = [0] * n + [width, 0]
        part = list(lam) + [0] * (width - len(lam))
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
                self.visited = visited
                charge(layer(), visited, "partial fillings")
            vals[k] = v
            part[v - 1] += 1
            if k + 1 < n:
                k += 1
                v = vals[above[k]] + 1
            else:
                yield vals, tuple(part[:width - part.count(0)])
                part[v - 1] -= 1
                v += 1
        self.visited = visited

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
