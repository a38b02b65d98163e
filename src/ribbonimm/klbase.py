"""Kazhdan-Lusztig polynomials on S_n and the immanants built from them.

S_n is indexed once per n (`_weyl`): the permutations in (length, lex)
order, their lengths, and the right action of each s_i as index lists.

P_{x,w}(q) is computed by the classical length recursion with mu
coefficients tracked, on indices.  The table is one row per w: a dict
from x to an id in a pool of interned coefficient tuples (lowest degree
first), x ascending, as in du Cloux, "Computing Kazhdan-Lusztig
polynomials for arbitrary Coxeter groups" (2002).  The keys of the row
of w are the Bruhat interval [e, w]: for s the first right descent of w,
the row grows from the row of v = ws by the lifting property
[e, w] = [e, v] u [e, v]s (Bjorner-Brenti, Combinatorics of Coxeter
Groups, Prop. 2.2.7).  Each y <= v with ys > y pairs with x = ys, which
goes through the recursion, and y copies P_{y,w} = P_{x,w}
(Bjorner-Brenti, Sec. 5.1).  P_{x,w} = P_{x^-1,w^-1} = P_{w0 x w0,
w0 w w0} (Kazhdan-Lusztig, Invent. Math. 53, 1979), so only the first w
of each orbit of these twins in (length, lex) order goes through the
recursion, and a later twin's row is that row relabelled: 230 of the 720
rows at n = 6, with 33,525 of the 98,407 entries.  The sums of the
recursion are memoized on pool ids, so the q-arithmetic runs once per
distinct combination: 73 polynomial additions at n = 6.  The table is
charged to the budget by the entries it stores.  A second, independent
computation solves the bar-invariance condition in the Hecke algebra
directly (triangular solve in the standard basis), taking Bruhat order
from the support of each bar image, and is used as an oracle in the
tests.

The KL immanants read their weights straight off the rows, the column
of w being the row of w0 w (Rhoades-Skandera, "Kazhdan-Lusztig
immanants and products of matrix minors", 2006).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import budget, charge, charge_permutations, table
from .perms import apply_s, first_right_descent, perm_inverse, perm_length
from .ribbonmat import section_matrix
from .symfunc import SchurExpansion, diagonal_products, weighted_sums

# ------------------------------------------------------------ q-polynomials

def _ptrim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _padd(p, r):
    if len(p) < len(r):
        p, r = r, p
    out = list(p)
    for i, c in enumerate(r):
        out[i] += c
    return _ptrim(out)


def _pscale(p, c):
    return _ptrim(x * c for x in p)


def _pshift(p, k):
    """Multiply the trimmed p by q^k."""
    return (0,) * k + p if p else ()


def poly_str(p) -> str:
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            body = "q" if k == 1 else f"q^{k}"
            parts.append(body if c == 1 else f"{c}*{body}")
    return " + ".join(parts)


# ------------------------------------------------------------- indexed S_n

@dataclass(frozen=True)
class _Weyl:
    """S_n indexed once; every other field is indexed like `perms`."""

    perms: tuple    # (length, lex) order
    index: dict     # permutation -> position in perms
    length: tuple
    right: tuple    # right[i][k]: position of perms[k] s_i (right[0] unused)
    descent: tuple  # first right descent, 0 at the identity


# kept: kl_polynomials, the KLTable views and _kl_sums read it again per
# table and per instance
@table
def _weyl(n: int) -> _Weyl:
    """S_n indexed; charged its n! * n permutations and right actions."""
    charge_permutations(f"_weyl(n={n})", n, n,
                        "permutations and right actions")
    ranked = sorted((perm_length(u), u)
                    for u in itertools.permutations(range(1, n + 1)))
    perms = tuple(u for _, u in ranked)
    # one int object per position, shared by every row of the KL table
    # through `right`
    index = {u: k for k, u in enumerate(perms)}
    right = ((),) + tuple(tuple(index[apply_s(u, i)] for u in perms)
                          for i in range(1, n))
    descent = tuple(first_right_descent(u) or 0 for u in perms)
    return _Weyl(perms, index, tuple(lw for lw, _ in ranked), right,
                 descent)


def _twins(n: int) -> tuple:
    """u -> u^-1, w0 u w0 and w0 u^-1 w0 on the positions of `_weyl(n)`:
    length-preserving involutions that keep P.  The flip follows the
    first right descents, as w0 (u s_i) w0 = (w0 u w0) s_{n-i}."""
    W = _weyl(n)
    inv = [W.index[perm_inverse(u)] for u in W.perms]
    flip = [0] * len(inv)
    for k in range(1, len(inv)):
        d = W.descent[k]
        flip[k] = W.right[n - d][flip[W.right[d][k]]]
    return inv, flip, [inv[k] for k in flip]


# ---------------------------------------------------------------- KL tables

class _Polys(Mapping):
    """Read-only (x, w) -> P_{x,w} over the rows of a KLTable, iterated
    in (w, x) ascending (length, lex) order."""

    def __init__(self, table):
        self._rows, self._pool = table.rows, table.pool
        W = _weyl(table.n)
        self._perms, self._index = W.perms, W.index
        self._len = sum(map(len, self._rows))

    def __getitem__(self, key):
        x, w = key
        return self._pool[self._rows[self._index[w]][self._index[x]]]

    def __iter__(self):
        perms = self._perms
        for w, row in enumerate(self._rows):
            for x in row:
                yield perms[x], perms[w]

    def __len__(self):
        return self._len


@dataclass(frozen=True)
class KLTable:
    """Full table of P_{x,w} for x <= w in S_n, as one row per w.

    rows[w] maps x -> an id in pool, x ascending over [e, w]; positions
    are those of `_weyl(n).perms`.  pool[id] is a coefficient tuple.
    """

    n: int
    rows: tuple
    pool: tuple

    @functools.cached_property
    def polys(self) -> Mapping:
        """(x, w) -> coefficient tuple, read from the rows."""
        return _Polys(self)

    def dump(self):
        """Yield the lines `x w : polynomial`, in (length, lex) order."""
        names = ["".join(map(str, u)) for u in _weyl(self.n).perms]
        text = [poly_str(p) for p in self.pool]
        for w, row in enumerate(self.rows):
            for x, pid in row.items():
                yield f"{names[x]} {names[w]} : {text[pid]}"


class _Pool:
    """Interned coefficient tuples; id 0 is the zero polynomial."""

    def __init__(self):
        self.tuples, self.ids = [()], {(): 0}

    def id(self, p) -> int:
        pid = self.ids.get(p)
        if pid is None:
            pid = self.ids[p] = len(self.tuples)
            self.tuples.append(p)
        return pid


# kept: _kl_sums reads it again for every instance of a conj1.2 sweep
@table
def kl_polynomials(n: int) -> KLTable:
    """All P_{x,w} by the classical recursion, one entry per Bruhat pair,
    charged the pairs it has stored as each row is stored."""
    W = _weyl(n)
    layer, limit, stored = f"kl_polynomials(n={n})", budget(), 1
    L = W.length
    pool = _Pool()
    pooled, one = pool.tuples, pool.id((1,))
    base, corrected = {}, {}  # memoized sums, keyed on pool ids
    sound = set()  # ids checked to start with 1 and have no negative term
    rows = [{0: one}]
    # mus[w]: the (z, mu(z, w)) with mu(z, w) != 0, z ascending.  The
    # degree bound makes mu(z, w) the leading coefficient of P_{z,w} when
    # l(w) - l(z) = 2 deg + 1, and 0 otherwise.
    mus = [[]]
    inv, flip, both = _twins(n)
    for w in range(1, len(W.perms)):
        # a twin t earlier than w has its row: P_{x,w} = P_{tw(x),t}
        t = min(inv[w], flip[w], both[w])
        if t < w:
            tw = inv if t == inv[w] else flip if t == flip[w] else both
            Pt = rows[t]
            row = {x: Pt[tw[x]] for x in sorted(map(tw.__getitem__, Pt))}
            mu_w = sorted([(tw[z], m) for z, m in mus[t]])
        else:
            s = W.right[W.descent[w]]
            v = s[w]
            lw = L[w]
            Pv = rows[v]
            # [e, w] = [e, v] u [e, v]s (lifting property): each y <= v with
            # ys > y (a later position: positions run by length) pairs with
            # x = ys, and P_{x,w} = P_{y,v} + q P_{x,v} ...
            acc, pairs = {}, []
            for y, yid in Pv.items():
                x = s[y]
                if x > y:
                    key = (yid, Pv.get(x, 0))
                    pid = base.get(key)
                    if pid is None:
                        pid = base[key] = pool.id(
                            _padd(pooled[yid], _pshift(pooled[key[1]], 1)))
                    acc[x] = pid
                    pairs += (y, x)
            # ... less mu(z, v) q^{(l(w)-l(z))/2} P_{x,z} over the z with
            # zs < z and mu(z, v) != 0
            for z, m in mus[v]:
                if s[z] > z:
                    continue
                shift = (lw - L[z]) // 2
                for x, qid in rows[z].items():  # exactly the x <= z
                    a = acc.get(x)
                    if a is not None:
                        key = (a, qid, shift, m)
                        pid = corrected.get(key)
                        if pid is None:
                            term = _pscale(_pshift(pooled[qid], shift), -m)
                            pid = corrected[key] = pool.id(
                                _padd(pooled[a], term))
                        acc[x] = pid
            # x ascending, each y copying P_{y,w} = P_{ys,w}.  Where
            # P_{x,w} = 1 only a coatom x has mu(x, w) != 0, so only the
            # coatoms and the entries that are not 1 are read for mu.
            row, mu_w, top = {}, [], lw - 1
            for x in sorted(pairs):
                pid = acc.get(x)
                if pid is None:
                    pid = acc[s[x]]
                row[x] = pid
                if pid == one:
                    if L[x] >= top and x != w:
                        assert L[x] == top, (x, w)
                        mu_w.append((x, 1))
                    continue
                p = pooled[pid]
                if pid not in sound:
                    assert p and p[0] == 1 and min(p) >= 0, (x, w, p)
                    sound.add(pid)
                gap = lw - L[x] - 2 * len(p) + 1  # l(w) - l(x) - 1 - 2 deg
                assert x != w and gap >= 0, (x, w, p)
                if gap == 0:
                    mu_w.append((x, p[-1]))
        rows.append(row)
        mus.append(mu_w)
        stored += len(row)
        if stored > limit:
            charge(layer, stored, "Bruhat pairs")
    return KLTable(n, tuple(rows), tuple(pooled))


# ------------------------------------------- bar-involution oracle (Hecke)

# Laurent polynomials in v as dicts exponent -> int.

def _ladd(a, b):
    out = dict(a)
    for k, c in b.items():
        u = out.get(k, 0) + c
        if u:
            out[k] = u
        else:
            out.pop(k, None)
    return out


def _lmul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            u = out.get(k, 0) + c1 * c2
            if u:
                out[k] = u
            else:
                out.pop(k, None)
    return out


def _lbar(a):
    return {-k: c for k, c in a.items()}


def _hecke_mul_s(elem, i):
    """Right multiplication of sum(c_x H_x) by H_{s_i}, in the
    normalization H_x H_s = H_{xs} for xs > x and H_{xs} + (v^-1 - v) H_x
    otherwise."""
    out = {}
    for x, c in elem.items():
        xs = apply_s(x, i)
        out[xs] = _ladd(out.get(xs, {}), c)
        if perm_length(xs) < perm_length(x):
            out[x] = _ladd(out.get(x, {}), _lmul(c, {-1: 1, 1: -1}))
    return {x: c for x, c in out.items() if c}


def kl_polynomials_hecke(n: int) -> KLTable:
    """Independent KL computation: solve bar(b_w) = b_w triangularly.

    b_w = H_w + sum h_x H_x with h_x in v*Z[v]; then
    h_x(v) = v^{l(w)-l(x)} P_{x,w}(v^{-2}).  Charged its n!^2 (x, w) visits.
    """
    W = _weyl(n)
    charge(f"kl_polynomials_hecke(n={n})", len(W.perms) ** 2, "(x, w) visits")
    # bar(H_w) in the standard basis, for every w in (length, lex) order:
    # bar(H_w) = bar(H_{ws}) bar(H_s) at the first right descent s of w,
    # with bar(H_s) = H_s + (v - v^-1) H_e
    bars = {W.perms[0]: {W.perms[0]: {0: 1}}}
    for w in W.perms[1:]:
        i = first_right_descent(w)
        prev = bars[apply_s(w, i)]
        out = _hecke_mul_s(prev, i)  # ... H_s
        for x, c in prev.items():    # ... plus (v - v^-1) H_x
            out[x] = _ladd(out.get(x, {}), _lmul(c, {1: 1, -1: -1}))
        bars[w] = {x: c for x, c in out.items() if c}
    pool = _Pool()
    rows = []
    for w in W.perms:
        coeffs = {w: {0: 1}}
        # R_{x,w} != 0 exactly for x <= w, so the support of bar(H_w) is
        # [e, w]: the x are taken from it, longest first
        for x in sorted(bars[w], key=lambda p: (-perm_length(p), p)):
            if x == w:
                continue
            # defect at x of the current bar image
            gamma = {}
            for y, c in coeffs.items():
                gamma = _ladd(gamma, _lmul(_lbar(c), bars[y].get(x, {})))
            alpha = _ladd(gamma, {k: -c for k, c in coeffs.get(x, {}).items()})
            # alpha is bar-antiinvariant; cancel it with h - bar(h), h in vZ[v]
            assert _ladd(alpha, _lbar(alpha)) == {}, (x, w, alpha)
            h = {k: c for k, c in alpha.items() if k > 0}
            assert all(k != 0 for k in alpha), (x, w, alpha)
            coeffs[x] = _ladd(coeffs.get(x, {}), h)
        # convert h_x to P_{x,w}
        lw = perm_length(w)
        row = {}
        for x, c in coeffs.items():
            lx = perm_length(x)
            p = [0] * ((lw - lx) // 2 + 1)
            for k, cf in c.items():
                diff = (lw - lx) - k
                assert diff >= 0 and diff % 2 == 0, (x, w, c)
                p[diff // 2] = cf
            row[W.index[x]] = pool.id(_ptrim(p))
        rows.append(dict(sorted(row.items())))
    return KLTable(n, tuple(rows), tuple(pool.tuples))


# ----------------------------------------------------------------- immanants

def _kl_sums(A, ws) -> dict:
    """Map w -> the KL immanant of A at w, in A's ring, for the w in ws
    whose column has a nonzero diagonal product.  The weight of v at w is
    (-1)^{l(v)-l(w)} P_{w0 v, w0 w}(1), nonzero exactly for v >= w, so
    the column of w is the row of w0 w, its entry x weighing v = w0 x;
    w0 reverses the (length, lex) order, sending position k to last - k.
    """
    kl, W = kl_polynomials(A.n), _weyl(A.n)
    last, L, at_one = len(W.perms) - 1, W.length, [sum(p) for p in kl.pool]
    tops = [last - W.index[w] for w in ws]
    support = set().union(*(kl.rows[top] for top in tops))
    prods = diagonal_products(A, [W.perms[last - x] for x in support])
    by_x = {last - W.index[v]: p for v, p in prods.items()}

    def terms():
        for w, top in zip(ws, tops):
            row = kl.rows[top]
            for x in row.keys() & by_x.keys():
                c = at_one[row[x]]
                yield w, -c if (L[top] - L[x]) % 2 else c, by_x[x]

    return weighted_sums(terms(), A.nvars, A.ring)


def imm_kl(w: tuple, A):
    """Kazhdan-Lusztig immanant at w: a signed, KL-weighted sum of
    diagonal products, in A's ring (a SchurExpansion, or a SymPoly for a
    matrix reporting in the monomial basis); at w = e it is the
    determinant.

    At a 321-avoiding w it is the Temperley-Lieb immanant of the
    matching of the inverse: imm_kl(w, A) ==
    imm_tl(perm_to_matching(perm_inverse(w)), A).
    """
    if A.n != len(w):
        raise ValueError("dimension mismatch")
    return _kl_sums(A, [w]).get(w) or A.ring(A.nvars)


def conjecture12_harness(dec, N: int):
    """Schur-expand every KL immanant of the decomposition matrix.

    Returns a report; negative coefficients are surfaced as certificates,
    not errors (the underlying positivity statement is unproven).
    """
    perms = list(itertools.permutations(range(1, dec.ell + 1)))
    by_perm = _kl_sums(section_matrix(dec, N), perms)
    per_perm, certificates = [], []
    for w in perms:
        exp = by_perm.get(w, SchurExpansion(N))
        entry = {
            "perm": list(w),
            "expansion": str(exp),
            "schur_positive": exp.schur_positive,
        }
        per_perm.append(entry)
        if not exp.schur_positive:
            certificates.append({
                "shape": dec.shape.to_json(),
                "ribbon": dec.ribbon.to_json(),
                "perm": list(w),
                "negative_part": {
                    ",".join(map(str, lam)): c
                    for lam, c in exp.negative_part().items()},
            })
    return {
        "a": list(dec.abar),
        "b": list(dec.bbar),
        "nvars": N,
        "immanants": per_perm,
        "certificates": certificates,
        "all_positive": not certificates,
    }
