"""Reference code the tests compare the library against; nothing under
src calls it.

The brute-force enumerators list every shuffle filling and every colored
cover, whatever its weight, through the library's budget-charged halves
(shuffle._halves, network._colour_families), so an over-budget instance
is refused before anything is listed.  The crystal listing keeps the
Yamanouchi fillings among every partition-weight one, the sources that
the library's search must reach (shuffle._sources, the LR search of
symfunc.LRProducts on the diagram's reading layout).  The cover-to-filling
bijection, the noncrossing matchings listed by their first strand, the
general product of Temperley-Lieb diagrams, the evaluation of a symmetric
polynomial over its explicit monomials, a reduced word read off left
descents (the library peels right ones) and the permutation and shape
helpers check the library's own shortcuts.
"""

import itertools

from ribbonimm import network, shuffle
from ribbonimm.perms import perm_inverse, perm_length
from ribbonimm.symfunc import SchurExpansion, pair_by_weight, tally
from ribbonimm.tlalgebra import NoncrossingMatching, matching, trace_strands


# ------------------------------------------------------ fillings and covers

def enumerate_shuffle_tableaux(d: shuffle.ShuffleDiagram, N: int):
    """All fillings with entries in [1, N]: the product of the two SSYT
    streams."""
    cells, reds, blues = shuffle._halves(d, N)
    blues = list(blues)
    for red in reds:
        for blue in blues:
            yield shuffle.ShuffleTableau(d, zip(cells, red + blue))


def partition_weight_fillings(d: shuffle.ShuffleDiagram, N: int):
    """The fillings with a partition weight, each with that partition, in
    min(N, cells) variables: the two halves paired by weight
    (pair_by_weight), each pair built as a ShuffleTableau."""
    n = min(N, len(d.cells))
    cells, reds, blues = shuffle._halves(d, n)
    for red, blue, key in pair_by_weight(
            reds, blues, lambda half: shuffle._weight(half, n)):
        yield shuffle.ShuffleTableau(d, zip(cells, red + blue)), key


def crystal_by_listing(dec, N: int) -> dict:
    """shuffle.schur_expand_by_crystal by listing every partition-weight
    filling and keeping the Yamanouchi ones."""
    d = shuffle.ShuffleDiagram(dec)
    return tally(((shuffle.tl_type(T), key, 1)
                  for T, key in partition_weight_fillings(d, N)
                  if shuffle.is_yamanouchi(T)), N, SchurExpansion)


def enumerate_covers(net: network.RibbonNetwork):
    """Colored covers: (red vertex-disjoint family, blue one), as a list
    of (index, vertices, weight) sorted by index, plus the total weight."""
    reds, blues = network._colour_families(net)
    blues = list(blues)
    for red in reds:
        for blue in blues:
            fam = sorted(red + blue)
            yield fam, tuple(map(sum, zip([0] * net.N,
                                          *(w for _, _, w in fam))))


def count_covers(net: network.RibbonNetwork) -> int:
    reds, blues = network._colour_families(net)
    return sum(1 for _ in reds) * sum(1 for _ in blues)


def tableau_from_cover(d: shuffle.ShuffleDiagram, family):
    """Filling read off a colored cover: the crossing of a path into a
    content records its source height at that content's cell."""
    pos_of = {kc: pos for pos, kc in d.cells.items()}
    entries = {}
    for k, verts, _ in family:
        for (c1, h1), (c2, _) in zip(verts, verts[1:]):
            if c2 == c1 - 1:
                entries[pos_of[(k, c2)]] = h1
    return shuffle.ShuffleTableau(d, entries)  # checked semistandard


# ------------------------------------------------------------- TL diagrams

def all_matchings(n):
    """All noncrossing matchings on 2n points: the basis of TL_n.

    The points are listed around the circle, L_1..L_n then R_n..R_1.
    The first one is paired with each point that leaves an even number of
    points on both sides of the strand, and the two sides are matched on
    their own.
    """
    def arcs(points):
        if not points:
            yield []
            return
        for k in range(1, len(points), 2):
            for inside in arcs(points[1:k]):
                for outside in arcs(points[k + 1:]):
                    yield [(points[0], points[k])] + inside + outside

    circle = ([("L", k) for k in range(1, n + 1)]
              + [("R", k) for k in range(n, 0, -1)])
    return [matching(n, pairs) for pairs in arcs(circle)]


def generator(n, i) -> NoncrossingMatching:
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    pairs = [(("L", i), ("L", i + 1)), (("R", i), ("R", i + 1))]
    pairs += [(("L", k), ("R", k)) for k in range(1, n + 1)
              if k not in (i, i + 1)]
    return matching(n, pairs)


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

    boundary = {("A", "L", k): ("L", k) for k in range(1, n + 1)}
    boundary.update({("B", "R", k): ("R", k) for k in range(1, n + 1)})
    pairs, loops = trace_strands(adj, boundary)
    return NoncrossingMatching(n, pairs), loops


# ------------------------------------------------------------- polynomials

def explicit_monomials(p) -> dict:
    """The SymPoly p as {exponent vector: coefficient}, over every vector
    of each monomial orbit."""
    out = {}
    for key, c in p.coeffs.items():
        vec = key + (0,) * (p.nvars - len(key))
        for alpha in set(itertools.permutations(vec)):
            out[alpha] = out.get(alpha, 0) + c
    return out


def evaluate(p, point) -> int:
    """Exact value of the SymPoly p at an integer point of length
    p.nvars."""
    assert len(point) == p.nvars
    total = 0
    for alpha, c in explicit_monomials(p).items():
        term = 1
        for x, e in zip(point, alpha):
            term *= x ** e
        total += c * term
    return total


# ------------------------------------------------- permutations and shapes

def identity_perm(n) -> tuple:
    return tuple(range(1, n + 1))


def perm_mul(u: tuple, v: tuple) -> tuple:
    """Composition (u*v)(i) = u(v(i))."""
    return tuple(u[v[i] - 1] for i in range(len(u)))


def perm_sign(u: tuple) -> int:
    return -1 if perm_length(u) % 2 else 1


def reduced_word(u: tuple) -> tuple:
    """Lexicographically smallest reduced word of u.

    Greedy: the smallest left descent i (value i + 1 stands before value
    i) comes first, then the word of s_i u, made by swapping the
    positions of the two values.  Only the descent at i - 1 can be new
    after the swap, so the search resumes there.
    """
    pos = list(perm_inverse(u))  # pos[v - 1]: the position of value v
    word, i = [], 1
    while i < len(pos):
        if pos[i] < pos[i - 1]:
            word.append(i)
            pos[i - 1], pos[i] = pos[i], pos[i - 1]
            i = max(i - 1, 1)
        else:
            i += 1
    return tuple(word)


def is_connected(shape) -> bool:
    """Whether the cells of the skew shape are edge-connected (and there
    is at least one)."""
    cells = shape.cell_set()
    if not cells:
        return False
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        i, j = c
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in cells and nb not in seen:
                stack.append(nb)
    return seen == cells
