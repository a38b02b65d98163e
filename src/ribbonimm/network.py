"""Lattice path network attached to an infinite ribbon, truncated to N
height levels, with path enumeration, colored covers, and the uncrossing
map to a noncrossing matching.

A colored cover pairs a vertex-disjoint family of red paths P_k -> Q_k
(odd k) with one of blue paths (even k).  Its type is read by walking
strands: a strand follows its path to the first vertex it shares with a
path of the other colour, switches to that path and reverses direction,
and ends where it runs off a path at some P_j or Q_j.

Vertices are (content, height).  Crossing edges run from content i+1 to
content i and are diagonal exactly when the box of content i-1 sits below
the box of content i, horizontal when it sits to the left; vertical edges
at content i run upward in the diagonal case and downward in the
horizontal case.  Weighted (crossing) edges carry the variable of their
source height, so a path records one entry per content it crosses.

covers_by_type is weight first: the red and the blue families are grouped
by weight vector, and only the groups whose summed weight is a partition
are paired (symfunc.pair_by_weight), so only the covers the symmetric sum
records are built and uncrossed.  Nothing is listed before it is counted:
the red and the blue families are the SSYT of the odd and the even section
shapes, and the paths P_i -> Q_j those of the ribbon section [a_j, b_i)
(Gessel-Viennot), so symfunc.charge_budget refuses an over-budget
instance from these counts alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import StrandTraceError
from .shapes import (BELOW, LEFT, InfiniteRibbon, RibbonDecomposition,
                     odd_even_shapes, ribbon_section_shape)
from .symfunc import SymPoly, charge_budget, pair_by_weight, tally
from .tlalgebra import NoncrossingMatching, matching


@dataclass(frozen=True)
class RibbonNetwork:
    """Truncation of the infinite network to heights 1..N+1.

    The infinite-height endpoints live at N + 1: a path whose weighted
    edges all have source height at most N never climbs past N + 1, so
    this truncation keeps exactly the paths whose entries fit N variables.
    """

    ribbon: InfiniteRibbon
    N: int
    starts: tuple  # P_k vertices, k = 1..ell
    ends: tuple    # Q_k vertices

    @property
    def ell(self):
        return len(self.starts)

    @property
    def top(self):
        return self.N + 1

    def vertical_up(self, content) -> bool:
        return self.ribbon.step(content) == BELOW


def build_network(dec: RibbonDecomposition, N: int) -> RibbonNetwork:
    R = dec.ribbon
    a, b = dec.abar, dec.bbar
    top = N + 1
    starts, ends = [], []
    for k in range(dec.ell):
        starts.append((b[k], 1 if R.step(b[k]) == BELOW else top))
        ends.append((a[k], 1 if R.step(a[k]) == LEFT else top))
    return RibbonNetwork(R, N, tuple(starts), tuple(ends))


def _paths_between(net: RibbonNetwork, start, end):
    """All directed paths start -> end as (vertex tuple, weight exponent).

    A path crosses each content in (end_content, start_content] exactly
    once; within a content it may ride the one-way vertical chain.  Only
    heights from which the end is still reachable are entered: they are
    found once, from the end back to the start, and form an interval at
    each content, as its vertical chain runs one way.
    """
    (c_start, b), (c_end, a) = start, end
    assert c_start >= c_end
    R, N = net.ribbon, net.N
    # [lo, hi]: the heights at content c from which the end is reachable;
    # leave[c]: the heights [jlo, jhi] at which such a path crosses to
    # c - 1, arriving d higher (1 on a diagonal edge).  They sit in 1..N:
    # edges out of the top level would carry a variable the ring lacks
    lo, hi = (1, a) if net.vertical_up(c_end) else (a, N + 1)
    leave = {}
    for c in range(c_end + 1, c_start + 1):
        d = int(R.step(c - 1) == BELOW)
        jlo, jhi, _ = leave[c] = max(1, lo - d), min(N, hi - d), d
        if jlo > jhi:
            return []
        lo, hi = (1, jhi) if net.vertical_up(c) else (jlo, N + 1)
    if not lo <= b <= hi:
        return []

    def run(content, j_from, j_to):
        # the vertices from j_from to j_to along the vertical chain
        step = 1 if j_to >= j_from else -1
        return [(content, j) for j in range(j_from, j_to + step, step)]

    # depth first over an explicit stack, the lowest crossing height first
    results, stack = [], [(c_start, b, [], [0] * N)]
    while stack:
        content, height, vertices, wt = stack.pop()
        if content == c_end:
            results.append((tuple(vertices + run(content, height, a)),
                            tuple(wt)))
            continue
        jlo, jhi, d = leave[content]
        for j in reversed(range(max(height, jlo), jhi + 1)
                          if net.vertical_up(content)
                          else range(jlo, min(height, jhi) + 1)):
            wt2 = list(wt)
            wt2[j - 1] += 1
            stack.append((content - 1, j + d,
                          vertices + run(content, height, j), wt2))
    return results


def _all_paths(net: RibbonNetwork, i: int, j: int):
    """Paths from P_i to Q_j (1-based), charged to the budget before any
    is listed: there are as many as SSYT of the ribbon section [a_j, b_i)."""
    start, end = net.starts[i - 1], net.ends[j - 1]
    if start[0] < end[0]:
        return ()
    if start[0] > end[0]:
        charge_budget("paths", net.N, {f"P_{i} -> Q_{j}": ribbon_section_shape(
            net.ribbon, end[0], start[0])})
    return tuple(_paths_between(net, start, end))


def _disjoint_families(net: RibbonNetwork, indices):
    """Vertex-disjoint path families (pi_k: P_k -> Q_k, k in indices)."""
    options = [_all_paths(net, k, k) for k in indices]
    if not indices:
        yield ()
        return
    # depth first: stack[pos] = (untried paths of indices[pos], used vertices)
    chosen, stack = [], [(iter(options[0]), set())]
    while stack:
        paths, used = stack[-1]
        for verts, wt in paths:
            if used.isdisjoint(verts):
                break
        else:
            stack.pop()
            continue
        chosen[len(stack) - 1:] = [(indices[len(stack) - 1], verts, wt)]
        if len(stack) == len(indices):
            yield tuple(chosen)
        else:
            stack.append((iter(options[len(stack)]), used.union(verts)))


def _family_weight(fam, N: int) -> tuple:
    """Summed weight exponents of the paths of a family."""
    return tuple(map(sum, zip([0] * N, *(w for _, _, w in fam))))


def _colour_families(net: RibbonNetwork):
    """The red (odd k) and the blue (even k) vertex-disjoint families,
    counted as the SSYT of the odd and the even section shapes and charged
    to the budget before any family is listed."""
    a = tuple(end[0] for end in net.ends)
    b = tuple(start[0] for start in net.starts)
    red, blue = odd_even_shapes(net.ribbon, a, b)
    if not charge_budget("covers", net.N, {"red": red, "blue": blue}):
        return iter(()), iter(())
    return (_disjoint_families(net, tuple(range(1, net.ell + 1, 2))),
            _disjoint_families(net, tuple(range(2, net.ell + 1, 2))))


def enumerate_covers(net: RibbonNetwork):
    """Colored covers: (red vertex-disjoint family, blue one), as a list
    of (index, vertices, weight) sorted by index, plus the total weight."""
    reds, blues = _colour_families(net)
    blues = list(blues)
    for red in reds:
        for blue in blues:
            fam = sorted(red + blue)
            yield fam, _family_weight(fam, net.N)


def count_covers(net: RibbonNetwork) -> int:
    reds, blues = _colour_families(net)
    return sum(1 for _ in reds) * sum(1 for _ in blues)


def uncross_type(family) -> NoncrossingMatching:
    """Temperley-Lieb type of a colored cover, by walking its strands.

    family: list of (index k, vertex tuple of the path P_k -> Q_k, weight).
    A strand enters at P_k (or at Q_k) and moves along path k.  At the
    first vertex it shares with the other colour's path it switches to
    that path and reverses direction, so two strands that meet bounce off
    each other instead of crossing.  It ends when it runs forward off the
    end of a path j (at Q_j) or backward off its start (at P_j).
    Returns the interned matching.
    """
    paths = {k: verts for k, verts, _ in family}
    on = {}  # vertex -> the (path, position) pairs through it
    for k, verts in paths.items():
        for i, v in enumerate(verts):
            on.setdefault(v, []).append((k, i))
    crowded = [v for v, here in on.items() if len(here) > 2]
    if crowded:
        # an edge covered three times puts both its ends on three paths
        edges = Counter(e for verts in paths.values()
                        for e in zip(verts, verts[1:]))
        if max(edges.values()) > 2:
            raise StrandTraceError("an edge is covered more than twice")
        raise StrandTraceError(f"vertex {crowded[0]} lies on "
                               f"{len(on[crowded[0]])} paths")
    limit = sum(map(len, paths.values()))

    def walk(k, i, step):
        for _ in range(limit):
            here = on[paths[k][i]]
            if len(here) == 2:
                k, i = here[1] if here[0] == (k, i) else here[0]
                step = -step
            i += step
            if i < 0:
                return ("L", k)
            if i == len(paths[k]):
                return ("R", k)
        raise StrandTraceError(f"a strand walk is longer than the {limit} "
                               "path vertices")

    pairs, done = [], set()
    for k, verts in paths.items():
        for end, i, step in ((("L", k), 0, 1), (("R", k), len(verts) - 1, -1)):
            if end not in done:
                other = walk(k, i, step)
                done.update((end, other))
                pairs.append((end, other))
    return matching(len(family), pairs)


def covers_by_type(dec: RibbonDecomposition, N: int):
    """Map from Temperley-Lieb type to the summed cover weights.

    Weight first: the red and the blue families are grouped by weight
    vector and only the groups whose summed weight is a partition are
    paired, so only the covers the symmetric sum records are built and
    uncrossed.  The red and blue families, and each section's paths, are
    counted and charged to the enumeration budget before any is built.
    A partition weight has no more parts than the shape has cells, so no
    such cover has a higher source: the network is built min(N, cells)
    levels high.
    """
    n = min(N, dec.shape.size)
    reds, blues = _colour_families(build_network(dec, n))
    pairs = pair_by_weight(reds, blues, lambda fam: _family_weight(fam, n))
    return tally(((uncross_type(sorted(red + blue)), key, 1)
                  for red, blue, key in pairs), N)


def imm_by_covers(dec: RibbonDecomposition, N: int, tau: NoncrossingMatching) -> SymPoly:
    return covers_by_type(dec, N).get(tau, SymPoly.zero(N))
