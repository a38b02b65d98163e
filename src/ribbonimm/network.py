"""Lattice path network attached to an infinite ribbon, truncated to N
height levels, with path enumeration, colored covers, and the uncrossing
map to a noncrossing matching.

Vertices are (content, height).  Crossing edges run from content i+1 to
content i and are diagonal exactly when the box of content i-1 sits below
the box of content i, horizontal when it sits to the left; vertical edges
at content i run upward in the diagonal case and downward in the
horizontal case.  Weighted (crossing) edges carry the variable of their
source height, so a path records one entry per content it crosses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, StrandTraceError, budget
from .shapes import BELOW, LEFT, InfiniteRibbon, RibbonDecomposition
from .symfunc import SymPoly, partition_key
from .tlalgebra import NoncrossingMatching


@dataclass(frozen=True)
class RibbonNetwork:
    """Truncation of the infinite network to heights 1..N+1.

    The infinite-height endpoints live at N + 1: a path whose weighted
    edges all have source height at most N never climbs past N + 1, so
    this truncation keeps exactly the paths whose entries fit N variables.
    """

    ribbon: InfiniteRibbon
    c_lo: int
    c_hi: int
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

    def crossing_edges_into(self, content):
        """Directed edges from content+1 to content, as (src, dst) pairs
        with the weight variable index of the source height."""
        out = []
        if self.ribbon.step(content) == BELOW:
            for j in range(1, self.N + 1):
                out.append(((content + 1, j), (content, j + 1), j))
        else:
            for j in range(1, self.N + 1):
                out.append(((content + 1, j), (content, j), j))
        return out

    def edges_json(self):
        edges = []
        for c in range(self.c_lo, self.c_hi + 1):
            if self.vertical_up(c):
                for j in range(1, self.top):
                    edges.append({"src": [c, j], "dst": [c, j + 1], "weight": 1})
            else:
                for j in range(1, self.top):
                    edges.append({"src": [c, j + 1], "dst": [c, j], "weight": 1})
            if c > self.c_lo:
                for src, dst, var in self.crossing_edges_into(c - 1):
                    edges.append({"src": list(src), "dst": list(dst),
                                  "weight": f"x{var}"})
        return {"c_lo": self.c_lo, "c_hi": self.c_hi, "N": self.N,
                "P": [list(v) for v in self.starts],
                "Q": [list(v) for v in self.ends], "edges": edges}


def build_network(dec: RibbonDecomposition, N: int) -> RibbonNetwork:
    R = dec.ribbon
    a, b = dec.abar, dec.bbar
    c_lo, c_hi = min(a) - 1, max(b) + 1
    top = N + 1
    starts, ends = [], []
    for k in range(dec.ell):
        starts.append((b[k], 1 if R.step(b[k]) == BELOW else top))
        ends.append((a[k], 1 if R.step(a[k]) == LEFT else top))
    return RibbonNetwork(R, c_lo, c_hi, N, tuple(starts), tuple(ends))


def _paths_between(net: RibbonNetwork, start, end):
    """All directed paths start -> end as (vertex tuple, weight exponent).

    A path crosses each content in (end_content, start_content] exactly
    once; within a content it may ride the one-way vertical chain.
    """
    b, a = start[1], end[1]
    c_start, c_end = start[0], end[0]
    assert c_start >= c_end
    R = net.ribbon
    N = net.N

    def vertical_run(content, j_from, j_to):
        # vertices visited moving from j_from to j_to along verticals,
        # or None if the chain direction forbids it
        if j_from == j_to:
            return [(content, j_from)]
        up = net.vertical_up(content)
        if (j_to > j_from) != up:
            return None
        step = 1 if up else -1
        return [(content, j) for j in range(j_from, j_to + step, step)]

    results = []

    def walk(content, height, vertices, wt):
        if content == c_end:
            run = vertical_run(content, height, a)
            if run is not None:
                results.append((tuple(vertices + run), tuple(wt)))
            return
        # sources sit at heights 1..N: edges out of the top level would
        # carry a variable the ring does not have
        diag = R.step(content - 1) == BELOW
        sources = (range(height, N + 1) if net.vertical_up(content)
                   else range(1, min(height, N) + 1))
        for j in sources:
            run = vertical_run(content, height, j)
            if run is None:
                continue
            wt2 = list(wt)
            wt2[j - 1] += 1
            walk(content - 1, j + 1 if diag else j, vertices + run, wt2)

    walk(c_start, b, [], [0] * N)
    return results


def _all_paths(net: RibbonNetwork, i: int, j: int):
    """Paths from P_i to Q_j (1-based)."""
    start, end = net.starts[i - 1], net.ends[j - 1]
    if start[0] < end[0]:
        return ()
    return tuple(_paths_between(net, start, end))


def path_weight_sum(net: RibbonNetwork, i: int, j: int) -> SymPoly:
    """Sum of path weights P_i -> Q_j; equals the matrix entry (i, j)."""
    coeffs = {}
    for _, wt in _all_paths(net, i, j):
        key = partition_key(wt)
        if key is not None:
            coeffs[key] = coeffs.get(key, 0) + 1
    return SymPoly(net.N, coeffs)


def _disjoint_families(net: RibbonNetwork, indices):
    """Vertex-disjoint path families (pi_k: P_k -> Q_k, k in indices)."""
    limit = budget()
    count = 0
    options = {k: _all_paths(net, k, k) for k in indices}

    def rec(pos, used, chosen):
        nonlocal count
        if pos == len(indices):
            count += 1
            if count > limit:
                raise BudgetExceeded(f"more than {limit} path families")
            yield tuple(chosen)
            return
        k = indices[pos]
        for verts, wt in options[k]:
            vs = set(verts)
            if vs & used:
                continue
            chosen.append((k, verts, wt))
            yield from rec(pos + 1, used | vs, chosen)
            chosen.pop()

    yield from rec(0, set(), [])


def enumerate_covers(net: RibbonNetwork):
    """Colored covers: (red vertex-disjoint family, blue one), as a list
    of (index, vertices, weight) sorted by index, plus the total weight."""
    odd = tuple(range(1, net.ell + 1, 2))
    even = tuple(range(2, net.ell + 1, 2))
    blues = list(_disjoint_families(net, even)) if even else [()]
    for red in _disjoint_families(net, odd):
        for blue in blues:
            fam = sorted(red + blue)
            wt = [0] * net.N
            for _, _, w in fam:
                for idx, e in enumerate(w):
                    wt[idx] += e
            yield fam, tuple(wt)


def count_covers(net: RibbonNetwork) -> int:
    odd = tuple(range(1, net.ell + 1, 2))
    even = tuple(range(2, net.ell + 1, 2))
    n_red = sum(1 for _ in _disjoint_families(net, odd)) if odd else 1
    n_blue = sum(1 for _ in _disjoint_families(net, even)) if even else 1
    return n_red * n_blue


def uncross_type(family) -> NoncrossingMatching:
    """Temperley-Lieb type of a colored cover.

    family: list of (index k, vertex tuple of the path P_k -> Q_k, weight).
    Doubly covered subpaths are contracted; where two strands meet, the
    two incoming ends join each other, as do the two outgoing ends.
    """
    ell = len(family)
    edge_count = {}
    for _, verts, _ in family:
        for e in zip(verts, verts[1:]):
            edge_count[e] = edge_count.get(e, 0) + 1
    if any(c > 2 for c in edge_count.values()):
        raise StrandTraceError("an edge is covered more than twice")

    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(u, v):
        parent[find(u)] = find(v)

    for (u, v), c in edge_count.items():
        if c == 2:
            union(u, v)

    # slots per cluster: ("in"/"out", label); labels are edges or terminals
    ins, outs = {}, {}
    for k, verts, _ in family:
        ins.setdefault(find(verts[0]), []).append(("P", k))
        outs.setdefault(find(verts[-1]), []).append(("Q", k))
        for e in zip(verts, verts[1:]):
            if edge_count[e] == 1:
                u, v = e
                cu, cv = find(u), find(v)
                if cu != cv:
                    outs.setdefault(cu, []).append(("E", e))
                    ins.setdefault(cv, []).append(("E", e))

    # deduplicate edge slots recorded by both covering paths (count 1 only,
    # so each singly covered edge appears once; terminals may coincide)
    link = {}
    for cluster in set(ins) | set(outs):
        i_slots = ins.get(cluster, [])
        o_slots = outs.get(cluster, [])
        if len(i_slots) != len(o_slots) or not 1 <= len(i_slots) <= 2:
            raise StrandTraceError(
                f"cluster has {len(i_slots)} ins and {len(o_slots)} outs")
        if len(i_slots) == 1:
            link[("in",) + i_slots[0]] = ("out",) + o_slots[0]
            link[("out",) + o_slots[0]] = ("in",) + i_slots[0]
        else:
            link[("in",) + i_slots[0]] = ("in",) + i_slots[1]
            link[("in",) + i_slots[1]] = ("in",) + i_slots[0]
            link[("out",) + o_slots[0]] = ("out",) + o_slots[1]
            link[("out",) + o_slots[1]] = ("out",) + o_slots[0]

    def is_terminal(slot):
        return slot[1] in ("P", "Q")

    def terminal_point(slot):
        _, kind, k = slot
        return ("L", k) if kind == "P" else ("R", k)

    pairs = []
    seen = set()
    for k, verts, _ in family:
        for slot in (("in", "P", k), ("out", "Q", k)):
            if slot in seen:
                continue
            seen.add(slot)
            cur = link[slot]
            while not is_terminal(cur):
                # hop across the edge to the matching slot at the far end
                side, _, e = cur
                cur = link[("in" if side == "out" else "out", "E", e)]
            seen.add(cur)
            pairs.append((terminal_point(slot), terminal_point(cur)))
    return NoncrossingMatching(ell, pairs)


def covers_by_type(dec: RibbonDecomposition, N: int):
    """Map from Temperley-Lieb type to the summed cover weights."""
    net = build_network(dec, N)
    acc = {}
    for fam, wt in enumerate_covers(net):
        tau = uncross_type(fam)
        key = partition_key(wt)
        if key is not None:
            bucket = acc.setdefault(tau, {})
            bucket[key] = bucket.get(key, 0) + 1
    return {tau: SymPoly(N, coeffs) for tau, coeffs in acc.items()}


def imm_by_covers(dec: RibbonDecomposition, N: int, tau: NoncrossingMatching) -> SymPoly:
    return covers_by_type(dec, N).get(tau, SymPoly.zero(N))
