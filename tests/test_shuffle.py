import hashlib
from collections import Counter

import pytest

from conftest import row_interval, row_sections_dec
from oracles import (count_covers, crystal_by_listing, diagram_mul,
                     enumerate_covers, enumerate_shuffle_tableaux, evaluate,
                     generator, partition_weight_fillings,
                     tableau_from_cover)
from test_acceptance import _nontrivial_nvars
from ribbonimm import corpus, network, ribbonmat, shuffle, tlalgebra
from ribbonimm.errors import BudgetExceeded, StrandTraceError, ValidityError
from ribbonimm.shapes import SkewShape, decompose
from ribbonimm.symfunc import (SchurExpansion, SymPoly, expand_schur,
                               partition_key, skew_schur, tally)

# fillings of the two half diagrams of the four-section fixture, row by row
RED_ROWS = [[3, 4, 6, 6], [1, 3, 6], [2, 4, 5], [2, 3, 6, 6], [7]]
BLUE_ROWS = [[2, 2, 5], [5, 6, 6], [4, 5, 5, 7], [5], [7]]


def _fill(shape, rows):
    out = {}
    rit = iter(rows)
    for i in range(1, shape.n_rows + 1):
        iv = row_interval(shape, i)
        if iv is None:
            continue
        vals = next(rit)
        assert len(vals) == iv[1] - iv[0] + 1
        out.update({(i, j): v
                    for j, v in zip(range(iv[0], iv[1] + 1), vals)})
    return out


@pytest.fixture(scope="module")
def pinned_tableau(hook_dec):
    d = shuffle.ShuffleDiagram(hook_dec)
    entries = {(2 * i - 1, 2 * j - 1): v
               for (i, j), v in _fill(d.red_shape, RED_ROWS).items()}
    entries.update({(2 * i, 2 * j): v
                    for (i, j), v in _fill(d.blue_shape, BLUE_ROWS).items()})
    return shuffle.ShuffleTableau(d, entries)


def test_diagram_shapes(hook_dec):
    d = shuffle.ShuffleDiagram(hook_dec)
    red_rows = [d.red_shape.outer[i] - d.red_shape.inner[i]
                for i in range(d.red_shape.n_rows)
                if d.red_shape.outer[i] > d.red_shape.inner[i]]
    assert red_rows == [4, 3, 3, 4, 1]
    # red cells on (odd, odd), blue on (even, even)
    for (r, c) in d.cells:
        assert r % 2 == c % 2
    assert len(d.P) == len(d.Q) == 4


def test_nodes_are_corners(hook_dec):
    d = shuffle.ShuffleDiagram(hook_dec)
    for pos in d.P + d.Q:
        assert sum(pos) % 2 == 1
        assert pos not in d.cells


def test_diagram_layout_is_pinned(hook_dec):
    # every cell with its (section, content), node and offset of the
    # diagrams of a corpus and the hook, so no layout edit moves one unseen
    decs = [*corpus.sweep_corpus(8, 5, 5, per_bucket=4), hook_dec]
    assert len(decs) == 121
    layout = [(sorted(d.cells.items()), d.P, d.Q, d.row_off, d.col_off)
              for d in map(shuffle.ShuffleDiagram, decs)]
    assert hashlib.sha256(repr(layout).encode()).hexdigest() == (
        "afd30adc9a03d8291944d9b01514cd193b9a2de3fa9b456e0f5e5bce39e23acb")


def test_pinned_type(pinned_tableau):
    tau = shuffle.tl_type(pinned_tableau)
    assert str(tau) == "(L1-R1)(L2-R4)(L3-L4)(R2-R3)"


def test_pinned_type_is_generator_product(pinned_tableau):
    expected, loops = diagram_mul(generator(4, 3), generator(4, 2))
    assert loops == 0
    assert shuffle.tl_type(pinned_tableau) == expected


def test_pinned_type_matches_cover_side(hook_dec, pinned_tableau):
    # reconstruct the cover mapping to the pinned filling and uncross it
    N = max(pinned_tableau.entries.values())
    net = network.build_network(hook_dec, N)
    d = pinned_tableau.diagram
    pos_of = {kc: pos for pos, kc in d.cells.items()}
    R = hook_dec.ribbon

    def vertical_run(content, j_from, j_to):
        if j_from == j_to:
            return [(content, j_from)]
        up = net.vertical_up(content)
        assert (j_to > j_from) == up, (content, j_from, j_to)
        step = 1 if up else -1
        return [(content, j) for j in range(j_from, j_to + step, step)]

    family = []
    for k in range(1, 5):
        a, b = hook_dec.abar[k - 1], hook_dec.bbar[k - 1]
        verts = []
        wt = [0] * N
        height = net.starts[k - 1][1]
        for c in range(b, a, -1):
            j = pinned_tableau.entries[pos_of[(k, c - 1)]]
            verts.extend(vertical_run(c, height, j))
            wt[j - 1] += 1
            height = j + 1 if R.step(c - 1) == "B" else j
        verts.extend(vertical_run(a, height, net.ends[k - 1][1]))
        family.append((k, tuple(verts), tuple(wt)))
    # paths of the same color are vertex disjoint
    for i, j in ((0, 2), (1, 3)):
        assert not set(family[i][1]) & set(family[j][1])
    assert network.uncross_type(family) == shuffle.tl_type(pinned_tableau)
    assert tableau_from_cover(d, family) == pinned_tableau


def test_reading_word_pins():
    ribbon_dec = row_sections_dec((2, 1, 0, -1, -2), (7, 6, 5, 2, 0))
    d = shuffle.ShuffleDiagram(ribbon_dec)
    per_row = [[1, 1, 1, 1, 2], [1, 2, 3, 3, 3], [1, 2, 2, 2, 3],
               [2, 2, 3], [2, 2]]
    entries = {}
    rows_present = sorted({r for r, _ in d.cells})
    for r, vals in zip(rows_present, per_row):
        cols = sorted(c for rr, c in d.cells if rr == r)
        assert len(cols) == len(vals)
        entries.update(dict(zip(((r, c) for c in cols), vals)))
    T = shuffle.ShuffleTableau(d, entries)
    assert shuffle.reading_word(T, 1).word == (2, 2, 2, 1, 2)
    assert shuffle.reading_word(T, 2).word == (
        2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 2)


def test_unmatched_positions():
    # letter i+1 opens, letter i closes
    lo, hi = shuffle.unmatched_positions((2, 2, 1, 1, 1), 1)
    assert lo == [4] and hi == []
    lo, hi = shuffle.unmatched_positions((1, 2), 1)
    assert lo == [0] and hi == [1]


def test_single_section_types(row_ribbon, column_ribbon):
    for ribbon, shape in ((row_ribbon, SkewShape((4,))),
                          (column_ribbon, SkewShape((1, 1, 1, 1)))):
        dec = decompose(shape, ribbon)
        d = shuffle.ShuffleDiagram(dec)
        for T in enumerate_shuffle_tableaux(d, 2):
            assert str(shuffle.tl_type(T)) == "(L1-R1)"


def test_three_way_agreement_small():
    dec = row_sections_dec((0, -2, -4), (3, 2, 1))
    N = 3
    by_sh = shuffle.tableaux_by_type(dec, N)
    by_cv = network.covers_by_type(dec, N)
    rm = ribbonmat.build(dec, N)
    for u in tlalgebra.enumerate_321_avoiding(3):
        tau = tlalgebra.perm_to_matching(u)
        v1 = tlalgebra.imm_tl(tau, rm.matrix)
        assert v1 == by_sh.get(tau, SymPoly.zero(N))
        assert v1 == by_cv.get(tau, SymPoly.zero(N))


def test_type_sum_is_minor_product(hook_dec):
    total = SymPoly.zero(2)
    for p in shuffle.tableaux_by_type(hook_dec, 2).values():
        total = total + p
    assert total == ribbonmat.odd_even_product(hook_dec, 2)


def test_cover_bijection(hook_dec, corpus_decs):
    dec = row_sections_dec((0, -2, -4), (3, 2, 1))
    cases = [(dec, 2), (dec, 3), (hook_dec, 2)] + [(d, 3) for d in corpus_decs]
    for tdec, N in cases:
        net = network.build_network(tdec, N)
        d = shuffle.ShuffleDiagram(tdec)
        fillings = set()
        for fam, wt in enumerate_covers(net):
            T = tableau_from_cover(d, fam)
            assert T.weight(N) == wt
            assert shuffle.tl_type(T) == network.uncross_type(fam)
            fillings.add(T)
        assert len(fillings) == count_covers(net)
        assert fillings == set(enumerate_shuffle_tableaux(d, N))


def test_crystal_operators():
    dec = row_sections_dec((0, -2, -4), (3, 2, 1))
    N = 3
    d = shuffle.ShuffleDiagram(dec)
    moves = 0
    for T in enumerate_shuffle_tableaux(d, N):
        for i in range(1, N):
            E = shuffle.crystal_E(T, i)
            F = shuffle.crystal_F(T, i)
            if E is not None:
                assert shuffle.crystal_F(E, i) == T
                assert shuffle.tl_type(E) == shuffle.tl_type(T)
                wE, wT = E.weight(N), T.weight(N)
                assert wE[i - 1] == wT[i - 1] + 1 and wE[i] == wT[i] - 1
            if F is not None:
                assert shuffle.crystal_E(F, i) == T
                moves += 1
    assert moves > 0


def test_one_pass_yamanouchi_matches_the_raising_operators():
    # is_yamanouchi reads no reading word; E_i reads the word of i
    counts = []
    for N in (3, 4):
        fillings = sources = 0
        for dec in corpus.sweep_corpus(8, 5, 4, per_bucket=2):
            for T in enumerate_shuffle_tableaux(shuffle.ShuffleDiagram(dec), N):
                top = max(T.entries.values())
                source = all(shuffle.crystal_E(T, i) is None
                             for i in range(1, top))
                assert shuffle.is_yamanouchi(T) == source, T.entries
                fillings += 1
                sources += source
        counts.append((fillings, sources))
    assert counts == [(6858, 356), (43395, 416)]


def test_types_are_traced_once_per_choice_pattern(monkeypatch):
    traced = []
    trace = shuffle._trace_type

    def spy(d, choice):
        traced.append((d.decomposition, choice))
        return trace(d, choice)

    monkeypatch.setattr(shuffle, "_trace_type", spy)
    fillings = patterns = 0
    for dec in corpus.sweep_corpus(8, 5, 4, per_bucket=2):
        N = _nontrivial_nvars(dec, 4)
        by_type = shuffle.tableaux_by_type(dec, N)
        # every filling traced on its own, on a diagram whose memo is unused
        d = shuffle.ShuffleDiagram(dec)
        compared = d.strand_picture[1]
        choices, each = set(), []
        for T, key in partition_weight_fillings(d, N):
            choice = tuple(T.entries[sw] <= T.entries[ne]
                           for sw, ne, _, _ in compared)
            choices.add(choice)
            each.append((trace(d, choice), key, 1))
        assert by_type == tally(each, N)
        fillings += len(each)
        patterns += len(choices)
    assert (fillings, patterns) == (4340, 399)
    assert len(traced) == len(set(traced)) == patterns


def test_a_corrupted_picture_fails_on_the_first_filling(monkeypatch):
    # every choice pattern is checked when it is first traced, so a
    # segment missing from the fixed part fails the first filling typed
    compile_picture = shuffle._compile_picture

    def drop_one(d):
        fixed, compared, node_label = compile_picture(d)
        return fixed[1:], compared, node_label

    traced = []
    trace = shuffle._trace_type
    monkeypatch.setattr(shuffle, "_compile_picture", drop_one)
    monkeypatch.setattr(shuffle, "_trace_type",
                        lambda d, choice: traced.append(choice)
                        or trace(d, choice))
    dec = row_sections_dec((0, -2, -4), (3, 2, 1))
    for model in (shuffle.tableaux_by_type, shuffle.schur_expand_by_crystal):
        with pytest.raises(StrandTraceError, match="degree|no segment"):
            model(dec, 3)
        assert len(traced) == 1
        traced.clear()


def test_crystal_expansion_matches_schur_expansion(hook_dec):
    dec = row_sections_dec((0, -2, -4), (3, 2, 1))
    for tdec, N in ((dec, 3), (hook_dec, 2)):
        by_crystal = shuffle.schur_expand_by_crystal(tdec, N)
        by_exp = {tau: expand_schur(p)
                  for tau, p in shuffle.tableaux_by_type(tdec, N).items()}
        assert by_crystal == by_exp


def test_source_search_matches_the_listing():
    # the search keeps what the listing of every partition-weight filling,
    # filtered by is_yamanouchi, keeps: at N = 1..4, and at N = cells up
    # to 6 cells
    cases = [(dec, N) for dec in corpus.sweep_corpus()
             for N in range(1, 7) if N <= 4 or N == dec.shape.size]
    assert len(cases) == 1792
    for dec, N in cases:
        assert shuffle.schur_expand_by_crystal(dec, N) == crystal_by_listing(
            dec, N), (dec, N)


def test_source_search_prunes(monkeypatch):
    # every filling the search completes is confirmed; the ballot counts
    # let through 2 that are not sources, of the 4,340 partition-weight
    # fillings
    reached = []
    confirm = shuffle.is_yamanouchi
    monkeypatch.setattr(shuffle, "is_yamanouchi",
                        lambda T: reached.append(T) or confirm(T))
    sources = 0
    for dec in corpus.sweep_corpus(8, 5, 4, per_bucket=2):
        by_crystal = shuffle.schur_expand_by_crystal(
            dec, _nontrivial_nvars(dec, 4))
        sources += sum(sum(e.coeffs.values()) for e in by_crystal.values())
    assert (len(reached), sources) == (418, 416)


def test_source_search_counts_partial_fillings(monkeypatch):
    # the sources come from the LR search, which counts every partial
    # filling it visits: one search per expansion
    visited = []

    class Counted(shuffle.LRProducts):
        def search(self, *args):
            yield from super().search(*args)
            visited.append(self.visited)

    monkeypatch.setattr(shuffle, "LRProducts", Counted)
    for dec in corpus.sweep_corpus(8, 5, 4, per_bucket=2):
        shuffle.schur_expand_by_crystal(dec, _nontrivial_nvars(dec, 4))
    assert (len(visited), sum(visited)) == (52, 902)


def test_source_search_is_budgeted(monkeypatch):
    # the domino's one filling passes the up-front count at a budget of 1,
    # and the search refuses it at its second partial filling, in the
    # one-line form, raised while handling no other error
    dec = next(dec for dec in corpus.sweep_corpus()
               if dec.shape == SkewShape((2, 2), (1, 1)) and dec.ell == 1)
    monkeypatch.setenv("RIL_BUDGET", "1")
    with pytest.raises(BudgetExceeded) as refused:
        shuffle.schur_expand_by_crystal(dec, 2)
    assert str(refused.value) == (
        "crystal sources of SkewShape(outer=(2, 2), inner=(1, 1)) in 2 "
        "variables: 2 partial fillings exceed RIL_BUDGET=1")
    assert refused.value.__context__ is None


def test_weight_counts_entries_in_range(pinned_tableau):
    # the pinned filling's 27 entries, counted from RED_ROWS and BLUE_ROWS
    assert pinned_tableau.weight(7) == (1, 4, 3, 3, 6, 7, 3)
    assert pinned_tableau.weight(8) == (1, 4, 3, 3, 6, 7, 3, 0)
    with pytest.raises(ValueError, match="^entry 7 is outside 1..6$"):
        pinned_tableau.weight(6)
    # no tableau holds a 0 (the constructor refuses it), so the helper
    # that counts the entries is read directly
    with pytest.raises(ValueError, match="^entry 0 is outside 1..3$"):
        shuffle._weight((1, 0), 3)


def test_a_filling_that_is_not_semistandard_is_refused(hook_dec):
    # all 1s, 3s or 0s covers the hook's diagram, but not one of its
    # columns is strict; a row read right to left keeps the columns strict
    # and lets the rows fall.  The constructor refuses each, so neither
    # is_yamanouchi nor tl_type can be handed such a filling.
    d = shuffle.ShuffleDiagram(hook_dec)
    for entries in (*(dict.fromkeys(d.cells, v) for v in (1, 3, 0)),
                    {(r, c): 100 * r - c for r, c in d.cells}):
        with pytest.raises(ValidityError,
                           match="^filling is not semistandard$"):
            shuffle.ShuffleTableau(d, entries)
    # the same lattice rows filled by their row index are semistandard
    T = shuffle.ShuffleTableau(d, {(r, c): r for r, c in d.cells})
    assert isinstance(shuffle.tl_type(T), tlalgebra.NoncrossingMatching)


def test_invalid_filling_rejected(hook_dec):
    d = shuffle.ShuffleDiagram(hook_dec)
    T = next(iter(enumerate_shuffle_tableaux(d, 3)))
    entries = dict(T.entries)
    del entries[next(iter(entries))]
    with pytest.raises(ValidityError):
        shuffle.ShuffleTableau(d, entries)


def test_budget_guard(hook_dec, monkeypatch):
    monkeypatch.setenv("RIL_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        shuffle.tableaux_by_type(hook_dec, 3)


def test_sources_have_partition_weight():
    # If no raising operator applies, every i+1 of a reading word is
    # bracketed by an i, so wt_i >= wt_{i+1}: a source always has a
    # partition weight, and schur_expand_by_crystal visits only those.
    N = 4
    unsorted = 0
    for dec in corpus.sweep_corpus(8, 5, 4, per_bucket=4):
        d = shuffle.ShuffleDiagram(dec)
        for T in enumerate_shuffle_tableaux(d, N):
            if partition_key(T.weight(N)) is None:
                unsorted += 1
                assert not shuffle.is_yamanouchi(T), T.entries
    assert unsorted == 79266


def _unfiltered_models(dec, N):
    """Type maps of every filling and every cover, weight or not, reduced
    to the partition weights afterwards."""
    by_shuffle, by_covers, by_crystal = {}, {}, {}
    for T in enumerate_shuffle_tableaux(shuffle.ShuffleDiagram(dec), N):
        tau, key = shuffle.tl_type(T), partition_key(T.weight(N))
        if key is not None:
            by_shuffle.setdefault(tau, Counter())[key] += 1
        if shuffle.is_yamanouchi(T):
            by_crystal.setdefault(tau, Counter())[key] += 1
    for fam, wt in enumerate_covers(network.build_network(dec, N)):
        key = partition_key(wt)
        if key is not None:
            by_covers.setdefault(network.uncross_type(fam), Counter())[key] += 1
    return ({t: SymPoly(N, c) for t, c in by_shuffle.items()},
            {t: SymPoly(N, c) for t, c in by_covers.items()},
            {t: SchurExpansion(N, c) for t, c in by_crystal.items()})


def test_weight_first_models_match_unfiltered_models():
    for dec in corpus.sweep_corpus(8, 5, 4, per_bucket=2):
        N = _nontrivial_nvars(dec, 4)
        by_shuffle, by_covers, by_crystal = _unfiltered_models(dec, N)
        assert shuffle.tableaux_by_type(dec, N) == by_shuffle
        assert network.covers_by_type(dec, N) == by_covers
        assert shuffle.schur_expand_by_crystal(dec, N) == by_crystal


def test_budget_is_checked_before_enumerating(hook_dec, monkeypatch):
    # the hook has 40,622,400 fillings, and as many covers, in 4 variables,
    # over the default budget; counting them is enough to refuse
    monkeypatch.delenv("RIL_BUDGET", raising=False)
    d = shuffle.ShuffleDiagram(hook_dec)
    counts = [evaluate(skew_schur(half, 4), (1,) * 4)
              for half in (d.red_shape, d.blue_shape)]
    assert counts[0] * counts[1] == 40622400

    def refuse(*args):
        raise AssertionError("enumerated before the budget check")

    monkeypatch.setattr(shuffle, "enumerate_ssyt", refuse)
    monkeypatch.setattr(network, "_paths_between", refuse)
    refusal = (r"^21840 red times 1860 blue in 4 variables: 40622400 {} "
               r"exceed RIL_BUDGET=2000000$")
    for model in (shuffle.tableaux_by_type, shuffle.schur_expand_by_crystal):
        with pytest.raises(BudgetExceeded, match=refusal.format("fillings")):
            model(hook_dec, 4)
    with pytest.raises(BudgetExceeded, match=refusal.format("fillings")):
        next(enumerate_shuffle_tableaux(d, 4))
    net = network.build_network(hook_dec, 4)
    for run in (lambda: network.covers_by_type(hook_dec, 4),
                lambda: next(enumerate_covers(net)),
                lambda: count_covers(net)):
        with pytest.raises(BudgetExceeded, match=refusal.format("covers")):
            run()


def test_models_need_no_more_variables_than_cells():
    # A partition weight has no more parts than the shape has cells, so
    # the weight-first models list their objects in min(N, cells)
    # variables.  At N = cells + 2 each equals the listing of every
    # filling or cover in N variables, and its own output at N = cells.
    decs = [d for d in corpus.sweep_corpus(5, 3, 4, per_bucket=1)
            if d.ell >= 2]
    assert len(decs) == 9
    for dec in decs:
        n = dec.shape.size
        N = n + 2
        models = (shuffle.tableaux_by_type, network.covers_by_type,
                  shuffle.schur_expand_by_crystal)
        for model, listed in zip(models, _unfiltered_models(dec, N)):
            wide, narrow = model(dec, N), model(dec, n)
            assert wide == listed, (model.__name__, dec)
            assert {t: p.coeffs for t, p in wide.items()} == {
                t: p.coeffs for t, p in narrow.items()}
