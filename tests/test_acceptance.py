"""End-to-end acceptance gate.

Every criterion is an exact integer or polynomial identity (zero
tolerance).  Each test prints a single CRITERION line; run pytest with
-s (or check captured output) to see them.  Corpus-based criteria use
the deterministic bucket subsample from ribbonimm.corpus so the whole
gate stays desk scale; bucket sizes are chosen per criterion to balance
coverage against runtime.
"""

import itertools
import random

from conftest import (compatible_types, imm_det_check, random_shape_matrix,
                      row_sections_dec)
from ribbonimm import corpus as corpus_mod
from ribbonimm import klbase, network, ribbonmat, shuffle, tlalgebra
from ribbonimm.shapes import (InfiniteRibbon, decompose, shape_from_tuples)
from ribbonimm.symfunc import (SymPoly, determinant, expand_schur,
                               schur_poly, skew_schur, ssyt_count)

HOOK_RIBBON = InfiniteRibbon(-3, ("B", "L", "L", "L", "B", "B", "L", "B"),
                             tail_lo="B", tail_hi="L")
HOOK_DEC = decompose(
    shape_from_tuples(HOOK_RIBBON, (0, -4, -3, 3), (3, 5, 9, 6)),
    HOOK_RIBBON)


def _tallest_column(shape) -> int:
    heights = {}
    for i, j, _ in shape.cells():
        heights[j] = heights.get(j, 0) + 1
    return max(heights.values())


def _nontrivial_nvars(dec, cap: int) -> int:
    # below the tallest column every semistandard enumeration is empty
    return min(cap, _tallest_column(dec.shape) + 1)


def _report(num: int, label: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"CRITERION {num} ({label}): {verdict}")
    assert not failures, failures[:5]


def test_criterion_01_determinant_identity():
    decs = corpus_mod.sweep_corpus(8, 5, 4, per_bucket=16)
    assert len(decs) >= 200
    assert len({(d.ribbon, d.abar, d.bbar) for d in decs}) == len(decs)
    failures = []
    for dec in decs:
        rm = ribbonmat.build(dec, max(dec.shape.size, 1))
        if not ribbonmat.check_determinant(rm):
            failures.append((dec.abar, dec.bbar))
    _report(1, "det equals skew Schur function", failures)


def test_criterion_02_decomposition_pins():
    failures = []
    if HOOK_DEC.abar != (0, -4, -3, 3) or HOOK_DEC.bbar != (3, 5, 9, 6):
        failures.append(("tuples", HOOK_DEC.abar, HOOK_DEC.bbar))
    rm = ribbonmat.build(HOOK_DEC, 2)
    sub = ribbonmat.principal_minor(rm, (1, 3, 4))
    if sub.decomposition.abar != (0, -3, 3) or \
            sub.decomposition.bbar != (3, 9, 6):
        failures.append(("minor tuples", sub.decomposition.abar))
    rebuilt = shape_from_tuples(HOOK_RIBBON, (0, -3, 3), (3, 9, 6))
    if rebuilt != sub.decomposition.shape:
        failures.append(("minor shape roundtrip",))
    if not ribbonmat.check_determinant(sub):
        failures.append(("minor determinant",))
    _report(2, "pinned decomposition and principal minor", failures)


def test_criterion_03_three_way_immanant_agreement():
    decs = corpus_mod.sweep_corpus(8, 5, 4, per_bucket=4)
    failures = []
    for dec in decs:
        N = _nontrivial_nvars(dec, 4)
        rm = ribbonmat.build(dec, N)
        by_shuffle = shuffle.tableaux_by_type(dec, N)
        by_covers = network.covers_by_type(dec, N)
        for u in tlalgebra.enumerate_321_avoiding(dec.ell):
            tau = tlalgebra.perm_to_matching(u)
            v1 = tlalgebra.imm_tl(tau, rm.matrix)
            v2 = by_shuffle.get(tau, SymPoly.zero(N))
            v3 = by_covers.get(tau, SymPoly.zero(N))
            if not (v1 == v2 == v3):
                failures.append((dec.abar, dec.bbar, u))
    _report(3, "immanant via definition, fillings, and covers", failures)


def test_criterion_04_complementary_minor_identity():
    failures = []
    for dec in corpus_mod.sweep_corpus(8, 5, 4, per_bucket=4):
        N = _nontrivial_nvars(dec, 4)
        rm = ribbonmat.build(dec, N)
        total = SymPoly.zero(N)
        for tau in tlalgebra.all_matchings(dec.ell):
            total = total + tlalgebra.imm_tl(tau, rm.matrix)
        if total != ribbonmat.odd_even_product(dec, N):
            failures.append(("corpus", dec.abar, dec.bbar))
    rng = random.Random(2024)
    for trial in range(50):
        n = rng.randint(1, 4)
        A = random_shape_matrix(rng, n, rng.randint(2, 3))
        total = SymPoly.zero(A.nvars)
        for tau in tlalgebra.all_matchings(n):
            total = total + tlalgebra.imm_tl(tau, A)
        I = tuple(range(1, n + 1, 2))
        J = tuple(range(2, n + 1, 2))
        if total != tlalgebra.minor(A, I, I) * tlalgebra.minor(A, J, J):
            failures.append(("random", trial))
    for trial in range(10):
        n = rng.randint(2, 3)
        A = random_shape_matrix(rng, n, 2)
        for k in range(n + 1):
            for I in itertools.combinations(range(1, n + 1), k):
                for J in itertools.combinations(range(1, n + 1), k):
                    Ic = tuple(x for x in range(1, n + 1) if x not in I)
                    Jc = tuple(x for x in range(1, n + 1) if x not in J)
                    total = SymPoly.zero(2)
                    for tau in compatible_types(n, I, J):
                        total = total + tlalgebra.imm_tl(tau, A)
                    want = tlalgebra.minor(A, I, J) * tlalgebra.minor(A, Ic, Jc)
                    if total != want:
                        failures.append(("general", trial, I, J))
    _report(4, "complementary minor products", failures)


def test_criterion_05_schur_positivity_and_crystal_expansion():
    failures = []
    for dec in corpus_mod.sweep_corpus(8, 5, 4, per_bucket=16):
        N = max(dec.shape.size, 1)
        rm = ribbonmat.build(dec, N)
        for u in tlalgebra.enumerate_321_avoiding(dec.ell):
            tau = tlalgebra.perm_to_matching(u)
            exp = expand_schur(tlalgebra.imm_tl(tau, rm.matrix))
            if not exp.schur_positive:
                failures.append(("positivity", dec.abar, dec.bbar, u))
    for dec in corpus_mod.sweep_corpus(8, 5, 4, per_bucket=2):
        N = _nontrivial_nvars(dec, 4)
        by_crystal = shuffle.schur_expand_by_crystal(dec, N)
        direct = {tau: expand_schur(p)
                  for tau, p in shuffle.tableaux_by_type(dec, N).items()}
        if by_crystal != direct:
            failures.append(("crystal", dec.abar, dec.bbar))
    _report(5, "Schur positive immanants, source-counting expansion",
            failures)


def test_criterion_06_negative_controls():
    failures = []
    rows, cols = ribbonmat.remark_bad_minor_indices()
    tau = tlalgebra.perm_to_matching((2, 1, 4, 3))
    # truncated at N = 5, and faithful at the defaults: N = 13 for the
    # degree-13 immanant and N = 14 for the degree-14 minor
    truncated = ribbonmat.remark_matrices(N_first=5, N_second=5)
    for A, Abad in (truncated, ribbonmat.remark_matrices()):
        exp1 = expand_schur(tlalgebra.imm_tl(tau, A))
        if exp1.schur_positive or not exp1.negative_part():
            failures.append(("first immanant not negative", A.nvars))
        exp2 = expand_schur(tlalgebra.minor(Abad, rows, cols))
        if exp2.schur_positive or not exp2.negative_part():
            failures.append(("minor not negative", Abad.nvars))
    _, Abad = truncated
    comp_rows = tuple(sorted(set(range(1, 5)) - set(rows)))
    comp_cols = tuple(sorted(set(range(1, 5)) - set(cols)))
    prod = tlalgebra.minor(Abad, rows, cols) * \
        tlalgebra.minor(Abad, comp_rows, comp_cols)
    if not expand_schur(prod).schur_positive:
        failures.append(("complementary product negative",))
    _report(6, "negative certificates reproduced", failures)


def test_criterion_07_reading_word_and_type_pins():
    failures = []
    dec = row_sections_dec((2, 1, 0, -1, -2), (7, 6, 5, 2, 0))
    d = shuffle.build_diagram(dec)
    per_row = [[1, 1, 1, 1, 2], [1, 2, 3, 3, 3], [1, 2, 2, 2, 3],
               [2, 2, 3], [2, 2]]
    entries = {}
    for r, vals in zip(sorted({r for r, _ in d.cells}), per_row):
        cols = sorted(c for rr, c in d.cells if rr == r)
        entries.update(dict(zip(((r, c) for c in cols), vals)))
    T = shuffle.ShuffleTableau(d, entries)
    if shuffle.reading_word(T, 1).word != (2, 2, 2, 1, 2):
        failures.append(("word 1", shuffle.reading_word(T, 1).word))
    if shuffle.reading_word(T, 2).word != \
            (2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 2):
        failures.append(("word 2", shuffle.reading_word(T, 2).word))

    from test_shuffle import BLUE_ROWS, RED_ROWS, _fill
    dh = shuffle.build_diagram(HOOK_DEC)
    pinned = {(2 * i - 1, 2 * j - 1): v
              for (i, j), v in _fill(dh.red_shape, RED_ROWS).items()}
    pinned.update({(2 * i, 2 * j): v
                   for (i, j), v in _fill(dh.blue_shape, BLUE_ROWS).items()})
    Tp = shuffle.ShuffleTableau(dh, pinned)
    tau = shuffle.tl_type(Tp)
    expected, _ = tlalgebra.diagram_mul(tlalgebra.generator(4, 3),
                                        tlalgebra.generator(4, 2))
    if tau != expected:
        failures.append(("pinned type", str(tau)))
    # cover-side agreement on an exhaustively enumerable instance
    net = network.build_network(HOOK_DEC, 3)
    for fam, _ in network.enumerate_covers(net):
        if shuffle.tl_type(shuffle.tableau_from_cover(dh, fam)) != \
                network.uncross_type(fam):
            failures.append(("cover type mismatch",))
            break
    _report(7, "reading words and pinned strand type", failures)


def test_criterion_08_crystal_properties(monkeypatch):
    failures = []
    # E_i, F_i and the Yamanouchi test share one reading word per (T, i);
    # keeping each T keeps its id from being reused
    built = {}
    build = shuffle._build_reading_word

    def counted(T, i):
        built.setdefault((id(T), i), []).append(T)
        return build(T, i)

    monkeypatch.setattr(shuffle, "_build_reading_word", counted)
    for dec in corpus_mod.sweep_corpus(8, 5, 4, per_bucket=2):
        N = _nontrivial_nvars(dec, 4)
        d = shuffle.build_diagram(dec)
        tableaux = list(shuffle.enumerate_shuffle_tableaux(d, N))
        index = {T: t for t, T in enumerate(tableaux)}
        types = [shuffle.tl_type(T) for T in tableaux]
        parent = list(range(len(tableaux)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        # each crystal step once: up[i][t] and down[i][t] are the indices
        # of E_i and F_i of tableaux[t], None where the operator vanishes
        def step(op, i):
            return [None if S is None else index[S]
                    for S in (op(T, i) for T in tableaux)]

        up = {i: step(shuffle.crystal_E, i) for i in range(1, N)}
        down = {i: step(shuffle.crystal_F, i) for i in range(1, N)}
        for t, T in enumerate(tableaux):
            for i in range(1, N):
                e, f = up[i][t], down[i][t]
                if e is not None:
                    if down[i][e] != t:
                        failures.append(("partial inverse", dec.abar))
                    if types[e] != types[t]:
                        failures.append(("type changed", dec.abar))
                    wE, wT = tableaux[e].weight(N), T.weight(N)
                    if wE[i - 1] != wT[i - 1] + 1 or wE[i] != wT[i] - 1:
                        failures.append(("weight shift", dec.abar))
                if f is not None:
                    if up[i][f] != t:
                        failures.append(("partial inverse", dec.abar))
                    ra, rb = find(t), find(f)
                    if ra != rb:
                        parent[ra] = rb
        components = {}
        for t, T in enumerate(tableaux):
            components.setdefault(find(t), []).append(T)
        for comp in components.values():
            sources = [T for T in comp if shuffle.is_yamanouchi(T)]
            if len(sources) != 1:
                failures.append(("source count", dec.abar, len(sources)))
                continue
            wt = tuple(w for w in sources[0].weight(N) if w)
            gen = SymPoly.zero(N)
            for T in comp:
                w = T.weight(N)
                if list(w) == sorted(w, reverse=True):
                    key = tuple(x for x in w if x)
                    gen = gen + SymPoly(N, {key: 1})
            if gen != schur_poly(wt, N):
                failures.append(("component sum", dec.abar, wt))
    rebuilt = sum(len(kept) > 1 for kept in built.values())
    if not built or rebuilt:
        failures.append(("reading words rebuilt", rebuilt, len(built)))
    _report(8, "crystal operator laws and component generating functions",
            failures)


def test_criterion_09_kl_gates():
    failures = []
    if klbase.kl_polynomials(4).polys != klbase.kl_polynomials_hecke(4).polys:
        failures.append(("table oracle mismatch",))
    rng = random.Random(99)
    for trial in range(20):
        n = rng.randint(1, 4)
        if not imm_det_check(random_shape_matrix(rng, n, 2)):
            failures.append(("det anchor", trial))
    A, _ = ribbonmat.remark_matrices(N_first=5, N_second=2)
    w = (2, 1, 4, 3)
    kl_value = klbase.imm_kl(w, A)
    tl_value = tlalgebra.imm_tl(tlalgebra.perm_to_matching(w), A)
    if kl_value != tl_value:
        failures.append(("2143 anchor disagrees",))
    if expand_schur(kl_value).schur_positive:
        failures.append(("2143 anchor unexpectedly positive",))
    for dec in corpus_mod.sweep_corpus(8, 5, 4, per_bucket=4):
        # truncated, and faithful at nvars = cell count
        for N in sorted({_nontrivial_nvars(dec, 4), dec.shape.size}):
            report = klbase.conjecture12_harness(dec, N)
            if not report["all_positive"]:
                # surfaced, not silently dropped: a certificate here is news
                failures.append(("negative certificate", N,
                                 report["certificates"]))
    _report(9, "signed immanant gates and positivity sweep", failures)


def test_criterion_10_combinatorial_counts():
    failures = []
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for n in range(1, 8):
        if sum(1 for _ in tlalgebra.enumerate_321_avoiding(n)) != catalan[n]:
            failures.append(("catalan", n))
    for dec in corpus_mod.sweep_corpus(8, 5, 3, per_bucket=16):
        d = shuffle.build_diagram(dec)
        for N in (1, 2, 3):
            n_tab = ssyt_count(d.red_shape, N) * ssyt_count(d.blue_shape, N)
            n_cov = network.count_covers(network.build_network(dec, N))
            if n_tab != n_cov:
                failures.append((dec.abar, dec.bbar, N, n_tab, n_cov))
    _report(10, "Catalan counts and cover-filling bijection", failures)
