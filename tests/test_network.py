import pytest

from conftest import row_sections_dec
from ribbonimm import network, ribbonmat, tlalgebra
from ribbonimm.errors import BudgetExceeded, StrandTraceError
from ribbonimm.shapes import SkewShape, decompose, ribbon_section_shape
from ribbonimm.symfunc import SymPoly, partition_key, skew_schur, ssyt_count


def path_weight_sum(net, i: int, j: int) -> SymPoly:
    """Sum of path weights P_i -> Q_j; equals the matrix entry (i, j)."""
    coeffs = {}
    for _, wt in network._all_paths(net, i, j):
        key = partition_key(wt)
        if key is not None:
            coeffs[key] = coeffs.get(key, 0) + 1
    return SymPoly(net.N, coeffs)


def test_endpoints(hook_dec):
    net = network.build_network(hook_dec, 2)
    assert net.ell == 4
    assert len(net.starts) == len(net.ends) == 4
    for _, h in net.starts + net.ends:
        assert h in (1, net.top)


def test_path_weight_sum_is_matrix_entry(hook_dec):
    N = 2
    net = network.build_network(hook_dec, N)
    rm = ribbonmat.build(hook_dec, N)
    for i in range(1, 5):
        for j in range(1, 5):
            assert path_weight_sum(net, i, j) == rm.matrix[i, j], (i, j)
    # the count the budget charges before listing a section's paths
    for N in (2, 3):
        net = network.build_network(hook_dec, N)
        for k, (a, b) in enumerate(zip(hook_dec.abar, hook_dec.bbar), 1):
            section = ribbon_section_shape(hook_dec.ribbon, a, b)
            assert len(network._all_paths(net, k, k)) == ssyt_count(section, N)


def test_single_section_paths(row_ribbon, column_ribbon):
    for ribbon, shape in ((row_ribbon, SkewShape((3,))),
                          (column_ribbon, SkewShape((1, 1, 1)))):
        dec = decompose(shape, ribbon)
        net = network.build_network(dec, 3)
        assert path_weight_sum(net, 1, 1) == skew_schur(shape, 3)


def test_cover_count_is_product_of_ssyt_counts(hook_dec):
    N = 2
    net = network.build_network(hook_dec, N)
    odd, even = ribbonmat.odd_even_split(hook_dec)
    assert network.count_covers(net) == ssyt_count(odd, N) * ssyt_count(even, N)


def test_cover_weights_sum_to_minor_product(hook_dec):
    N = 2
    net = network.build_network(hook_dec, N)
    total = {}
    for _, wt in network.enumerate_covers(net):
        if list(wt) == sorted(wt, reverse=True):
            key = tuple(w for w in wt if w)
            total[key] = total.get(key, 0) + 1
    assert SymPoly(N, total) == ribbonmat.odd_even_product(hook_dec, N)


def test_uncross_type_is_noncrossing(hook_dec):
    net = network.build_network(hook_dec, 2)
    for fam, _ in network.enumerate_covers(net):
        tau = network.uncross_type(fam)
        assert tau.n == 4  # construction validates noncrossing


def test_uncross_type_rejects_an_edge_covered_three_times():
    family = [(1, ((3, 1), (2, 1), (1, 1)), ()),
              (2, ((3, 2), (2, 1), (1, 1), (0, 1)), ()),
              (3, ((2, 3), (2, 2), (2, 1), (1, 1), (1, 0)), ())]
    with pytest.raises(StrandTraceError, match="covered more than twice"):
        network.uncross_type(family)


def test_uncross_type_rejects_a_vertex_on_three_paths():
    family = [(1, ((3, 1), (2, 2), (1, 1)), ()),
              (2, ((3, 2), (2, 2), (1, 2)), ()),
              (3, ((3, 3), (2, 2), (1, 3)), ())]
    with pytest.raises(StrandTraceError, match=r"vertex \(2, 2\) lies on 3"):
        network.uncross_type(family)


def test_covers_by_type_matches_direct_immanant():
    dec = row_sections_dec((0, -2), (2, 1))
    N = 3
    by_type = network.covers_by_type(dec, N)
    rm = ribbonmat.build(dec, N)
    for u in tlalgebra.enumerate_321_avoiding(2):
        tau = tlalgebra.perm_to_matching(u)
        got = by_type.get(tau, SymPoly.zero(N))
        assert got == tlalgebra.imm_tl(tau, rm.matrix)
        assert got == network.imm_by_covers(dec, N, tau)


def test_budget_guard(hook_dec, monkeypatch):
    monkeypatch.setenv("RIL_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        network.covers_by_type(hook_dec, 3)


def test_section_paths_are_counted_before_listing(hook_dec, monkeypatch):
    # in 3 variables, section 1 of the hook has 8 paths and section 3 has 360
    monkeypatch.setenv("RIL_BUDGET", "100")
    net = network.build_network(hook_dec, 3)
    assert len(network._all_paths(net, 1, 1)) == 8

    def refuse(*args):
        raise AssertionError("listed before the budget check")

    monkeypatch.setattr(network, "_paths_between", refuse)
    with pytest.raises(BudgetExceeded,
                       match=r"^360 P_3 -> Q_3 in 3 variables: 360 paths "
                       r"exceed RIL_BUDGET=100$"):
        path_weight_sum(net, 3, 3)
