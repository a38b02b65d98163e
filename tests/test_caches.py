import ast
from pathlib import Path

import pytest

import ribbonimm
from ribbonimm import klbase, symfunc, tlalgebra
from ribbonimm.errors import BudgetExceeded, RibbonError
from ribbonimm.shapes import SkewShape

# Each table kept for the process by errors.table is read again by a later
# call of some command; a table with no second reader only holds memory.
# The comment above each names its reader.
TABLES = {
    "klbase._weyl",
    "klbase.kl_polynomials",
    "symfunc.skew_schur",
    "tlalgebra.perm_to_matching",
    "tlalgebra._tl_table",
}


def decorated():
    """(module.function, decorator name) of every module-level function
    of the package."""
    for path in Path(ribbonimm.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    yield (f"{path.stem}.{node.name}",
                           dec.attr if isinstance(dec, ast.Attribute)
                           else dec.id)


def test_process_wide_caches_are_listed():
    found = list(decorated())
    assert {name for name, dec in found if dec == "table"} == TABLES
    assert not [name for name, dec in found if dec in ("lru_cache", "cache")]


@pytest.mark.parametrize("call, limit, message", [
    (lambda: klbase.kl_polynomials(4), "212",
     r"^kl_polynomials\(n=4\): 213 Bruhat pairs exceed RIL_BUDGET=212$"),
    (lambda: tlalgebra._tl_table(4), "173",
     r"^_tl_table\(n=4\): 174 entries exceed RIL_BUDGET=173$"),
    (lambda: symfunc.skew_schur(SkewShape((3, 2), (1,)), 3), "3",
     r"^skew_schur of SkewShape\(outer=\(3, 2\), inner=\(1, 0\)\) in 3 "
     r"variables: 4 Kostka states exceed RIL_BUDGET=3$"),
    (lambda: symfunc.SymPoly.from_schur(3, {(2, 1): 1, (3,): 1}), "3",
     r"^from_schur of 2 Schur terms of degree 3 in 3 variables: 4 Kostka "
     r"states exceed RIL_BUDGET=3$"),
], ids=["kl_polynomials", "_tl_table", "skew_schur", "from_schur"])
def test_warm_table_is_refused_as_a_cold_one(call, limit, message,
                                             monkeypatch):
    # a table built under the default budget is not read under a lower
    # one: the refusal names the same layer with the same message
    monkeypatch.setenv("RIL_BUDGET", limit)
    with pytest.raises(BudgetExceeded, match=message) as cold:
        call()
    monkeypatch.delenv("RIL_BUDGET")
    call()
    monkeypatch.setenv("RIL_BUDGET", limit)
    with pytest.raises(BudgetExceeded) as warm:
        call()
    assert str(warm.value) == str(cold.value)


def test_malformed_budget_is_refused_before_a_kept_table_is_read(
        monkeypatch):
    # perm_to_matching charges nothing, so only the store reads the budget
    tau = tlalgebra.perm_to_matching((2, 1))
    monkeypatch.setenv("RIL_BUDGET", "many")
    with pytest.raises(RibbonError, match="^RIL_BUDGET='many' is not a "
                       "positive integer$"):
        tlalgebra.perm_to_matching((2, 1))
    monkeypatch.delenv("RIL_BUDGET")
    assert tlalgebra.perm_to_matching((2, 1)) == tau
