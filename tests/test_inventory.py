import ast
from pathlib import Path

import ribbonimm

SOURCES = sorted(Path(ribbonimm.__file__).parent.glob("*.py"))

# Only the monomial orbit listing still calls itself: it serves only
# SymPoly.__mul__ and evaluate, on no command path, and goes with the
# monomial product (ROADMAP item 3).  Every other walk is a loop, so an
# input is refused by the budget alone, never by the recursion limit.
RECURSIVE = {"symfunc._orbit"}


def _functions(tree, prefix):
    """(qualified name, node) of every function in tree, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{node.name}", node
            yield from _functions(node, f"{prefix}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}.{node.name}")
        else:
            yield from _functions(node, prefix)


def _calls_itself(node) -> bool:
    """Whether the function node calls its own name, or its own method
    through self or cls."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            f = sub.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                f = f.attr if f.value.id in ("self", "cls") else None
            elif isinstance(f, ast.Name):
                f = f.id
            if f == node.name:
                return True
    return False


def test_only_the_orbit_listing_recurses():
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for name, node in _functions(tree, path.stem):
            if _calls_itself(node):
                found.add(name)
    assert found == RECURSIVE


def test_budget_refusals_are_raised_in_errors_only():
    # every refusal goes through errors.charge, charge_permutations or
    # charge_determinant, so it reads "{layer}: {count} {unit} exceed
    # RIL_BUDGET={cap}"
    found = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "BudgetExceeded"):
                found.add(path.stem)
    assert found == {"errors"}
