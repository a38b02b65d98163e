import ast
import importlib
import re
from collections import Counter
from functools import reduce
from pathlib import Path

import ribbonimm

SOURCES = sorted(Path(ribbonimm.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
TESTS = sorted((ROOT / "tests").glob("*.py"))

# Every walk is a loop, so an input is refused by the budget alone, never
# by the recursion limit: no function calls itself.
RECURSIVE = set()

# Public names that nothing in the package, the benchmark workloads or
# the README tour reads: the crystal operators are the laws is_yamanouchi
# relies on, and criterion 8 tests them; uncross_type is the strand walk
# of one cover, which covers_by_type runs on families it indexed once, and
# the tests hold it against shuffle.tl_type.
UNCALLED = {"crystal_E", "crystal_F", "uncross_type", "__version__"}

# Public methods and properties of the classes in __all__ that nothing in
# the package, the benchmark workloads or the README tour reads:
# criterion 8 reads each crystal step's weight.
UNREAD_MEMBERS = {"ShuffleTableau.weight"}

# (module, name) imported and not used there: perfbench/workloads.py reads
# tlalgebra.enumerate_321_avoiding.
UNUSED_IMPORTS = {("tlalgebra", "enumerate_321_avoiding")}


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


def test_no_function_calls_itself():
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


# The f-string prefix that names each S_n table's layer in its refusal,
# and the one module that formats it: the table's own builder, or errors
# for the determinant's column subsets.
REFUSAL_LAYERS = {"_weyl(n=": "klbase", "kl_polynomials(n=": "klbase",
                  "_tl_table(n=": "tlalgebra", "determinant(n=": "errors"}


def test_each_table_refusal_is_formatted_in_one_module():
    # a second module that formats a layer would charge the table on a
    # path of its own, which can disagree with the builder
    found = {prefix: set() for prefix in REFUSAL_LAYERS}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.JoinedStr):
                for part in node.values:
                    for prefix in REFUSAL_LAYERS:
                        if (isinstance(part, ast.Constant)
                                and part.value.startswith(prefix)):
                            found[prefix].add(path.stem)
    assert found == {prefix: {module}
                     for prefix, module in REFUSAL_LAYERS.items()}


def test_only_errors_names_the_table_store():
    # a value enters the store only through errors.table or
    # errors.kept_values, which drop it once the budget reads otherwise
    found = set()
    for path in SOURCES + TESTS + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if "_TABLES" in (getattr(node, "id", None),
                             getattr(node, "attr", None),
                             getattr(node, "name", None)):
                found.add(path.stem)
    assert found == {"errors"}


def _reads(tree, attributes=True) -> set:
    """The names read in tree, and with attributes the attribute names
    read off any object."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif (attributes and isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            out.add(node.attr)
    return out


def _library_tour() -> str:
    """The python block under the README's "## Library tour" heading."""
    text = (ROOT / "README.md").read_text()
    tour = text.split("\n## Library tour\n", 1)[1]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_every_public_name_has_a_caller():
    # a read inside the name's own definition, or the package's
    # re-export, is not a caller
    read = set()
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            names = _reads(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
            read |= names
    read |= _reads(ast.parse((ROOT / "perfbench/workloads.py").read_text()))
    read |= _reads(ast.parse(_library_tour()))
    assert set(ribbonimm.__all__) - read == UNCALLED


def test_every_public_member_has_a_reader():
    # a member is read when its name is read off any object; a read
    # inside the member's own definition is not a reader
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    members = {f"{cls.name}.{node.name}": node
               for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef)
               and cls.name in ribbonimm.__all__
               for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")}
    trees += [ast.parse((ROOT / "perfbench/workloads.py").read_text()),
              ast.parse(_library_tour())]

    def attribute_reads(*trees):
        return Counter(node.attr for tree in trees for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, ast.Load))

    read = attribute_reads(*trees)
    unread = {name for name, node in members.items()
              if read[node.name] == attribute_reads(node)[node.name]}
    assert unread == UNREAD_MEMBERS


def test_no_module_imports_a_name_it_does_not_use():
    # the package's __init__ imports only to re-export; the test modules
    # are held to the same rule
    unused = set()
    for path in SOURCES + TESTS:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = _reads(tree, attributes=False)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.add((path.stem, name))
    assert unused == UNUSED_IMPORTS


def test_the_readme_library_tour_runs():
    # a tour that names a deleted function fails here
    exec(compile(_library_tour(), "README.md", "exec"), {})


def test_every_perfbench_trace_target_resolves():
    # a renamed layer function fails here rather than in run.py --trace 1
    tree = ast.parse((ROOT / "perfbench/tracing.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    assert targets
    for modname, attr in targets:
        module = importlib.import_module(f"ribbonimm.{modname}")
        assert callable(reduce(getattr, attr.split("."), module)), attr
