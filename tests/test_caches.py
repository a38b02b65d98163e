import importlib
import pkgutil

import ribbonimm

# Each process-wide cache is read again by a later call of some command;
# a cache with no second reader only holds memory (and results built
# under an earlier budget).  The comment above each names its reader.
CACHES = {
    "klbase._weyl",
    "klbase.kl_polynomials",
    "symfunc.skew_schur",
    "tlalgebra.perm_to_matching",
    "tlalgebra._tl_table",
}


def test_process_wide_caches_are_listed():
    found = set()
    for info in pkgutil.iter_modules(ribbonimm.__path__):
        module = importlib.import_module(f"ribbonimm.{info.name}")
        for name, obj in vars(module).items():
            if (hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", None) == module.__name__):
                found.add(f"{info.name}.{name}")
    assert found == CACHES
