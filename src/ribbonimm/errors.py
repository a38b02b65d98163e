"""Exception types, the enumeration budget and the tables kept under it."""

import functools
import math
import os


class RibbonError(Exception):
    """Base class for all package-specific errors."""


class IncompatibleShape(RibbonError):
    """A copy of the ribbon meets the skew shape in a non-contiguous set."""


class NonConsecutiveCopies(RibbonError):
    """The nonempty ribbon copies are not a consecutive range."""


class NotSkew(RibbonError):
    """A cell set does not form a valid skew diagram."""


class EmptySection(RibbonError):
    """A ribbon section [a, b) was requested with a >= b."""


class StrandTraceError(RibbonError):
    """Strand segments do not form simple endpoint-terminated paths."""


class BudgetExceeded(RibbonError):
    """An enumeration exceeded the configured budget (see RIL_BUDGET)."""


def budget() -> int:
    """Most items an exponential enumeration or an S_n table may hold:
    RIL_BUDGET, a positive integer."""
    text = os.environ.get("RIL_BUDGET", "2000000")
    if not text.strip().isdecimal() or int(text) < 1:
        raise RibbonError(f"RIL_BUDGET={text!r} is not a positive integer")
    return int(text)


def charge(layer: str, size: int, unit: str) -> None:
    """Refuse size items, a table's size or a count kept while building."""
    limit = budget()
    if size > limit:
        raise BudgetExceeded(f"{layer}: {size} {unit} exceed "
                             f"RIL_BUDGET={limit}")


def charge_permutations(layer: str, n: int, per: int, unit: str) -> None:
    """Refuse a table of per items for each permutation of S_n before any
    is listed.  Since n! >= 2^(n-1), an n past the budget's bit length is
    refused without computing n!."""
    limit = budget()
    if n > limit.bit_length():
        raise BudgetExceeded(f"{layer}: more than 2^{n - 1} permutations "
                             f"exceed RIL_BUDGET={limit}")
    charge(layer, math.factorial(n) * per, unit)


def charge_determinant(n: int) -> None:
    """Refuse an n x n determinant whose sums visit more column subsets
    (2^n, compared by bit length) than the budget."""
    limit = budget()
    if n >= limit.bit_length():
        raise BudgetExceeded(f"determinant(n={n}): 2^{n} column subsets "
                             f"exceed RIL_BUDGET={limit}")


class ValidityError(RibbonError):
    """A tableau operation produced an invalid filling (internal error)."""


_TABLES = {}  # (function, args) -> the value kept for the process
_built_under = [None]  # the RIL_BUDGET text the kept values were built under


def table(fn):
    """Keep fn's value per argument tuple while RIL_BUDGET reads as when it
    was built, so that a warm call is refused exactly as a cold one."""
    @functools.wraps(fn)
    def kept(*args):
        text = os.environ.get("RIL_BUDGET")
        if text != _built_under[0]:
            budget()  # a malformed text is refused before any value goes
            _TABLES.clear()
            _built_under[0] = text
        if (fn, args) not in _TABLES:
            _TABLES[fn, args] = fn(*args)
        return _TABLES[fn, args]
    return kept
