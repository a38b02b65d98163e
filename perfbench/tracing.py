"""In-memory span tracing around the public layer functions of ribbonimm.

The tracer rebinds each traced name in every loaded ``ribbonimm`` module
that holds it (``ribbonmat`` keeps its own ``skew_schur`` binding, the
package re-exports most names), so no file under ``src/`` changes.  Spans
are plain lists kept in memory and written once, when the pass ends.

Hot inner helpers (``crystal_E``, ``bruhat_leq``, ``perm_length`` and the
like, called once per tableau or permutation pair) are deliberately not
traced: their time lands in the self time of the nearest traced caller,
and tracing them would multiply the overhead and the span count.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) of every traced layer function; "Class.method" names
# a method patched on the class itself.
TARGETS = (
    ("corpus", "sweep_corpus"),
    ("shapes", "shape_from_tuples"),
    ("shapes", "decompose"),
    ("symfunc", "skew_schur"),
    ("symfunc", "SymPoly.__mul__"),
    ("symfunc", "determinant"),
    ("symfunc", "expand_schur"),
    ("tlalgebra", "imm_tl"),
    ("tlalgebra", "minor"),
    ("klbase", "imm_kl"),
    ("klbase", "conjecture12_harness"),
    ("klbase", "kl_polynomials"),
    ("ribbonmat", "build"),
    ("ribbonmat", "theorem1_harness"),
    ("ribbonmat", "odd_even_product"),
    ("ribbonmat", "remark_matrices"),
    ("network", "covers_by_type"),
    ("network", "uncross_type"),
    ("shuffle", "tableaux_by_type"),
    ("shuffle", "tl_type"),
    ("shuffle", "schur_expand_by_crystal"),
)


def orbit_size(key, nvars: int) -> int:
    """Number of exponent vectors in nvars variables that sort to key."""
    mult = Counter(key)
    mult[0] += nvars - len(key)
    out = math.factorial(nvars)
    for m in mult.values():
        out //= math.factorial(m)
    return out


def monomials_all(poly) -> int:
    """Sum of c * |orbit| over the monomial coefficients of a SymPoly: the
    number of fillings (or covers) it counts, not only the sorted ones."""
    return sum(c * orbit_size(k, poly.nvars) for k, c in poly.coeffs.items())


def monomials_kept(poly) -> int:
    return sum(poly.coeffs.values())


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children.

    spans: sequence of (name, start, end, parent) where parent is the
    index of the parent span or -1.
    """
    children = {}
    for sid, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent, instance]
        self.stack = []
        self.instance = "setup"
        self.active = True
        self.counts = {}      # name -> Counter of extra stats

    def reset(self, instance) -> None:
        """Drop what was recorded so far and trace calls for instance."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.instance = instance
        self.active = True

    def _wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                self.counts.setdefault(name, Counter()).update(
                    count(args, out))
            return out

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded ribbonimm module."""
        pkg = sys.modules["ribbonimm"]
        for modname, attr in TARGETS:
            module = getattr(pkg, modname)
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._wrap(name, orig, COUNTS.get(name))
                for m_name, value in list(cls.__dict__.items()):
                    if value is orig:  # also __rmul__ = __mul__
                        setattr(cls, m_name, wrapped)
                continue
            orig = getattr(module, attr)
            rebind(orig, self._wrap(name, orig, COUNTS.get(name)))

    def layer_stats(self) -> dict:
        """Per traced function: calls, self_s, and the extra counters."""
        selfs = self_times([(s[0], s[1], s[2], s[3]) for s in self.spans])
        stats = {}
        for span, st in zip(self.spans, selfs):
            entry = stats.setdefault(span[0], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += st
        for name, extra in self.counts.items():
            stats[name].update(extra)
        return stats

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header, then one span a line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end",
                                            "parent", "instance"]}) + "\n")
            for sid, (name, start, end, parent, inst) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, inst])
                         + "\n")


def rebind(orig, wrapped) -> None:
    """Replace orig by wrapped wherever a ribbonimm module binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "ribbonimm" or mod_name.startswith("ribbonimm."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)


def skew_schur_stats(pairs) -> dict:
    """Calls, distinct arguments and filling counts of skew_schur, from
    its (args, result) pairs; fillings are counted once per distinct
    argument, since a repeated call is served from the cache."""
    distinct = dict(pairs)
    return {
        "calls": len(pairs),
        "distinct_args": len(distinct),
        "fillings_all": sum(monomials_all(p) for p in distinct.values()),
        "fillings_kept": sum(monomials_kept(p) for p in distinct.values()),
    }


def count_skew_schur() -> list:
    """Record (args, result) of every skew_schur call, without spans.

    Every pass uses this for the workload descriptors and the traced
    skew_schur counters; it adds one Python call and a list append per
    skew_schur call.
    """
    from ribbonimm import symfunc

    pairs = []
    orig = symfunc.skew_schur

    def counted(*args, **kwargs):
        out = orig(*args, **kwargs)
        pairs.append((args + tuple(sorted(kwargs.items())), out))
        return out

    rebind(orig, counted)
    return pairs


def _by_type_total(out) -> int:
    return sum(monomials_all(p) for p in out.values())


# Extra counters, computed from each traced call's arguments and result.
COUNTS = {
    "symfunc.SymPoly.__mul__": lambda args, out: {
        "operand_terms": sum(len(getattr(a, "coeffs", (1,))) for a in args)},
    "tlalgebra.imm_tl": lambda args, out: {
        "perms_visited": math.factorial(args[0].n)},
    "klbase.kl_polynomials": lambda args, out: {"table_size": len(out.polys)},
    "network.covers_by_type": lambda args, out: {
        "covers_all": _by_type_total(out)},
    "shuffle.tableaux_by_type": lambda args, out: {
        "fillings_all": _by_type_total(out)},
}
