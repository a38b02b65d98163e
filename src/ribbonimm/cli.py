"""Command-line front end: decompose, matrix, imm, sweep, remarks, kl-table.

All commands emit canonical JSON (sorted keys) with --json, or a short
text summary otherwise; --out writes to a file instead of stdout.  Exit
codes: 0 when the computation succeeds and any checked identity holds,
1 when a checked property fails (a certificate is included in the
output), 2 on invalid input.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from multiprocessing import Pool

from . import klbase, network, ribbonmat, shuffle, tlalgebra
from .corpus import sweep_corpus
from .errors import (BudgetExceeded, RibbonError, budget, charge_determinant,
                     charge_permutations)
from .shapes import InfiniteRibbon, SkewShape, decompose, odd_even_shapes
from .symfunc import (SchurExpansion, ShapeMatrix, SymPoly, determinant,
                      expand_schur, weighted_sums)


class InputError(Exception):
    pass


def _not_an_integer(text):
    raise ValueError(f"{text} is not an integer")


def _load_json(path):
    """Parse a JSON file in which every number is an integer."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_not_an_integer,
                             parse_float=_not_an_integer)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _decomposition(args):
    """Read args.shape and args.ribbon and cut the shape along the ribbon."""
    parsed = []
    for kind, path, cls in (("shape", args.shape, SkewShape),
                            ("ribbon", args.ribbon, InfiniteRibbon)):
        try:
            parsed.append(cls.from_json(_load_json(path)))
        except (RibbonError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad {kind} file {path}: {exc}") from exc
    try:
        return decompose(*parsed)
    except RibbonError as exc:
        raise InputError(str(exc)) from exc


def _int_arg(text, low=1) -> int:
    """A decimal integer of at least low (positive by default)."""
    if not text.isdecimal() or int(text) < low:
        kind = "positive" if low else "non-negative"
        raise argparse.ArgumentTypeError(f"{text!r} is not a {kind} integer")
    return int(text)


def _nvars_arg(text):
    """--nvars: a positive integer, or 'auto' for the cell count."""
    return text if text == "auto" else _int_arg(text)


def _resolve_nvars(arg, dec):
    return max(dec.shape.size, 1) if arg == "auto" else arg


def _parse_perm(text) -> tuple:
    text = text.replace(",", "")
    if not text.isdecimal():
        raise InputError(f"bad permutation {text!r}")
    w = tuple(int(ch) for ch in text)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise InputError(f"{text!r} is not a permutation")
    return w


def _emit(obj, args, text_lines=None) -> None:
    if args.json or text_lines is None:
        payload = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    else:
        payload = "\n".join(text_lines) + "\n"
    _write(args, [payload])


def _write(args, chunks) -> None:
    """Write the strings of chunks, as they come, to --out or stdout."""
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.writelines(chunks)


# ------------------------------------------------------------------ commands

def cmd_decompose(args) -> int:
    dec = _decomposition(args)
    obj = dec.to_json()
    _emit(obj, args, [f"a = {list(dec.abar)}", f"b = {list(dec.bbar)}",
                      f"copies = {list(dec.copies)}"])
    return 0


def cmd_matrix(args) -> int:
    dec = _decomposition(args)
    N = _resolve_nvars(args.nvars, dec)
    rm = ribbonmat.RibbonMatrix(dec, N, ribbonmat.section_matrix(dec, N))
    if args.minor:
        try:
            I = sorted({int(x) for x in args.minor.split(",")})
            rm = ribbonmat.principal_minor(rm, I)
        except ValueError as exc:
            raise InputError(f"bad --minor {args.minor!r}: {exc}") from exc
        dec = rm.decomposition
    A = rm.matrix
    det = determinant(A)
    ok = ribbonmat.check_determinant(rm, det)
    obj = {
        "a": list(dec.abar),
        "b": list(dec.bbar),
        "nvars": N,
        "entries": [[str(A[i, j]) for j in range(1, A.n + 1)]
                    for i in range(1, A.n + 1)],
        "det_schur": str(det),
        "det_equals_skew_schur": ok,
    }
    _emit(obj, args, [f"det = {obj['det_schur']}",
                      f"identity holds: {ok}"])
    return 0 if ok else 1


def cmd_imm(args) -> int:
    if args.method == "kl" and not (args.perm or args.type):
        raise InputError("--perm or --type is required for --method kl")
    if args.method != "kl" and not args.type:
        raise InputError(f"--type is required for --method {args.method}")
    dec = _decomposition(args)
    N = _resolve_nvars(args.nvars, dec)
    obj = {"method": args.method, "nvars": N}
    if args.method == "kl":
        w = _parse_perm(args.perm or args.type)
        if len(w) != dec.ell:
            raise InputError("permutation size != number of sections")
        exp = klbase.imm_kl(w, ribbonmat.section_matrix(dec, N))
        obj["perm"] = list(w)
        label = f"kl {''.join(map(str, w))}"
    else:
        u = _parse_perm(args.type)
        if len(u) != dec.ell:
            raise InputError("type size != number of sections")
        if not tlalgebra.is_321_avoiding(u):
            raise InputError(f"type {u} is not 321-avoiding")
        tau = tlalgebra.perm_to_matching(u)
        if args.method == "def":
            exp = tlalgebra.imm_tl(tau, ribbonmat.section_matrix(dec, N))
        elif args.method == "shuffle":
            exp = expand_schur(shuffle.tableaux_by_type(dec, N).get(
                tau, SymPoly(N)))
        elif args.method == "covers":
            exp = expand_schur(network.covers_by_type(dec, N).get(
                tau, SymPoly(N)))
        else:  # crystal: the sources give the expansion itself
            exp = shuffle.schur_expand_by_crystal(dec, N).get(
                tau, SchurExpansion(N))
        obj["type"] = str(tau)
        label = f"{args.method} {str(tau)}"
    obj["expansion"] = exp.to_json()
    _emit(obj, args, [f"Imm[{label}] = {exp}"])
    return 0


def _sweep_one(packed):
    dec, theorem, nvars = packed
    N = _resolve_nvars(nvars, dec)
    item = {"a": list(dec.abar), "b": list(dec.bbar),
            "ribbon": dec.ribbon.to_json(), "nvars": N}
    try:
        if theorem == "det":
            item["ok"] = ribbonmat.check_determinant(ribbonmat.RibbonMatrix(
                dec, N, ribbonmat.section_matrix(dec, N)))
        elif theorem == "1.1":
            report = ribbonmat.theorem1_harness(dec, N)
            item["ok"] = report["overall_positive"]
            if not item["ok"]:
                item["certificate"] = [t for t in report["immanants"]
                                       if not t["schur_positive"]]
        elif theorem == "conj1.2":
            report = klbase.conjecture12_harness(dec, N)
            item["ok"] = report["all_positive"]
            if not item["ok"]:
                item["certificate"] = report["certificates"]
        else:  # cor3.5
            A = ribbonmat.section_matrix(dec, N)
            total = weighted_sums(
                ((None, 1, p) for p in tlalgebra.imm_tl_all(A).values()),
                N, SchurExpansion).get(None, SchurExpansion(N))
            red, blue = odd_even_shapes(dec.ribbon, dec.abar, dec.bbar)
            lr = A.products
            item["ok"] = total == lr.times(lr.times(A.one(), red), blue)
    except BudgetExceeded as exc:
        exc.args = (f"instance a={item['a']} b={item['b']} ribbon="
                    f"{json.dumps(item['ribbon'], sort_keys=True)}: {exc}",)
        raise
    return item


def cmd_sweep(args) -> int:
    # refused by the size of the --max-ell table before the corpus is
    # built; the table itself is built, and shared by forked workers, for
    # the most sections an instance of at most --max-cells cells has
    ell = min(args.max_ell, args.max_cells)
    if args.theorem == "det":
        charge_determinant(args.max_ell)
    elif args.theorem == "conj1.2":
        charge_permutations(f"_weyl(n={args.max_ell})", args.max_ell,
                            args.max_ell, "permutations and right actions")
        klbase.kl_polynomials(ell)
    else:
        charge_permutations(f"_tl_table(n={args.max_ell})", args.max_ell, 1,
                            "permutations")
        tlalgebra._tl_table(ell)
    decs = sweep_corpus(args.max_cells, args.max_window,
                        args.max_ell, args.per_bucket)
    if args.limit is not None:
        decs = decs[: args.limit]
    jobs = [(d, args.theorem, args.nvars) for d in decs]
    # a worker beyond the instances or the CPUs would only wait
    processes = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if processes > 1:
        with Pool(processes) as pool:
            items = pool.map(_sweep_one, jobs)
    else:
        items = [_sweep_one(j) for j in jobs]
    bad = [it for it in items if not it["ok"]]
    obj = {"theorem": args.theorem, "count": len(items), "failures": len(bad),
           "items": items if args.full_report else bad}
    _emit(obj, args, [f"theorem {args.theorem}: {len(items)} instances, "
                      f"{len(bad)} failures"])
    return 1 if bad else 0


def cmd_remarks(args) -> int:
    N1 = 5 if args.nvars == "auto" else args.nvars
    A, Abad = (ShapeMatrix(M.n, M.nvars, M.shapes) for M in
               ribbonmat.remark_matrices(N_first=N1, N_second=N1))
    tau = tlalgebra.perm_to_matching((2, 1, 4, 3))
    exp1 = tlalgebra.imm_tl(tau, A)
    rows, cols = ribbonmat.remark_bad_minor_indices()
    exp2 = tlalgebra.minor(Abad, rows, cols)
    comp_rows = tuple(sorted(set(range(1, 5)) - set(rows)))
    comp_cols = tuple(sorted(set(range(1, 5)) - set(cols)))
    exp3 = exp2 * tlalgebra.minor(Abad, comp_rows, comp_cols)
    ok = (not exp1.schur_positive) and (not exp2.schur_positive) \
        and exp3.schur_positive
    obj = {
        "nvars": N1,
        "first_immanant": exp1.to_json(),
        "bad_minor": exp2.to_json(),
        "bad_minor_rows": list(rows),
        "bad_minor_cols": list(cols),
        "complementary_product": exp3.to_json(),
        "negatives_found": ok,
    }
    _emit(obj, args, [
        f"Imm at 2143: negative terms {exp1.negative_part()}",
        f"minor {rows}x{cols}: negative terms {exp2.negative_part()}",
        f"complementary product Schur-nonnegative: {exp3.schur_positive}",
    ])
    return 0 if ok else 1


def cmd_kl_table(args) -> int:
    """Stream the dump a line at a time: the text lines, or the elements
    of the "table" array of {"n": n, "table": lines}, quoted and laid out
    as json.dumps(..., sort_keys=True, indent=2) does (a table has at
    least one line)."""
    lines = klbase.kl_polynomials(args.n).dump()
    if args.json:
        quoted = map(encode_basestring_ascii, lines)
        chunks = itertools.chain(
            [f'{{\n  "n": {args.n},\n  "table": [\n    {next(quoted)}'],
            (f",\n    {q}" for q in quoted), ["\n  ]\n}\n"])
    else:
        chunks = (line + "\n" for line in lines)
    _write(args, chunks)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="ribbonimm")
    ap.add_argument("--json", action="store_true",
                    help="emit canonical JSON")
    ap.add_argument("--out", help="write output to FILE")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=lambda **kw: argparse.ArgumentParser(
                                parents=[common], **kw))

    p = sub.add_parser("decompose")
    p.add_argument("shape")
    p.add_argument("ribbon")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("matrix")
    p.add_argument("shape")
    p.add_argument("ribbon")
    p.add_argument("--nvars", default="auto", type=_nvars_arg)
    p.add_argument("--minor", help="comma-separated 1-based index set")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("imm")
    p.add_argument("shape")
    p.add_argument("ribbon")
    p.add_argument("--nvars", default="auto", type=_nvars_arg)
    p.add_argument("--type", help="321-avoiding permutation, e.g. 2143")
    p.add_argument("--perm", help="permutation for --method kl")
    p.add_argument("--method", default="def",
                   choices=["def", "shuffle", "covers", "crystal", "kl"])
    p.set_defaults(func=cmd_imm)

    p = sub.add_parser("sweep")
    p.add_argument("--max-cells", type=_int_arg, default=8)
    p.add_argument("--max-window", type=functools.partial(_int_arg, low=0),
                   default=5)
    p.add_argument("--max-ell", type=_int_arg, default=4)
    p.add_argument("--per-bucket", type=_int_arg, default=16)
    p.add_argument("--limit", type=_int_arg)
    p.add_argument("--jobs", type=_int_arg, default=1)
    p.add_argument("--nvars", default="4", type=_nvars_arg)
    p.add_argument("--full-report", action="store_true")
    p.add_argument("--theorem", default="det",
                   choices=["det", "1.1", "conj1.2", "cor3.5"])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("remarks")
    p.add_argument("--nvars", default="auto", type=_nvars_arg)
    p.set_defaults(func=cmd_remarks)

    p = sub.add_parser("kl-table")
    p.add_argument("n", type=_int_arg)
    p.set_defaults(func=cmd_kl_table)

    args = ap.parse_args(argv)
    try:
        budget()  # a malformed RIL_BUDGET is bad input to every command
        return args.func(args)
    except (InputError, RibbonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
