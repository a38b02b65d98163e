import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ribbonimm
from ribbonimm import cli, klbase, symfunc, tlalgebra
from ribbonimm.shapes import InfiniteRibbon, SkewShape
from ribbonimm.symfunc import SymPoly


@pytest.fixture()
def hook_files(tmp_path, hook_dec):
    shape = tmp_path / "shape.json"
    ribbon = tmp_path / "ribbon.json"
    shape.write_text(json.dumps(hook_dec.shape.to_json()))
    ribbon.write_text(json.dumps(hook_dec.ribbon.to_json()))
    return str(shape), str(ribbon)


@pytest.fixture()
def small_files(tmp_path):
    ribbon = InfiniteRibbon(tail_lo="L", tail_hi="L")
    shape = SkewShape((3, 3, 1), (1, 0, 0))
    sp = tmp_path / "shape.json"
    rp = tmp_path / "ribbon.json"
    sp.write_text(json.dumps(shape.to_json()))
    rp.write_text(json.dumps(ribbon.to_json()))
    return str(sp), str(rp)


def test_decompose_pin(hook_files, capsys):
    code = cli.main(["decompose", *hook_files])
    out = capsys.readouterr().out
    assert code == 0
    assert "a = [0, -4, -3, 3]" in out
    assert "b = [3, 5, 9, 6]" in out


def test_decompose_json(hook_files, capsys):
    code = cli.main(["--json", "decompose", *hook_files])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["a"] == [0, -4, -3, 3]


def test_decompose_incompatible_exits_2(tmp_path, capsys):
    sp = tmp_path / "shape.json"
    rp = tmp_path / "ribbon.json"
    sp.write_text(json.dumps(SkewShape((2, 1)).to_json()))
    rp.write_text(json.dumps(InfiniteRibbon(
        0, ("B", "L", "B"), tail_lo="L", tail_hi="L").to_json()))
    assert cli.main(["decompose", str(sp), str(rp)]) == 2


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    found = re.search(r'^version = "([^"]+)"', text, re.MULTILINE)
    assert found and found.group(1) == ribbonimm.__version__


def test_bad_input_exits_2(tmp_path, hook_files, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["decompose", missing, hook_files[1]]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["decompose", str(bad), hook_files[1]]) == 2
    # numbers that are not integers: NaN, infinities, fractions, exponents
    shape, ribbon = hook_files
    ribbon_json = json.loads(Path(ribbon).read_text())
    for name, text in [
            ("shape", '{"outer": [Infinity]}'),
            ("shape", '{"outer": [-Infinity, 1]}'),
            ("shape", '{"outer": [NaN]}'),
            ("shape", '{"outer": [2.9, 1]}'),
            ("shape", '{"outer": [2, 1], "inner": [1e0]}'),
            ("ribbon", json.dumps({**ribbon_json, "window_lo": 0.5})),
            ("ribbon", json.dumps({**ribbon_json, "window_lo": float("inf")})),
            # JSON numbers must be JSON integers, and steps a list
            ("shape", '{"outer": ["3", "2"], "inner": ["1"]}'),
            ("shape", '{"outer": [true, 1]}'),
            ("ribbon", json.dumps({**ribbon_json, "window_lo": "0"})),
            ("ribbon", json.dumps({**ribbon_json, "window_lo": True})),
            ("ribbon", json.dumps({**ribbon_json, "steps": "LB"})),
            ("ribbon", json.dumps([ribbon_json])),
            # nested past the recursion limit
            ("shape", "[" * 100000 + "]" * 100000)]:
        bad.write_text(text)
        argv = [str(bad), ribbon] if name == "shape" else [shape, str(bad)]
        assert cli.main(["decompose", *argv]) == 2, text[:40]
        assert "Traceback" not in capsys.readouterr().err
    # an --out that cannot be written: a directory, a missing directory
    for out in [tmp_path, tmp_path / "missing" / "x.json"]:
        assert cli.main(["--out", str(out), "kl-table", "2"]) == 2, out
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["matrix", "SHAPE", "RIBBON", "--nvars", "abc"],
    ["matrix", "SHAPE", "RIBBON", "--minor", "0"],
    ["matrix", "SHAPE", "RIBBON", "--minor", "1,x"],
    ["imm", "SHAPE", "RIBBON", "--nvars", "0", "--type", "123"],
    ["remarks", "--nvars", "abc"],
    ["remarks", "--nvars", "0"],
    ["sweep", "--nvars", "-1"],
    ["kl-table", "-1"],
    ["kl-table", "9"],
    ["sweep", "--max-cells", "8", "--max-window", "5", "--max-ell", "8",
     "--per-bucket", "1", "--theorem", "cor3.5", "--nvars", "1"],
    ["sweep", "--max-cells", "8", "--max-window", "5", "--max-ell", "8",
     "--per-bucket", "1", "--theorem", "conj1.2", "--nvars", "1"],
    ["sweep", "--max-ell", "-3"],
    ["sweep", "--max-ell", "0"],
    ["sweep", "--max-cells", "0"],
    ["sweep", "--max-window", "-1"],
    ["sweep", "--per-bucket", "0"],
    ["sweep", "--limit", "0"],
    ["sweep", "--limit", "-1"],
    ["sweep", "--jobs", "0"],
    ["sweep", "--max-cells", "x"],
    ["imm", "SHAPE", "RIBBON", "--type", "²"],   # a digit, not a decimal
])
def test_bad_arguments_exit_2(argv, small_files, capsys):
    argv = [{"SHAPE": small_files[0], "RIBBON": small_files[1]}.get(a, a)
            for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:   # argparse rejects the value
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_corpus_search_over_budget_exits_2(monkeypatch, capsys):
    # bucket (1, 40) needs about 2^35 ribbons: refused by its search nodes
    monkeypatch.setenv("RIL_BUDGET", "1000")
    code = cli.main(["sweep", "--max-window", "40", "--max-cells", "40",
                     "--max-ell", "1", "--per-bucket", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: sweep_corpus(max_cells=40, max_window=40, "
                   "max_ell=1, per_bucket=1): 1001 search nodes exceed "
                   "RIL_BUDGET=1000\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_refusal_names_its_instance(jobs, monkeypatch, capsys):
    # at N = cells the default corpus's largest instance needs 17,007 LR
    # partial fillings; building the corpus takes 3,895 search nodes
    monkeypatch.setenv("RIL_BUDGET", "10000")
    code = cli.main(["sweep", "--theorem", "1.1", "--nvars", "auto",
                     "--jobs", jobs])
    err = capsys.readouterr().err
    assert code == 2
    assert re.match(r'error: instance a=\[[-, 0-9]+\] b=\[[-, 0-9]+\] '
                    r'ribbon=\{"steps": \[.*\], "tail_hi": "[BL]", '
                    r'"tail_lo": "[BL]", "window_lo": 0\}: LRProducts of '
                    r'SkewShape\(.*\) on s\[.*\] in \d+ variables: 10001 '
                    r'partial fillings exceed RIL_BUDGET=10000\n$', err)
    assert "Traceback" not in err


@pytest.mark.parametrize("method, needed", [
    ("def", "--type"), ("shuffle", "--type"), ("covers", "--type"),
    ("crystal", "--type"), ("kl", "--perm or --type")])
def test_imm_names_the_missing_option(method, needed, small_files, capsys):
    code = cli.main(["imm", *small_files, "--method", method])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {needed} is required for --method {method}" in err
    assert "Traceback" not in err


def test_matrix_identity(small_files, capsys):
    code = cli.main(["--json", "matrix", *small_files, "--nvars", "3"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["det_equals_skew_schur"]


def test_matrix_minor(hook_files, capsys):
    code = cli.main(["--json", "matrix", *hook_files, "--nvars", "2",
                     "--minor", "1,3,4"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["a"] == [0, -3, 3]
    assert blob["det_equals_skew_schur"]


@pytest.mark.parametrize("budget, nvars, seconds", [
    ("2000", ["--nvars", "6"], 5), (None, [], 10)])
def test_matrix_determinant_is_budgeted(hook_files, budget, nvars, seconds,
                                        monkeypatch, capsys):
    # every product of the hook's 4 x 4 determinant is charged as the LR
    # partial fillings it visits: at a lowered budget and N = 6, and at
    # the default budget and --nvars auto (N = 27)
    if budget is None:
        monkeypatch.delenv("RIL_BUDGET", raising=False)
    else:
        monkeypatch.setenv("RIL_BUDGET", budget)
    start = time.monotonic()
    code = cli.main(["matrix", *hook_files, *nvars])
    err = capsys.readouterr().err
    assert code == 2
    assert time.monotonic() - start < seconds
    cap = int(budget or 2000000)
    assert re.match(r"error: LRProducts of SkewShape\(.*\) on s\[.*\] in "
                    rf"{nvars[1] if nvars else 27} variables: {cap + 1} "
                    rf"partial fillings exceed RIL_BUDGET={cap}\n$", err)
    assert "Traceback" not in err


def test_imm_methods_agree(small_files, capsys):
    expansions = []
    for method in ("def", "shuffle", "covers", "crystal"):
        code = cli.main(["--json", "imm", *small_files, "--nvars", "3",
                         "--type", "213", "--method", method])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        expansions.append(blob["expansion"])
    assert all(e == expansions[0] for e in expansions)


def test_imm_rejects_non_avoiding(small_files):
    assert cli.main(["imm", *small_files, "--type", "321"]) == 2


def test_imm_kl(small_files, capsys):
    code = cli.main(["--json", "imm", *small_files, "--method", "kl",
                     "--perm", "123", "--nvars", "2"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["expansion"]["schur_positive"]


def test_sweep_serial_equals_parallel(capsys):
    args = ["--json", "sweep", "--max-cells", "4", "--max-window", "2",
            "--max-ell", "2", "--per-bucket", "2", "--theorem", "det",
            "--nvars", "3", "--full-report"]
    assert cli.main(args) == 0
    serial = capsys.readouterr().out
    assert cli.main(args + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel
    blob = json.loads(serial)
    assert blob["failures"] == 0 and blob["count"] > 0


def test_sweep_all_theorems(capsys):
    for theorem in ("1.1", "cor3.5", "conj1.2"):
        code = cli.main(["sweep", "--max-cells", "3", "--max-window", "1",
                         "--per-bucket", "1", "--theorem", theorem,
                         "--nvars", "3"])
        assert code == 0


def test_remarks(capsys):
    assert cli.main(["--json", "remarks", "--nvars", "4"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["negatives_found"]
    assert not blob["first_immanant"]["schur_positive"]
    assert not blob["bad_minor"]["schur_positive"]
    assert blob["complementary_product"]["schur_positive"]


@pytest.mark.parametrize("nvars, digest", [
    ("5", "f705ebc364dd1acee1879518d0a8f622f166b10b58488758268c9b0b7b85f221"),
    ("13", "277ab274fd4fdb4e75bf74255ce2f058d9e86bcbc293713f27d47a0d1f15ee82"),
])
def test_remarks_json_is_pinned(capsys, nvars, digest):
    # the output of the monomial-basis computation, byte for byte
    assert cli.main(["--json", "remarks", "--nvars", nvars]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_remarks_forms_no_monomial_product(monkeypatch, capsys):
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SymPoly, "__mul__",
                        spy("SymPoly.__mul__", SymPoly.__mul__))
    monkeypatch.setattr(SymPoly, "from_schur", classmethod(
        spy("SymPoly.from_schur", SymPoly.from_schur.__func__)))
    for module in (symfunc, cli):
        monkeypatch.setattr(module, "expand_schur",
                            spy("expand_schur", symfunc.expand_schur))
    assert cli.main(["remarks", "--nvars", "5"]) == 0
    assert capsys.readouterr().out
    assert calls == []


def test_kl_table(capsys):
    assert cli.main(["kl-table", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["12 12 : 1", "12 21 : 1", "21 21 : 1"]
    assert cli.main(["kl-table", "9"]) == 2


def test_kl_table_streams_the_whole_payload(tmp_path, capsys):
    # the streamed dump is byte for byte the whole payload: the joined
    # text lines, or json.dumps of {"n", "table"}
    out = tmp_path / "table"
    for n in range(1, 7):
        lines = list(klbase.kl_polynomials(n).dump())
        payloads = {
            (): "\n".join(lines) + "\n",
            ("--json",): json.dumps({"n": n, "table": lines}, sort_keys=True,
                                    indent=2) + "\n"}
        for flags, payload in payloads.items():
            assert cli.main([*flags, "kl-table", str(n)]) == 0
            assert capsys.readouterr().out == payload
            assert cli.main([*flags, "--out", str(out), "kl-table",
                             str(n)]) == 0
            assert out.read_bytes() == payload.encode()
    assert cli.main(["--out", str(tmp_path), "kl-table", "2"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {tmp_path}: ")


def test_out_file_byte_determinism(tmp_path, small_files):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        assert cli.main(["--json", "matrix", *small_files, "--nvars", "2",
                         "--out", str(p)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("method", ["shuffle", "crystal", "covers", "def",
                                    "kl"])
def test_imm_over_budget_exits_2(hook_files, method, monkeypatch, capsys):
    # --nvars auto gives the hook 27 variables: about 4.7e29 fillings (and
    # as many covers), refused from their count before any is built; the
    # definition and the KL immanant are refused by their LR filling
    # search as it passes the budget, after a few seconds
    lr = (r"LRProducts of SkewShape\(.*\) on s\[.*\] in 27 variables: "
          r"2000001 partial fillings exceed RIL_BUDGET=2000000\n$")
    counted = (r"\d+ red times \d+ blue in 27 variables: \d+ {} exceed "
               r"RIL_BUDGET=2000000\n$")
    refusal = {"shuffle": counted.format("fillings"),
               "crystal": counted.format("fillings"),
               "covers": counted.format("covers"), "def": lr, "kl": lr}
    monkeypatch.delenv("RIL_BUDGET", raising=False)
    code = cli.main(["imm", *hook_files, "--method", method,
                     "--type", "2143"])
    err = capsys.readouterr().err
    assert code == 2
    assert re.match("error: " + refusal[method], err)
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5", ""])
def test_malformed_budget_exits_2(value, monkeypatch, capsys):
    monkeypatch.setenv("RIL_BUDGET", value)
    code = cli.main(["kl-table", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: RIL_BUDGET={value!r} is not a positive integer" in err
    assert "Traceback" not in err


ROW = {"window_lo": 0, "steps": [], "tail_lo": "L", "tail_hi": "L"}
COLUMN = {"window_lo": 0, "steps": [], "tail_lo": "B", "tail_hi": "B"}


@pytest.mark.parametrize("shape, ribbon, argv, code, err", [
    # one cell at content 500: its box is counted, not recursed to
    ({"outer": [501], "inner": [500]}, ROW, ["decompose"], 0, ""),
    # the cells are charged before decompose lists them
    ({"outer": [99999999999]}, ROW, ["matrix"], 2,
     "error: decompose: 99999999999 cells exceed RIL_BUDGET=2000000\n"),
    # a 500-row column: the Kostka and strip walks loop, not recurse, and
    # its 1 x 1 determinant is the entry itself (exit 0: det = s_lambda)
    ({"outer": [1] * 500}, COLUMN, ["matrix"], 0, ""),
    # a partition weight of one cell uses one variable of the million
    *[({"outer": [1]}, ROW, ["imm", "--nvars", "1000000", "--type", "1",
                              "--method", method], 0, "")
      for method in ("shuffle", "covers", "crystal")],
    # a 30-row column has one filling and one path in 30 variables, and
    # the listings enter no partial filling or vertex that cannot complete
    *[({"outer": [1] * 30}, COLUMN, ["imm", "--type", "1", "--method",
                                     method], 0, "")
      for method in ("shuffle", "covers", "crystal")],
    # a 500-row column has one column, so its SSYT are counted from a
    # 1 x 1 Jacobi-Trudi matrix of e's before they are listed
    *[({"outer": [1] * 500}, COLUMN, ["imm", "--type", "1", "--method",
                                      method], 0, "")
      for method in ("shuffle", "covers", "crystal")],
    # ... and its LR filling search is a loop over one value per cell
    ({"outer": [1] * 500}, COLUMN, ["imm", "--type", "1", "--method", "def"],
     0, ""),
    ({"outer": [1] * 500}, COLUMN, ["imm", "--method", "kl", "--perm", "1"],
     0, ""),
    # the path and cover-family walks are loops: a path crossing 1,500
    # contents, and one climbing 1,500 heights in 1,500 variables
    ({"outer": [1500]}, ROW, ["imm", "--nvars", "1", "--type", "1",
                              "--method", "covers"], 0, ""),
    ({"outer": [1] * 1500}, COLUMN, ["imm", "--type", "1", "--method",
                                     "covers"], 0, ""),
], ids=["content-500", "1e11-cells", "500-rows", "shuffle-1e6-vars",
        "covers-1e6-vars", "crystal-1e6-vars", "shuffle-30-rows",
        "covers-30-rows", "crystal-30-rows", "shuffle-500-rows",
        "covers-500-rows", "crystal-500-rows", "def-500-rows",
        "kl-500-rows", "covers-1500-cells", "covers-1500-rows"])
def test_far_large_and_deep_inputs(shape, ribbon, argv, code, err, tmp_path,
                                   monkeypatch, capsys):
    monkeypatch.delenv("RIL_BUDGET", raising=False)
    files = []
    for name, obj in (("shape.json", shape), ("ribbon.json", ribbon)):
        files.append(tmp_path / name)
        files[-1].write_text(json.dumps(obj))
    assert cli.main([argv[0], *map(str, files), *argv[1:]]) == code
    out, got = capsys.readouterr()
    assert got.startswith(err)
    if "covers" in argv:  # the covers print what the definition prints
        argv = [a if a != "covers" else "def" for a in argv]
        assert cli.main([argv[0], *map(str, files), *argv[1:]]) == 0
        assert capsys.readouterr().out == out.replace("covers", "def")


def test_sweep_buckets_are_charged_before_they_are_made(monkeypatch, capsys):
    monkeypatch.delenv("RIL_BUDGET", raising=False)
    code = cli.main(["sweep", "--max-cells", "99999999999", "--max-ell", "1",
                     "--per-bucket", "1", "--max-window", "0"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: sweep_corpus(max_cells=99999999999, max_window=0, max_ell=1, "
        "per_bucket=1): 99999999999 buckets exceed RIL_BUDGET=2000000\n")


class _SerialPool:
    """Stands in for multiprocessing.Pool, recording the worker count."""

    started = []

    def __init__(self, processes):
        self.started.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return list(map(fn, jobs))


def test_sweep_starts_no_more_workers_than_cpus_or_instances(monkeypatch,
                                                             capsys):
    monkeypatch.setattr(cli, "Pool", _SerialPool)
    monkeypatch.setattr(_SerialPool, "started", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    args = ["sweep", "--max-cells", "3", "--max-window", "1",
            "--per-bucket", "1", "--nvars", "3"]
    assert cli.main(args + ["--jobs", "99999999999"]) == 0
    assert cli.main(args + ["--jobs", "4", "--limit", "1"]) == 0
    assert _SerialPool.started == [2]


@pytest.fixture()
def column_files(tmp_path):
    # 7- and 8-cell columns cut by the all-row ribbon: one-cell sections
    ribbon = tmp_path / "ribbon.json"
    ribbon.write_text(json.dumps(
        InfiniteRibbon(tail_lo="L", tail_hi="L").to_json()))
    files = {"RIBBON": str(ribbon)}
    for n in (7, 8):
        files[f"COLUMN{n}"] = str(tmp_path / f"column{n}.json")
        Path(files[f"COLUMN{n}"]).write_text(
            json.dumps(SkewShape((1,) * n).to_json()))
    return files


def test_imm_takes_seven_sections(column_files, monkeypatch, capsys):
    # the S_7 TL table (943,584 entries) fits the default budget; the
    # shuffle, crystal and covers models give the same s_{1^7}
    monkeypatch.delenv("RIL_BUDGET", raising=False)
    code = cli.main(["--json", "imm", column_files["COLUMN7"],
                     column_files["RIBBON"], "--type", "1234567"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["expansion"]["terms"] == [{"coeff": "1",
                                           "partition": [1] * 7}]


# the S_8 TL table would first store two million entries at the default
# budget, so its rows are pinned at a lowered one
TL8 = "_tl_table(n=8): 100014 entries exceed RIL_BUDGET=100000"
KL7 = "kl_polynomials(n=7): 2000277 Bruhat pairs exceed RIL_BUDGET=2000000"


@pytest.mark.parametrize("argv, message", [
    (["imm", "COLUMN8", "RIBBON", "--type", "12345678"], TL8),
    (["imm", "COLUMN7", "RIBBON", "--method", "kl", "--perm", "7654321"],
     KL7),
    (["kl-table", "7"], KL7),
    (["sweep", "--theorem", "1.1", "--max-ell", "8"], TL8),
    (["sweep", "--theorem", "cor3.5", "--max-ell", "8"], TL8),
    (["sweep", "--theorem", "conj1.2", "--max-ell", "7"], KL7),
    (["sweep", "--theorem", "1.1", "--max-ell", "1000000000", "--max-cells",
      "1000000000"],
     "_tl_table(n=1000000000): more than 2^999999999 permutations exceed "
     "RIL_BUDGET=2000000"),
    (["sweep", "--theorem", "det", "--max-ell", "21", "--max-cells", "21"],
     "determinant(n=21): 2^21 column subsets exceed RIL_BUDGET=2000000"),
    (["sweep", "--theorem", "det", "--max-ell", "1000000000", "--max-cells",
      "1000000000"],
     "determinant(n=1000000000): 2^1000000000 column subsets exceed "
     "RIL_BUDGET=2000000"),
    (["kl-table", "8"],
     "kl_polynomials(n=8): 400065 Bruhat pairs exceed RIL_BUDGET=400000"),
    (["kl-table", "9"], "_weyl(n=9): 3265920 permutations and right actions "
     "exceed RIL_BUDGET=2000000"),
    (["sweep", "--theorem", "conj1.2", "--max-ell", "1000000000",
      "--max-cells", "1000000000"],
     "_weyl(n=1000000000): more than 2^999999999 permutations exceed "
     "RIL_BUDGET=2000000"),
], ids=[
    # fixed names, kept from when they were made from the messages, so
    # that re-pinning a message does not rename its row
    "argv0-_tl_table(n=8): 100014 entries exceed RIL_BUDGET=100000",
    "argv1-_weyl(n=7): 2000277 Bruhat pairs exceed RIL_BUDGET=2000000",
    "argv2-_weyl(n=7): 2000277 Bruhat pairs exceed RIL_BUDGET=2000000",
    "argv3-_tl_table(n=8): 100014 entries exceed RIL_BUDGET=100000",
    "argv4-_tl_table(n=8): 100014 entries exceed RIL_BUDGET=100000",
    "argv5-_weyl(n=7): 2000277 Bruhat pairs exceed RIL_BUDGET=2000000",
    "argv6-_tl_table(n=1000000000): more than 2^999999999 permutations "
    "exceed RIL_BUDGET=2000000",
    "argv7-determinant(n=21): 2^21 column subsets exceed RIL_BUDGET=2000000",
    "argv8-determinant(n=1000000000): 2^1000000000 column subsets exceed "
    "RIL_BUDGET=2000000",
    "argv9-_weyl(n=8): 400065 Bruhat pairs exceed RIL_BUDGET=400000",
    "argv10-_weyl(n=9): 3265920 permutations and right actions exceed "
    "RIL_BUDGET=2000000",
    "argv11-_weyl(n=1000000000): more than 2^999999999 permutations exceed "
    "RIL_BUDGET=2000000",
])
def test_seven_sections_refused_by_table_size(argv, message, column_files,
                                              monkeypatch, capsys):
    # each row runs at the budget its message names, the default unset
    limit = message.rpartition("RIL_BUDGET=")[2]
    if limit == "2000000":
        monkeypatch.delenv("RIL_BUDGET", raising=False)
    else:
        monkeypatch.setenv("RIL_BUDGET", limit)

    def refuse(*args):
        raise AssertionError("corpus built before the table was charged")

    monkeypatch.setattr(cli, "sweep_corpus", refuse)
    argv = [column_files.get(a, a) for a in argv]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("theorem, module, table, max_ell, cells", [
    ("1.1", tlalgebra, "_tl_table", 7, 3),
    ("cor3.5", tlalgebra, "_tl_table", 7, 3),
    ("conj1.2", klbase, "_weyl", 7, 3),
    ("1.1", tlalgebra, "_tl_table", 10, 6),
    ("det", cli, "charge_determinant", 21, 3),
    ("conj1.2", klbase, "_weyl", 9, 5),
], ids=[
    # the first three keep the names they had before max_ell and cells
    # were parameters
    "1.1-ribbonimm.tlalgebra-_tl_table",
    "cor3.5-ribbonimm.tlalgebra-_tl_table",
    "conj1.2-ribbonimm.klbase-_weyl",
    "1.1-ell10-cells6", "det-ell21-cells3", "conj1.2-ell9-cells5",
])
def test_sweep_builds_tables_for_the_sections_cells_allow(
        theorem, module, table, max_ell, cells, monkeypatch, capsys):
    # an instance of at most `cells` cells has at most that many sections,
    # so a larger --max-ell neither builds nor charges a table over more:
    # S_10, S_9 and a 21 x 21 determinant would each exceed the default
    # budget
    monkeypatch.delenv("RIL_BUDGET", raising=False)
    built = []
    orig = getattr(module, table)

    def record(n):
        built.append(n)
        return orig(n)

    monkeypatch.setattr(module, table, record)
    code = cli.main(["--json", "sweep", "--theorem", theorem, "--max-ell",
                     str(max_ell), "--max-cells", str(cells),
                     "--full-report"])
    out = capsys.readouterr().out
    assert code == 0
    assert max(built) == cells
    # the same report as the one --max-ell equal to --max-cells gives
    assert cli.main(["--json", "sweep", "--theorem", theorem, "--max-ell",
                     str(cells), "--max-cells", str(cells),
                     "--full-report"]) == 0
    assert capsys.readouterr().out == out


def test_conj12_sweep_takes_six_sections(capsys):
    code = cli.main(["--json", "sweep", "--theorem", "conj1.2", "--max-ell",
                     "6", "--max-cells", "7", "--per-bucket", "1",
                     "--full-report"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["failures"] == 0
    assert max(len(item["a"]) for item in blob["items"]) == 6


def test_det_sweep_takes_nine_sections(capsys):
    code = cli.main(["--json", "sweep", "--theorem", "det", "--max-ell", "9",
                     "--max-cells", "9", "--max-window", "8",
                     "--per-bucket", "1", "--full-report"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["failures"] == 0
    assert max(len(item["a"]) for item in blob["items"]) == 9


@pytest.mark.parametrize("theorem, digest", [
    ("det", "b015499273107c58e412a2b3407b93dce1131ef62dd2a999447783cb2ac34cb1"),
    ("1.1", "fead0d811f53181aa5e053e99bc0f6959afcc35ad7e7219b665e5ce79c621d40"),
    ("cor3.5",
     "5b0b4f30c14a712c06e4bf2c54c674bccd22b119f7979f4b306b4cc0296182d8"),
    ("conj1.2",
     "170c1db58622d4947b516e766a890ded203528b7a82c569ef697c6209a01ab65"),
])
def test_default_sweeps_pinned(theorem, digest, monkeypatch, capsys):
    # the full --json report of each sweep on the default corpus, byte for
    # byte
    monkeypatch.delenv("RIL_BUDGET", raising=False)
    code = cli.main(["--json", "sweep", "--theorem", theorem,
                     "--full-report"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ------------------------------------------------------------- CLI fuzzing

FILES = ["SHAPE", "RIBBON"]

FUZZ_VALUES = st.one_of(
    st.integers(1, 6).map(str),
    st.sampled_from(["0", "-1", "-7", "auto", "99999999999", "9" * 5000,
                     "1.5", "", "x", "1,3", "1,99", "12", "213", "2143",
                     "²", "١", " 2"]),
    st.text(max_size=4))
FUZZ_OPTIONS = {
    "decompose": {},
    "matrix": {"--nvars": FUZZ_VALUES, "--minor": FUZZ_VALUES},
    "imm": {"--nvars": FUZZ_VALUES, "--type": FUZZ_VALUES,
            "--perm": FUZZ_VALUES,
            "--method": st.sampled_from(["def", "shuffle", "covers",
                                         "crystal", "kl", "x", ""])},
    "sweep": {**{opt: FUZZ_VALUES for opt in (
        "--max-cells", "--max-window", "--max-ell", "--per-bucket",
        "--limit", "--jobs", "--nvars")},
        "--theorem": st.sampled_from(["det", "1.1", "cor3.5", "conj1.2",
                                      "2", ""])},
    "remarks": {"--nvars": FUZZ_VALUES},
    "kl-table": {},
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 99999999999)
    | st.sampled_from(["L", "B", "LB", "", "0"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["outer", "inner", "window_lo",
                                       "steps", "tail_lo", "tail_hi"]),
                      inner, max_size=4),
    max_leaves=8)


def _mostly(strategy):
    """strategy, and now and then any JSON value in its place."""
    return st.one_of(strategy, strategy, strategy, JSON_VALUES)


@st.composite
def _skew_shapes(draw):
    outer = sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)),
                   reverse=True)
    inner = sorted(draw(st.lists(st.integers(0, 3), max_size=4)),
                   reverse=True)
    return {"outer": outer, "inner": list(map(min, inner, outer))}


SHAPES = _skew_shapes().flatmap(lambda shape: st.fixed_dictionaries(
    {"outer": _mostly(st.just(shape["outer"]))},
    optional={"inner": _mostly(st.just(shape["inner"]))}))
RIBBONS = st.fixed_dictionaries(
    {"tail_lo": _mostly(st.sampled_from("LB")),
     "tail_hi": _mostly(st.sampled_from("LB"))},
    optional={"window_lo": _mostly(st.integers(-4, 4)),
              "steps": _mostly(st.lists(st.sampled_from("LB"),
                                        max_size=6))})
RAW_TEXTS = st.sampled_from(["", "{not json", "[" * 100000,
                             '{"outer": [NaN]}', '{"outer": [1e400]}',
                             '{"outer": [' + "9" * 5000 + "]}"])


def _file_texts(objects):
    # None: no such file
    return st.one_of(objects.map(json.dumps), objects.map(json.dumps),
                     JSON_VALUES.map(json.dumps), RAW_TEXTS, st.none())


@st.composite
def _cli_runs(draw):
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    argv = [command]
    if command in ("decompose", "matrix", "imm"):
        argv += FILES
    if command == "kl-table":
        argv.append(draw(FUZZ_VALUES))
    for opt, values in sorted(FUZZ_OPTIONS[command].items()):
        if draw(st.booleans()):
            argv += [opt, draw(values)]
    if command == "sweep" and draw(st.booleans()):
        argv.append("--full-report")
    prefix = draw(st.sampled_from([[], [], ["--json"], ["--json"],
                                   ["--out", "OUT"], ["--out", "MISSING"],
                                   ["--out", "DIR"]]))
    files = (draw(_file_texts(SHAPES)), draw(_file_texts(RIBBONS)))
    return prefix + argv, files


def _example(argv, shape=None, ribbon=None):
    """An explicit run: a dict is written as JSON, a str as it is."""
    return example((argv, tuple(json.dumps(obj) if isinstance(obj, dict)
                                else obj for obj in (shape, ribbon))))


# each input below once ended in a traceback, a MemoryError or minutes of
# work; at this budget each ends in well under a second
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@_example(["decompose", *FILES], {"outer": [501], "inner": [500]}, ROW)
@_example(["decompose", *FILES], '{"outer": ["3", "2"], "inner": ["1"]}',
          ROW)
@_example(["decompose", *FILES], '{"outer": [true, 1]}', ROW)
@_example(["decompose", *FILES], {"outer": [1]}, {**ROW, "window_lo": "0"})
@_example(["decompose", *FILES], {"outer": [1]}, {**ROW, "window_lo": True})
@_example(["decompose", *FILES], {"outer": [1]}, {**ROW, "steps": "LB"})
@_example(["matrix", *FILES], {"outer": [99999999999]}, ROW)
@_example(["sweep", "--max-cells", "99999999999", "--max-ell", "1",
           "--per-bucket", "1", "--max-window", "0"])
@_example(["matrix", *FILES], {"outer": [70]}, ROW)
@_example(["matrix", *FILES], {"outer": [40]}, ROW)
@_example(["matrix", *FILES], {"outer": [1] * 500}, COLUMN)
@_example(["imm", *FILES, "--nvars", "1000000", "--type", "1", "--method",
           "shuffle"], {"outer": [1]}, ROW)
@_example(["imm", *FILES, "--nvars", "1000000", "--type", "1", "--method",
           "covers"], {"outer": [1]}, ROW)
@_example(["imm", *FILES, "--nvars", "1000000", "--type", "1", "--method",
           "crystal"], {"outer": [1]}, ROW)
@given(_cli_runs())
def test_cli_fuzz_exits_0_1_or_2_without_a_traceback(run):
    argv, texts = run
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"RIL_BUDGET": "2000"}), \
            mock.patch.object(cli, "Pool", _SerialPool), \
            mock.patch.object(_SerialPool, "started", []):
        paths = {"OUT": os.path.join(tmp, "out.json"),
                 "MISSING": os.path.join(tmp, "missing", "out.json"),
                 "DIR": tmp}
        for name, text in zip(FILES, texts):
            paths[name] = os.path.join(tmp, name.lower() + ".json")
            if text is not None:
                with open(paths[name], "w") as fh:
                    fh.write(text)
        argv = [paths.get(word, word) for word in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse: usage errors and --help
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        assert all(n <= (os.cpu_count() or 1) for n in _SerialPool.started)
