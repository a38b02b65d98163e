import json
import re
from pathlib import Path

import pytest

import ribbonimm
from ribbonimm import cli
from ribbonimm.shapes import InfiniteRibbon, SkewShape


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
                   "max_ell=1, per_bucket=1): more than 1000 search nodes\n")


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


def test_kl_table(capsys):
    assert cli.main(["kl-table", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["12 12 : 1", "12 21 : 1", "21 21 : 1"]
    assert cli.main(["kl-table", "9"]) == 2


def test_out_file_byte_determinism(tmp_path, small_files):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        assert cli.main(["--json", "matrix", *small_files, "--nvars", "2",
                         "--out", str(p)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("method", ["shuffle", "crystal", "covers"])
def test_imm_over_budget_exits_2(hook_files, method, monkeypatch, capsys):
    # --nvars auto gives the hook 27 variables: about 4.7e29 fillings (and
    # as many covers), refused from their count before any is built
    noun = {"shuffle": "fillings", "crystal": "fillings",
            "covers": "covers"}[method]
    monkeypatch.delenv("RIL_BUDGET", raising=False)
    code = cli.main(["imm", *hook_files, "--method", method,
                     "--type", "2143"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: more than 2000000 {noun}")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5", ""])
def test_malformed_budget_exits_2(value, monkeypatch, capsys):
    monkeypatch.setenv("RIL_BUDGET", value)
    code = cli.main(["kl-table", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: RIL_BUDGET={value!r} is not a positive integer" in err
    assert "Traceback" not in err


@pytest.fixture()
def column_files(tmp_path):
    # a 7-cell column cut by the all-row ribbon: seven one-cell sections
    ribbon = InfiniteRibbon(tail_lo="L", tail_hi="L")
    sp = tmp_path / "shape.json"
    rp = tmp_path / "ribbon.json"
    sp.write_text(json.dumps(SkewShape((1,) * 7).to_json()))
    rp.write_text(json.dumps(ribbon.to_json()))
    return str(sp), str(rp)


TL7 = "_tl_table(n=7): 2162160 slots exceed RIL_BUDGET=2000000"
KL7 = "kl_polynomials(n=7): 3550919 Bruhat pairs exceed RIL_BUDGET=2000000"


@pytest.mark.parametrize("argv, message", [
    (["imm", "SHAPE", "RIBBON", "--type", "1234567"], TL7),
    (["imm", "SHAPE", "RIBBON", "--method", "kl", "--perm", "7654321"], KL7),
    (["kl-table", "7"], KL7),
    (["sweep", "--theorem", "1.1", "--max-ell", "7"], TL7),
    (["sweep", "--theorem", "cor3.5", "--max-ell", "7"], TL7),
    (["sweep", "--theorem", "conj1.2", "--max-ell", "7"], KL7),
    (["sweep", "--theorem", "1.1", "--max-ell", "1000000000"],
     "_tl_table(n=1000000000): more than 2^999999999 slots exceed "
     "RIL_BUDGET=2000000"),
])
def test_seven_sections_refused_by_table_size(argv, message, column_files,
                                              monkeypatch, capsys):
    monkeypatch.delenv("RIL_BUDGET", raising=False)

    def refuse(*args):
        raise AssertionError("corpus built before the table was charged")

    monkeypatch.setattr(cli, "sweep_corpus", refuse)
    argv = [{"SHAPE": column_files[0], "RIBBON": column_files[1]}.get(a, a)
            for a in argv]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"


def test_conj12_sweep_takes_six_sections(capsys):
    code = cli.main(["--json", "sweep", "--theorem", "conj1.2", "--max-ell",
                     "6", "--max-cells", "7", "--per-bucket", "1",
                     "--full-report"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["failures"] == 0
    assert max(len(item["a"]) for item in blob["items"]) == 6
