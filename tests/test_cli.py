import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bkw
from bkw import cli
from bkw.harness import fixture_bk_topo, fixture_ninestate, two_cycle
from bkw.modelio import dump_kripke, dump_nwf, dump_paratopo


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_command(tmp_path, capsys):
    path = tmp_path / "formulas.txt"
    path.write_text("[ab] Hba (Ua & D)\n# comment\n\nBa Xb Dt & Ea true\n")
    code, out, err = run(["parse", str(path)], capsys)
    assert code == 0
    assert out.splitlines() == ["[ab] Hba (Ua & D)", "Ba Xb Dt & Ea true"]


def test_parse_command_reports_errors(tmp_path, capsys):
    path = tmp_path / "formulas.txt"
    path.write_text("p &\n")
    code, out, err = run(["parse", str(path)], capsys)
    assert code == 2
    assert "line 1" in err


def test_deep_nesting_exits_2(tmp_path, capsys):
    # the parser and the printer loop, so `parse` echoes any depth
    deep = "!" * 3000 + "p"
    chain = "p"
    for _ in range(130):
        chain = f"!(p & {chain})"
    path = tmp_path / "formulas.txt"
    path.write_text(deep + "\n" + chain + "\n")
    code, out, err = run(["parse", str(path)], capsys)
    assert code == 0 and out == deep + "\n" + chain + "\n"
    # the compiler recurses: `check` ends in exit 2 through the last-resort guard
    model = tmp_path / "model.bk"
    model.write_text(dump_kripke(two_cycle()))
    code, _, err = run(["check", str(model), deep], capsys)
    assert code == 2 and "nested too deeply" in err


def test_non_utf8_input_exits_2(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_bytes(b"p & \xff q\n")
    for argv in (["parse", str(raw)], ["check", str(raw), "p"], ["holes", str(raw)]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {raw}: ") and "utf-8" in err


def test_check_command(tmp_path, capsys):
    path = tmp_path / "model.bk"
    path.write_text(dump_kripke(two_cycle()))
    code, out, _ = run(["check", str(path), "Hab Ub"], capsys)
    assert code == 0
    assert "extension: x" in out
    assert "satisfiable: True" in out
    assert "valid: False" in out


def test_check_command_on_all_model_kinds(tmp_path, capsys):
    nwf = tmp_path / "nine.bk"
    nwf.write_text(dump_nwf(fixture_ninestate()))
    code, out, _ = run(["check", str(nwf), "Ua & D+"], capsys)
    assert code == 0 and "extension: u" in out
    topo = tmp_path / "bk.bk"
    topo.write_text(dump_paratopo(fixture_bk_topo()))
    code, out, _ = run(["check", str(topo), "Ba Xb Dt & Ea true"], capsys)
    assert code == 0 and "extension: a1" in out


def test_check_command_language_error(tmp_path, capsys):
    path = tmp_path / "model.bk"
    path.write_text(dump_kripke(two_cycle()))
    code, _, err = run(["check", str(path), "Ba p"], capsys)
    assert code == 2
    assert "language" in err


def test_check_command_input_errors(tmp_path, capsys):
    code, _, err = run(["check", str(tmp_path / "missing.bk"), "p"], capsys)
    assert code == 2
    bad = tmp_path / "bad.bk"
    bad.write_text("kripke\nstates: x\nstates: y\nUa: x\nUb:\n")
    code, _, err = run(["check", str(bad), "p"], capsys)
    assert code == 2
    assert "duplicate" in err
    bad.write_text(dump_paratopo(fixture_bk_topo()).replace("tA: ", "tA: a1->{} "))
    code, _, err = run(["check", str(bad), "p"], capsys)
    assert code == 2 and "source 'a1' is given twice" in err
    # a closed family without {} and not closed under union
    bad.write_text("paratopo\nA: a1 a2 a3\nB: b1\nclosedA: {a1} {a2} {a1 a2 a3}\n"
                   "closedB: {} {b1}\ntB: b1->{a1}\nval p: a3\n")
    code, out, err = run(["check", str(bad), "~p"], capsys)
    assert code == 2 and out == ""
    assert "not a topology: missing empty set" in err


def test_holes_command(tmp_path, capsys):
    path = tmp_path / "model.bk"
    path.write_text(dump_kripke(two_cycle()))
    code, out, _ = run(["holes", str(path)], capsys)
    assert code == 0
    assert "any hole: False" in out
    nwf = tmp_path / "nine.bk"
    nwf.write_text(dump_nwf(fixture_ninestate()))
    code, out, _ = run(["holes", str(nwf)], capsys)
    assert code == 0
    assert out.count("no hole") == 7


def test_fixtures_command(capsys):
    code, out, _ = run(["fixtures"], capsys)
    assert code == 0
    assert "all claims pass" in out


def test_campaign_command(capsys):
    code, out, _ = run(["campaign", "theorem12", "--max-states", "2"], capsys)
    assert code == 0
    assert "SUMMARY" in out
    code, out, _ = run(
        ["campaign", "lemma1", "--max-states", "2", "--no-strict",
         "--heart-local", "--serial"], capsys)
    assert code == 0
    assert '"serial": true' in out
    code, out, _ = run(["campaign", "adjunction", "--max-states", "2"], capsys)
    assert code == 0
    assert '"violations": 0' in out


def test_campaign_heart_flags(capsys):
    for flags, heart in (([], "frame"), (["--heart-frame"], "frame"),
                         (["--heart-local"], "local")):
        code, out, _ = run(["campaign", "theorem12", "--max-states", "2", *flags], capsys)
        assert code == 0 and f'"heart": "{heart}"' in out
    code, _, err = run(["campaign", "theorem12", "--max-states", "2",
                        "--heart-frame", "--heart-local"], capsys)
    assert code == 2 and "not allowed with" in err


def test_campaign_rejects_oversized_bounds(capsys):
    code, _, err = run(["campaign", "theorem22", "--max-states", "9"], capsys)
    assert code == 2


def test_lawvere_command(capsys):
    code, out, _ = run(["lawvere", "--sizeA", "2", "--sizeY", "2"], capsys)
    assert code == 0
    assert "no weakly point-surjective map" in out
    code, out, _ = run(["lawvere", "--sizeA", "2", "--sizeY", "1"], capsys)
    assert code == 0
    assert "witness" in out


def test_usage_errors_exit_2(capsys):
    assert cli.main(["campaign", "not-a-target"]) == 2
    capsys.readouterr()


# ``bkw.__all__``, the lazily loaded campaign names and ``harness`` included
PUBLIC_NAMES = [
    "Campaign", "CampaignReport", "ClosedTopology", "FiniteSelfMap", "Formula",
    "HoleReport", "HypersetModel", "KripkeModel", "LanguageError", "ParaTopoModel",
    "ParseError", "bisimilar", "bk_witnesses", "boundary", "canonicalize",
    "check_fixed_point_property", "check_lemma_1", "classify_state", "closure",
    "diagonal", "diagonal_D", "diagonal_Dplus", "dump_model", "enumerate_hypersets",
    "enumerate_kripke", "evaluate", "exponent", "extension", "find_holes", "formula",
    "graph_to_structure", "harness", "horizontally_closed", "hyperset", "ineg",
    "interior", "is_assumption_complete", "is_satisfiable", "is_valid",
    "is_weak_assumption_complete", "is_weakly_point_surjective", "kripke", "lawvere",
    "load_model", "modal_depth", "modelio", "nwf_extension", "nwf_find_holes",
    "paratopo", "parse", "pneg", "product", "program", "run_campaign", "search_wps",
    "subtraction", "to_text", "topology", "validate", "verify_fixtures",
    "vertically_closed",
]

COLD_START = """
import contextlib, io, json, sys
loaded = lambda: [m for m in ("numpy", "bkw.harness") if m in sys.modules]
import pytest

import bkw
seen = {"import bkw": loaded()}
from bkw import cli
formulas, model = sys.argv[1:]
for name, argv in (("parse", ["parse", formulas]), ("check", ["check", model, "Hab Ub"]),
                   ("check run", ["check", model, "[ab] (p & q) & [ab] p"]),
                   ("holes", ["holes", model]),
                   ("lawvere", ["lawvere", "--sizeA", "2", "--sizeY", "2"])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen[name] = [code, loaded()]
seen["same"] = bkw.run_campaign is bkw.harness.run_campaign
seen["all"] = sorted(bkw.__all__)
print(json.dumps(seen))
"""


def test_cold_start_loads_no_numpy(tmp_path):
    # a fresh interpreter: this one has loaded the harness and numpy already
    formulas = tmp_path / "formulas.txt"
    formulas.write_text("[ab] Hba (Ua & D)\n")
    model = tmp_path / "model.bk"
    model.write_text(dump_kripke(two_cycle()))
    src = str(Path(bkw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", COLD_START, str(formulas), str(model)],
                         env=env, capture_output=True, text=True, check=True).stdout
    seen = json.loads(out)
    assert seen.pop("import bkw") == []
    # "check run": a formula with a run of two [ab] ops, which ints never stack
    for command in ("parse", "check", "check run", "holes", "lawvere"):
        assert seen.pop(command) == [0, []], command
    assert seen == {"same": True, "all": PUBLIC_NAMES}


@pytest.mark.parametrize("argv, message", (
    (["check", "KRIPKE", "(p&"], "expected a formula, found 'end of input' (at position 3)"),
    (["holes", "PARATOPO"], "hole scanning applies to kripke and nwf models"),
    (["lawvere", "--sizeA", "4", "--sizeY", "2"], "search is guarded to carrier sizes 1..3"),
    (["campaign", "adjunction", "--max-states", "5"], "carrier bound must be between 0 and 4"),
    (["campaign", "lawvere_scan", "--max-states", "4"],
     "carrier bound must be between 1 and 3"),
    (["campaign", "lemma1", "--max-states", "6"], "state bound must be between 1 and 5"),
    (["campaign", "theorem22", "--max-states", "5"], "node bound must be between 1 and 4"),
), ids=("check-formula", "holes-paratopo", "lawvere-size", "adjunction-bound",
        "lawvere_scan-bound", "lemma1-bound", "theorem22-bound"))
def test_input_errors_exit_2_with_one_line(argv, message, tmp_path, capsys):
    files = {"KRIPKE": tmp_path / "kripke.bk", "PARATOPO": tmp_path / "paratopo.bk"}
    files["KRIPKE"].write_text(dump_kripke(two_cycle()))
    files["PARATOPO"].write_text(dump_paratopo(fixture_bk_topo()))
    code, out, err = run([str(files.get(arg, arg)) for arg in argv], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


TOPO_TEXT = ("paratopo\nA: a1 a2\nB: b1 b2\nclosedA: {} {a1} {a1 a2}\n"
             "closedB: {} {b1} {b1 b2}\ntA: a1->{b1} a2->{b1 b2}\ntB: b1->{a1} b2->{a1 a2}\n")


@pytest.mark.parametrize("text, message", (
    ("nwf\nstates: w v\nurelements: u\nUa: w\nUb: v\n", "line 1: unknown urelement 'u'"),
    ("kripke\nstates: x y\nUa: x\nUb: y\nval p: z\n",
     "line 1: valuation of 'p' uses unknown states"),
    ("nwf\nstates: w v\nUa: w\nUb: v\nval p: z\n", "line 1: valuation of 'p' uses unknown nodes"),
    (TOPO_TEXT + "val p: z\n", "line 1: valuation of 'p' uses unknown states"),
    (TOPO_TEXT.replace("b1->{a1}", "b1->{c}"), "line 1: tB pair (b1, c) is outside B x A"),
    (TOPO_TEXT.replace("b1->{a1}", "b1->{a2}"),
     "line 1: image tB(b1) = ['a2'] is not closed in the A topology"),
    (TOPO_TEXT.replace("closedA: {} {a1} {a1 a2}", "closedA: x"),
     "line 4: expected a brace set, got 'x'"),
    (TOPO_TEXT.replace("tA: a1", "tA: 1a"), "line 6: bad identifier '1a'"),
    (TOPO_TEXT.replace("tA: a1->{b1}", "tA: a1->{b1} junk"),
     "line 6: expected 'x->{...}' entries, got 'junk'"),
    (TOPO_TEXT.replace("tA: a1", "tA: zz->{} a1"), "line 6: source 'zz' is not in A"),
    (TOPO_TEXT.replace("closedA: {} {a1}", "closedA: {} {a1} {a1}"),
     "line 4: set {a1} is repeated"),
), ids=("urelement", "kripke-val", "nwf-val", "paratopo-val", "tB-pair", "tB-image",
        "closedA-word", "tA-source", "tA-leftover", "tA-outside", "closedA-repeat"))
def test_model_faults_exit_2_naming_file_and_line(text, message, tmp_path, capsys):
    path = tmp_path / "model.bk"
    path.write_text(text)
    code, out, err = run(["check", str(path), "p"], capsys)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")
