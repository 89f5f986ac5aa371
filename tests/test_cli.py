import contextlib
import io
import json
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from lowerk import casebook, cli, errors
from lowerk.abelian import FgAbelianGroup, TRIVIAL_GROUP
from lowerk.cli import main
from lowerk.errors import AssemblySpecError, IllFormedMap
from lowerk.groups import build_group, canonical_group_name
from lowerk.ktheory import (
    DEGREES,
    TORSION_CAP,
    amalgam_k_assemble,
    assembly_spec_from_json,
    bass_rank,
    bundled_ksheets,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_info(capsys):
    code, out, _ = run_cli(capsys, "group", "info", "dicyclic:24")
    assert code == 0
    assert "24" in out and "conjugacy classes" in out and "9" in out


def test_group_info_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "group", "info", "binary-octahedral")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 48
    assert data["center_order"] == 2


def test_group_info_unknown_name(capsys):
    code, _, err = run_cli(capsys, "group", "info", "so:3")
    assert code == 2
    assert "error" in err


def test_classes_singular(capsys):
    code, out, _ = run_cli(capsys, "classes", "dicyclic:24", "--fusion", "singular:3")
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("order")]
    assert len(rows) == 4


def test_classes_rational_cyclic6(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "classes", "cyclic:6",
                           "--fusion", "q")
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_classes_trivial_modp(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "classes", "cyclic:1",
                           "--fusion", "fp:2")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_classes_bad_prime(capsys):
    code, _, err = run_cli(capsys, "classes", "cyclic:6", "--fusion", "fp:6")
    assert code == 2


@pytest.mark.parametrize("flag", ["fp:\u00b2", "qp:\u0663", "singular:\uff13", "fp:" + "1" * 5000],
                         ids=["superscript-2", "arabic-indic-3", "fullwidth-3", "5000-digits"])
def test_fusion_prime_takes_ascii_digits_only(flag, capsys):
    # 5000 digits are more than int() converts
    code, out, err = run_cli(capsys, "classes", "cyclic:6", "--fusion", flag)
    assert code == 2 and out == ""
    assert err.startswith("error:")


fusion_flags = st.one_of(
    st.text(),
    st.builds("{}:{}".format, st.sampled_from(["q", "qp", "fp", "singular"]),
              st.one_of(st.text(), st.from_regex(r"\A[0-9]{1,30}\Z"))))


@settings(max_examples=200, deadline=None)
@given(fusion_flags)
def test_any_fusion_flag_exits_0_or_2(flag):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classes", "cyclic:6", "--fusion", flag])
    assert code in (0, 2), err.getvalue()


def test_ksheet_values(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "ksheet", "dicyclic:12")
    assert code == 0
    data = json.loads(out)
    assert data["carter_rank"] == 1
    assert data["K_-1_pretty"] == "Z"
    assert data["wh_rank"] == bass_rank(build_group("dicyclic:12"))


def test_ksheet_trivial(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "ksheet", "cyclic:1")
    assert code == 0
    data = json.loads(out)
    assert data["carter_rank"] == 0 and data["sc_rank"] == 0


def test_ksheet_flags_a_bundled_sheet_that_contradicts_carter(capsys, monkeypatch):
    # Carter's formula gives Z + Z/2 for the binary octahedral group: the
    # sheet is refused in either format, as assemble refuses it
    sheet = bundled_ksheets()["binary-octahedral"]
    monkeypatch.setitem(sheet.entries, "Km1", FgAbelianGroup(1, (4,)))
    for fmt in ("json", "table"):
        assert run_cli(capsys, "--format", fmt, "ksheet", "binary-octahedral") == (
            3, "", "error: the binary-octahedral sheet cites Km1 = Z + Z/4, "
                   "but the engine computes Z + Z/2\n")


@pytest.mark.parametrize("name, degree, cited, why", [
    ("dicyclic:24", "Wh", TRIVIAL_GROUP, "its free rank is r_R - r_Q = 1 (Bass)"),
    ("binary-octahedral", "Km1", FgAbelianGroup(1, (4,)), "the engine computes Z + Z/2"),
    ("dicyclic:12", "K0t", FgAbelianGroup(1), "reduced K_0(ZG) is finite (Swan)"),
], ids=["Wh", "Km1", "K0t"])
def test_ksheet_refuses_a_bundled_sheet_the_engine_contradicts(name, degree, cited, why,
                                                               capsys, monkeypatch):
    # the sheet check of assemble, on ksheet's own bundled sheet
    monkeypatch.setitem(bundled_ksheets()[name].entries, degree, cited)
    assert run_cli(capsys, "ksheet", name) == (
        3, "", f"error: the {name} sheet cites {degree} = {cited}, but {why}\n")
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "--format", "json", "ksheet", name)
    assert code == 0 and json.loads(out)["wh_rank"] == bass_rank(build_group(name))


def test_ksheet_unknown_schur_data_exits_3(capsys):
    code, out, _ = run_cli(capsys, "ksheet", "binary-tetrahedral")
    assert code == 3
    assert "carter rank" in out  # the rank is still printed


def test_ksheet_of_the_binary_icosahedral_group_exits_3(capsys):
    # no bundled sheet gives its Schur data, so only the free rank is printed
    code, out, _ = run_cli(capsys, "ksheet", "binary-icosahedral")
    assert code == 3
    assert ["carter", "rank", "2"] in [line.split() for line in out.splitlines()]
    assert "Z^2 + unknown torsion (no bundled Schur data)" in out


def test_ksheet_derives_the_schur_count_of_a_dihedral_group(capsys, monkeypatch):
    # s = 0 is decided from the group, not read off the bundled dihedral:3
    # sheet, so a sheet citing Km1 = Z/2 is refused, and symmetric:3, which
    # is D3 but has no sheet, still gets K_-1 = 0
    monkeypatch.setitem(bundled_ksheets()["dihedral:3"].entries, "Km1", FgAbelianGroup(0, (2,)))
    assert run_cli(capsys, "ksheet", "dihedral:3") == (
        3, "", "error: the dihedral:3 sheet cites Km1 = Z/2, but the engine computes 0\n")
    code, out, _ = run_cli(capsys, "--format", "json", "ksheet", "symmetric:3")
    assert code == 0 and json.loads(out)["K_-1_pretty"] == "0"


def test_ksheet_of_symmetric_3_matches_dihedral_3(capsys):
    # symmetric:3 has no sheet, but it is dihedral, so its K_-1 is derived
    code, out, _ = run_cli(capsys, "--format", "json", "ksheet", "symmetric:3")
    assert code == 0
    s3 = json.loads(out)
    code, out, _ = run_cli(capsys, "--format", "json", "ksheet", "dihedral:3")
    assert code == 0
    assert s3["K_-1"] == json.loads(out)["K_-1"]


def test_assemble_bundled_by_name_and_by_path(capsys):
    code, out, _ = run_cli(capsys, "assemble", "b3rp2")
    assert code == 0
    assert "Z^2 + (Z/2)^2" in out
    import importlib.resources

    path = importlib.resources.files("lowerk") / "specs" / "pb3rp2.json"
    code, out, _ = run_cli(capsys, "assemble", str(path))
    assert code == 0
    assert "Z/2" in out


def test_assemble_missing_path_is_not_a_bundled_name(capsys):
    code, out, err = run_cli(capsys, "assemble", "/nonexistent/dir/b3rp2.json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "/nonexistent/dir/b3rp2.json" in err


def test_assemble_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "assemble", "mcg_rp2_3")
    assert code == 0
    data = json.loads(out)
    assert data["degrees"]["Km1"]["pretty"] == "Z"
    assert data["degrees"]["Wh"]["pretty"] == "0"


def test_assemble_refuses_spec_without_cite(capsys, tmp_path):
    import copy
    from lowerk.casebook import bundled_spec_json

    raw = copy.deepcopy(bundled_spec_json("pb3rp2"))
    raw["maps"][0].pop("cite")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "assemble", str(path))
    assert code == 2


def test_assemble_missing_file(capsys):
    code, _, err = run_cli(capsys, "assemble", "/nonexistent/thing.json")
    assert code == 2


def test_assemble_unreadable_spec_file_exits_2(capsys, monkeypatch, tmp_path):
    import builtins
    from lowerk.casebook import bundled_spec_json

    path = tmp_path / "locked.json"
    path.write_text(json.dumps(bundled_spec_json("pb3rp2")))
    real_open = builtins.open

    def locked_open(file, *args, **kwargs):
        if str(file) == str(path):
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", locked_open)
    code, out, err = run_cli(capsys, "assemble", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and str(path) in err
    assert "Traceback" not in err


def test_verify_single_case_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "pb3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "pb3" and data["pass"] is True


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    for case in ("pb3", "b3", "mcg-rp2-3", "words"):
        assert f"case {case}: pass" in out


def test_verify_all_json_lists_exactly_the_four_cases(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "all")
    assert code == 0
    data = json.loads(out)
    assert [d["case"] for d in data] == ["pb3", "b3", "mcg-rp2-3", "words"]


def test_verify_bad_case_name(capsys):
    code = main(["verify", "everything"])
    assert code == 2


def test_verify_failure_exit_code(monkeypatch, capsys):
    import lowerk.casebook as cb
    from lowerk.casebook import CaseReport, Check

    bad = CaseReport("pb3", [Check("synthetic", "1", "2", "cite", False)])
    monkeypatch.setitem(cb._CASE_RUNNERS, "pb3", lambda: bad)
    assert main(["verify", "pb3"]) == 1
    assert main(["verify", "all"]) == 1


def test_classes_padic_flag(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "classes", "dicyclic:12",
                           "--fusion", "qp:2")
    assert code == 0
    assert json.loads(out)["count"] == 5


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "lowerk", "group", "info", "cyclic:6"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "6" in proc.stdout


def test_coset_limit_flag_is_unrecognized():
    # the enumerations the CLI runs are those of the bundled binary polyhedral
    # presentations, so no flag bounds them
    for argv in (["--coset-limit", "5", "group", "info", "binary-octahedral"],
                 ["ksheet", "binary-octahedral", "--coset-limit", "500"]):
        proc = _run_module(*argv)
        assert proc.returncode == 2 and not proc.stdout
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


# an unknown option, an abbreviated one, a format outside the choices,
# --fusion missing, misplaced or given to another command, an unknown
# subcommand, an extra word, a missing value: each is one error line and
# exit 2, as a missing command is (test_usage_error)
@pytest.mark.parametrize("argv", [
    ["--form", "json", "verify", "all"], ["ksheet", "cyclic:2", "--fus", "q"],
    ["--format", "xml", "verify", "all"], ["classes", "cyclic:4"],
    ["ksheet", "cyclic:4", "--fusion", "q"], ["ksheet", "a", "b"], ["ksheet", "--format"],
    ["--fusion", "q", "classes", "cyclic:4"], ["group", "list", "cyclic:4"],
    ["classes", "cyclic:4", "--fusion"], ["ksheet", "cyclic:4", "--format=xml"],
], ids=" ".join)
def test_a_misused_command_line_is_one_error_line(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--help", "verify", "all"],
                                  ["verify", "all", "--help"], ["--format", "xml", "-h"]],
                         ids=" ".join)
def test_help_anywhere_prints_the_usage(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: lowerk") and "classes NAME --fusion F" in out


def test_options_take_their_value_either_way_and_the_last_wins(capsys):
    want = run_cli(capsys, "--format", "json", "classes", "dicyclic:24", "--fusion", "q")
    assert want[0] == 0 and json.loads(want[1])["count"] == 8
    for argv in (["classes", "--fusion", "q", "dicyclic:24", "--format=json"],
                 ["--format=table", "classes", "--fusion=fp:3", "dicyclic:24",
                  "--fusion", "q", "--format", "json"]):
        assert run_cli(capsys, *argv) == want


_LIBRARY = ["lowerk", "lowerk.abelian", "lowerk.cli", "lowerk.errors", "lowerk.fusion",
            "lowerk.groups", "lowerk.ktheory", "lowerk.presentations", "lowerk.records"]


@pytest.mark.parametrize("argv, loaded", [
    (["group", "info", "dicyclic:24"], _LIBRARY),
    (["classes", "dicyclic:24", "--fusion", "q"], _LIBRARY),
    (["ksheet", "binary-octahedral"], _LIBRARY),
    (["assemble", "b3rp2"], _LIBRARY),
    (["verify", "pb3"], sorted(_LIBRARY + ["lowerk.amalgams", "lowerk.casebook"])),
], ids=["group-info", "classes", "ksheet", "assemble", "verify"])
def test_each_command_loads_its_pinned_modules(argv, loaded):
    # a fresh interpreter per command; a change that widens a set says so here
    done = _run_python("-c", """if True:
        import json, sys
        import lowerk.cli
        code = lowerk.cli.main(json.loads(sys.argv[1]))
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "lowerk")),
              file=sys.stderr)
        sys.exit(code)
    """, json.dumps(argv))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr) == loaded


def test_no_process_imports_argparse():
    # a fresh interpreter, since pytest itself imports argparse
    done = _run_python("-c", """if True:
        import sys
        import lowerk.cli
        loaded = {"argparse", "gettext"} & set(sys.modules)
        lowerk.cli.main(["--format", "json", "ksheet", "cyclic:4"])
        loaded |= {"argparse", "gettext"} & set(sys.modules)
        print(sorted(loaded), file=sys.stderr)
    """)
    assert done.returncode == 0 and json.loads(done.stdout)["group"] == "cyclic:4"
    assert done.stderr == "[]\n"


def test_reports_identical_bytes_across_processes():
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "lowerk", "--format", "json", "verify", "words"]
    first = subprocess.run(cmd, capture_output=True).stdout
    second = subprocess.run(cmd, capture_output=True).stdout
    assert first and first == second


def test_usage_error(capsys):
    for argv in ([], ["group"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_table_and_json_contain_same_check_count(capsys):
    code, table_out, _ = run_cli(capsys, "verify", "words")
    code2, json_out, _ = run_cli(capsys, "--format", "json", "verify", "words")
    assert code == code2 == 0
    data = json.loads(json_out)
    # one table row per check plus header and case line
    table_rows = [l for l in table_out.splitlines() if l.strip()]
    assert len(table_rows) == len(data["checks"]) + 2


def _b3_with(edit):
    raw = casebook.bundled_spec_json("b3rp2")
    edit(raw)
    return json.dumps(raw)


def _set(path, value):
    def edit(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


_Q8_SHEET = {"group": "quaternion:8", "Wh": {"rank": 0, "torsion": []},
             "K0t": {"rank": 0, "torsion": [2]}, "Km1": {"rank": 0, "torsion": []}, "cite": "GJM"}

MALFORMED_SPECS = {
    # a second sheet for one group, under its own name or an alias, or a
    # second map in one degree, would silently replace the first
    "second sheet": _b3_with(lambda raw: raw["sheets"].append(raw["sheets"][0])),
    "alias sheet": _b3_with(lambda raw: raw["sheets"].extend(
        [_Q8_SHEET, dict(_Q8_SHEET, group="dicyclic:8")])),
    "second map": _b3_with(lambda raw: raw["maps"].append(dict(raw["maps"][2], matrix=[[0]] * 5))),
    "float matrix": _b3_with(_set(("maps", 2, "matrix"), [[0.9], [0.2], [1.7], [1], [0]])),
    "boolean matrix": _b3_with(_set(("maps", 2, "matrix"), [[False], [False], [True], [True], [False]])),
    "float rank": _b3_with(_set(("sheets", 0, "Km1", "rank"), 1.5)),
    "float torsion": _b3_with(_set(("sheets", 0, "Km1", "torsion"), [2.5])),
    "negative rank": _b3_with(_set(("sheets", 0, "Km1", "rank"), -1)),
    "string matrix": _b3_with(_set(("maps", 2, "matrix"), "0 0 1 1 0")),
    "string matrix entries": _b3_with(_set(("maps", 2, "matrix"), [["0"], ["0"], ["1"], ["1"], ["0"]])),
    "sheets not a list": _b3_with(_set(("sheets",), 5)),
    "amalgam vc lacks edge": _b3_with(_set(("nils", 0, "vc"),
                                           {"type": "amalgam", "left": "cyclic:4", "right": "cyclic:4"})),
    "invalid json": '{"name": "b3rp2", ',
    "list name": _b3_with(_set(("name",), ["b3rp2"])),
    "list sheet cite": _b3_with(_set(("sheets", 0, "cite"), ["GJM"])),
    "list map cite": _b3_with(_set(("maps", 2, "cite"), ["GJM"])),
    "list nil cite": _b3_with(_set(("nils", 0, "cite"), ["Weibel 2009"])),
    # K-data is cited data: a sheet or a nil entry without its source
    "empty sheet cite": _b3_with(_set(("sheets", 0, "cite"), "")),
    "nil entry without cite": _b3_with(lambda raw: raw["nils"][0].pop("cite")),
    "list semidirect vc group": _b3_with(_set(("nils", 0, "vc"),
                                              {"type": "semidirect", "finite": ["cyclic:2"]})),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SPECS))
def test_assemble_refuses_malformed_spec(name, capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(MALFORMED_SPECS[name])
    code, out, err = run_cli(capsys, "assemble", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    if name != "invalid json":
        with pytest.raises(AssemblySpecError):
            assembly_spec_from_json(json.loads(MALFORMED_SPECS[name]))


@pytest.mark.parametrize("edit, named", [
    (_set(("sheets", 0, "cite"), ""), "the binary-octahedral sheet has an empty cite"),
    (lambda raw: raw["sheets"][0].pop("cite"), "the binary-octahedral sheet lacks 'cite'"),
    (_set(("maps", 2, "cite"), ""), "the Km1 map has an empty cite"),
    (_set(("nils", 0, "cite"), ""), "the nil entry cyclic:2 x Z has an empty cite"),
    (lambda raw: raw["nils"][0].pop("cite"), "the nil entry cyclic:2 x Z lacks 'cite'"),
], ids=["empty sheet cite", "sheet without cite", "empty map cite", "empty nil cite",
        "nil without cite"])
def test_an_uncited_entry_is_refused_by_its_name(edit, named):
    with pytest.raises(AssemblySpecError, match=re.escape(named)):
        assembly_spec_from_json(json.loads(_b3_with(edit)))


def test_assemble_names_the_spec_that_lacks_a_sheet(capsys, tmp_path):
    # the sheet is missing from the user's spec, not from the bundled data
    def edit(raw):
        raw["sheets"] = [s for s in raw["sheets"] if s["group"] != "dicyclic:12"]
    path = tmp_path / "spec.json"
    path.write_text(_b3_with(edit))
    code, out, err = run_cli(capsys, "assemble", str(path))
    assert code == 2 and out == ""
    assert "spec 'b3rp2' has no sheet for dicyclic:12" in err


def test_assemble_refuses_an_ill_defined_cited_map(capsys, tmp_path):
    # the edge group's Z/2 in K0t sent onto the octahedral side's Z/4
    # generator; an ill-formed map is a data gap, exit 3
    def edit(raw):
        raw["sheets"][0]["K0t"] = {"rank": 0, "torsion": [2, 4]}
        raw["maps"][1]["matrix"] = [[0], [1], [0], [0], [0]]
    path = tmp_path / "spec.json"
    path.write_text(_b3_with(edit))
    code, out, err = run_cli(capsys, "assemble", str(path))
    assert code == 3 and out == ""
    assert "misses the target lattice" in err


@pytest.mark.parametrize("rank", [2 ** 70, 10 ** 8], ids=["2^70", "10^8"])
def test_assemble_holds_a_cited_rank_to_the_matrix_shape(rank, capsys, tmp_path):
    # the octahedral Km1 rank is held to the Km1 matrix's five rows before
    # any relation vector of that length is built; the command refuses the
    # rank before assembling, as Carter's formula gives rank 1
    raw = json.loads(_b3_with(_set(("sheets", 0, "Km1", "rank"), rank)))
    with pytest.raises(IllFormedMap) as refused:
        amalgam_k_assemble(assembly_spec_from_json(raw))
    assert str(refused.value) == f"Km1 matrix does not have the {rank + 4} x 1 shape of the sheets"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "assemble", str(path))
    assert code == 3 and out == ""
    assert err == (f"error: the binary-octahedral sheet cites Km1 = Z^{rank} + Z/2, "
                   "but the engine computes Z + Z/2\n")


def _pb3_with_torsion(degree, torsion):
    """pb3rp2 whose cyclic:4 sheet cites `torsion` in `degree`, against
    the empty rows its shape asks for (the edge group's sheet is trivial
    there)."""
    raw = casebook.bundled_spec_json("pb3rp2")
    raw["sheets"][0][degree] = {"rank": 0, "torsion": torsion}
    rows = len(torsion) + len(raw["sheets"][1][degree]["torsion"])
    raw["maps"][DEGREES.index(degree)]["matrix"] = [[] for _ in range(rows)]
    return raw


@pytest.mark.parametrize("degree", ["Wh", "K0t"])
def test_assemble_refuses_a_sheet_one_summand_over_the_torsion_cap(degree, capsys, tmp_path):
    # eliminating the relations costs time cubic in the torsion count, even
    # against empty rows; one summand over the cap exits 2 while parsing
    n = TORSION_CAP + 1
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_pb3_with_torsion(degree, [2] * n)))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "assemble", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: cyclic:4 {degree} cites {n} torsion summands, over the cap {TORSION_CAP}\n"
    # at the cap the same spec assembles
    path.write_text(json.dumps(_pb3_with_torsion(degree, [2] * TORSION_CAP)))
    code, out, _ = run_cli(capsys, "assemble", str(path))
    assert code == 0 and f"(Z/2)^{TORSION_CAP + (degree == 'K0t')}" in out


def test_the_torsion_cap_is_read_before_any_summand():
    # the count is refused before the entries are read or combined, so a
    # long list costs no pass over its entries
    raw = _pb3_with_torsion("K0t", [2] * TORSION_CAP + ["not a divisor"])
    with pytest.raises(AssemblySpecError, match=f"cites {TORSION_CAP + 1} torsion summands"):
        assembly_spec_from_json(raw)


def test_assemble_kernel_of_a_map_into_the_trivial_group_is_its_source(capsys, tmp_path):
    # pb3's Km1 matrix has no rows, so no column count bounds the edge
    # group's rank; the kernel of the zero map is that sheet, built from
    # no vector.  The command refuses the sheet: K_-1(Z[Z/2]) = 0
    raw = casebook.bundled_spec_json("pb3rp2")
    raw["sheets"][2]["Km1"] = {"rank": 2 ** 70, "torsion": [2]}
    out = amalgam_k_assemble(assembly_spec_from_json(raw))
    assert out["K0t"].ker_shift.to_json() == {"rank": 2 ** 70, "torsion": [2]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "--format", "json", "assemble", str(path))
    assert code == 3 and out == ""
    assert err == f"error: the cyclic:2 sheet cites Km1 = Z^{2 ** 70} + Z/2, but the engine computes 0\n"


@pytest.mark.parametrize("name", ["b3rp2", "pb3rp2", "mcg_rp2_3"])
@pytest.mark.parametrize("degree, cited, shown, theorem", [
    ("K0t", {"rank": 1, "torsion": [2]}, "Z + Z/2", "reduced K_0(ZG) is finite (Swan)"),
    ("Km2", {"rank": 0, "torsion": [3]}, "Z/3", "K_-2(ZG) = 0 (Carter)"),
], ids=["K0t", "Km2"])
def test_assemble_refuses_cited_k_data_a_theorem_rules_out(name, degree, cited, shown, theorem,
                                                           capsys, tmp_path):
    raw = casebook.bundled_spec_json(name)
    sheet = raw["sheets"][-1]
    sheet[degree] = cited
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "assemble", str(path))
    assert code == 3 and out == ""
    assert err == f"error: the {sheet['group']} sheet cites {degree} = {shown}, but {theorem}\n"
    # the parser takes the same sheet: the check belongs to the command
    assembly_spec_from_json(raw)


@pytest.mark.parametrize("name, group, computed", [
    ("b3rp2", "binary-octahedral", "Z + Z/2"),
    ("pb3rp2", "cyclic:4", "0"),
    ("mcg_rp2_3", "symmetric:4", "0"),
])
def test_assemble_refuses_a_cited_km1_the_engine_contradicts(name, group, computed,
                                                             capsys, tmp_path):
    # the A sheet's K_-1 cited with Z/4 as its torsion (b3's Z/2, the
    # others' none): parsed, then refused
    raw = casebook.bundled_spec_json(name)
    sheet = raw["sheets"][0]
    assert sheet["group"] == group
    sheet["Km1"] = {"rank": sheet["Km1"]["rank"], "torsion": [4]}
    cited = FgAbelianGroup.from_divisors(sheet["Km1"]["rank"], [4])
    assembly_spec_from_json(raw)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "assemble", str(path))
    assert code == 3 and out == ""
    assert err == f"error: the {group} sheet cites Km1 = {cited}, but the engine computes {computed}\n"


@pytest.mark.parametrize("old, new, key", [
    ('"name": ', '"name": "first", "name": ', "name"),
    ('"Km1": ', '"Km1": {"rank": 7, "torsion": [2]}, "Km1": ', "Km1"),
], ids=["name", "Km1"])
def test_assemble_refuses_a_spec_key_given_twice(old, new, key, capsys, tmp_path):
    # the first "Km1" of the text is in O*'s sheet; a plain JSON reader
    # would keep the second value of each key silently
    text = json.dumps(casebook.bundled_spec_json("b3rp2"))
    twice = text.replace(old, new, 1)
    assert json.loads(twice) == json.loads(text)
    path = tmp_path / "spec.json"
    path.write_text(twice)
    assert run_cli(capsys, "assemble", str(path)) == (
        2, "", f"error: a spec object gives the key {key!r} twice\n")


@pytest.mark.parametrize("name", ["b3rp2", "pb3rp2", "mcg_rp2_3"])
def test_every_bundled_sheet_cites_the_wh_rank_of_bass(name):
    # r_R - r_Q is 1 for O* (8 classes, all closed under inversion, in 7
    # rational blocks) and for Dic24 (9 and 8), and 0 for the other seven
    for sheet in casebook.bundled_spec_json(name)["sheets"]:
        rank = bass_rank(build_group(sheet["group"]))
        assert rank == sheet["Wh"]["rank"], sheet["group"]
        assert rank == (sheet["group"] in ("binary-octahedral", "dicyclic:24"))


@pytest.mark.parametrize("sheet, rank, wh_matrix, assembled", [
    (1, 0, [[]], "Z + (Z/2)^(oo)"),
    (0, 2, [[], [], []], "Z^3 + (Z/2)^(oo)"),
], ids=["dicyclic:24", "binary-octahedral"])
def test_assemble_refuses_a_cited_wh_rank_that_contradicts_bass(sheet, rank, wh_matrix, assembled,
                                                                capsys, tmp_path):
    # b3's Wh is Z^2 + (Z/2)^(oo).  With the Wh map reshaped to the cited
    # rank, the library parses and assembles the spec; the command refuses it
    raw = casebook.bundled_spec_json("b3rp2")
    group = raw["sheets"][sheet]["group"]
    raw["sheets"][sheet]["Wh"] = {"rank": rank, "torsion": []}
    raw["maps"][0]["matrix"] = wh_matrix
    assert str(amalgam_k_assemble(assembly_spec_from_json(raw))["Wh"]) == assembled
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "assemble", str(path))
    assert code == 3 and out == ""
    assert err == (f"error: the {group} sheet cites Wh = {FgAbelianGroup(rank)}, "
                   "but its free rank is r_R - r_Q = 1 (Bass)\n")


@pytest.mark.parametrize("rank, code", [(1, 0), (2, 3)])
def test_assemble_holds_a_sheet_without_schur_data_to_the_carter_rank(rank, code, capsys,
                                                                      tmp_path):
    # no bundled sheet gives binary-tetrahedral's Schur data, so its cited
    # torsion stands and its free rank must be Carter's, 1.  It stands in
    # for b3's A, O*, whose cited Km1 is Z + Z/2: with rank 1 the Km1 map
    # keeps its shape and the spec assembles.  Its Wh has Bass's rank 0,
    # not O*'s 1, so the Wh map loses O*'s row.
    raw = casebook.bundled_spec_json("b3rp2")
    assert raw["sheets"][0]["group"] == raw["A"] == "binary-octahedral"
    raw["A"] = "binary-tetrahedral"
    raw["sheets"][0] = dict(raw["sheets"][0], group="binary-tetrahedral",
                            Wh={"rank": 0, "torsion": []}, Km1={"rank": rank, "torsion": [3]})
    raw["maps"][0]["matrix"] = [[]]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    got, out, err = run_cli(capsys, "assemble", str(path))
    assert got == code
    if code:
        assert out == "" and err == (
            f"error: the binary-tetrahedral sheet cites Km1 = Z^2 + Z/3, but the engine "
            "computes Z + unknown torsion (no bundled Schur data)\n")
    else:
        assert err == "" and "Km1" in out


def test_assemble_refuses_a_sheet_for_none_of_a_b_and_c(capsys, tmp_path):
    # a sheet beside A, B and C is refused as the spec is read, before any
    # group is built: cyclic:10000's table alone is hundreds of megabytes
    raw = casebook.bundled_spec_json("b3rp2")
    raw["sheets"].append(dict(raw["sheets"][2], group="cyclic:10000"))
    msg = "spec 'b3rp2' has a sheet for cyclic:10000, which is none of A, B and C"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    start = time.perf_counter()
    with pytest.raises(AssemblySpecError) as refused:
        assembly_spec_from_json(raw)
    assert str(refused.value) == msg
    code, out, err = run_cli(capsys, "assemble", str(path))
    assert (code, out, err) == (2, "", f"error: {msg}\n")
    assert time.perf_counter() - start < 1.0


_SPEC_WORDS = ("cyclic:2", "cyclic:4", "dicyclic:12", "dicyclic:24", "quaternion:8",
               "dihedral:3", "dihedral:6", "symmetric:4", "binary-octahedral",
               "binary-tetrahedral", "cyclic:0", "dicyclic:10", "cyclic:99999",
               "Wh", "K0t", "Km1", "Km2", "product", "semidirect", "amalgam",
               "rank", "torsion", "matrix", "group", "cite", "vc")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 80, 2 ** 80) | st.floats()
    | st.sampled_from(_SPEC_WORDS) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_SPEC_WORDS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


def _subtrees(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _subtrees(child, path + (key,))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("b3rp2", "pb3rp2", "mcg_rp2_3")), st.data())
def test_assemble_of_a_mutated_spec_exits_with_a_code(tmp_path_factory, name, data):
    # any JSON in place of any subtrees of a bundled spec: a documented
    # exit code (0 pass, 2 parse error, 3 ill-formed data), never a traceback
    raw = casebook.bundled_spec_json(name)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_subtrees(raw))))
        value = data.draw(_JSON)
        if not path:
            raw = value
        else:
            _set(path, value)(raw)
    spec = tmp_path_factory.getbasetemp() / "mutated-spec.json"
    spec.write_text(json.dumps(raw))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["assemble", str(spec)]) in (0, 2, 3)


def _run_python(*argv, timeout=30):
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def _run_module(*argv, timeout=30):
    return _run_python("-m", "lowerk", *argv, timeout=timeout)


_ASSEMBLE_K0T = """\
import json, sys
from lowerk.ktheory import amalgam_k_assemble, assembly_spec_from_json
with open(sys.argv[1], encoding="utf-8") as fh:
    k0t = amalgam_k_assemble(assembly_spec_from_json(json.load(fh)))["K0t"]
print(json.dumps({"ker_shift": k0t.ker_shift.to_json(), "pretty": str(k0t)}))
"""


def test_assemble_cited_torsion_of_a_large_prime(tmp_path):
    # Z/(2^61 - 1) in the edge group's K_-1, sent to 0, passes into reduced
    # K_0 as a kernel summand; nothing on the way may factor it.  (Its K_-2
    # would be refused: K_-2 of a finite group vanishes.)  The command
    # refuses the sheet, whose K_-1 Carter's formula gives as Z, and
    # names the torsion unfactored too
    m = 2 ** 61 - 1

    def edit(raw):
        raw["sheets"][2]["Km1"]["torsion"] = [m]
        raw["maps"][2]["matrix"] = [[0, 0], [0, 0], [0, 1], [0, 1], [0, 0]]
    path = tmp_path / "spec.json"
    path.write_text(_b3_with(edit))
    done = _run_python("-c", _ASSEMBLE_K0T, str(path))
    assert done.returncode == 0, done.stderr
    k0t = json.loads(done.stdout)
    assert k0t["ker_shift"] == {"rank": 0, "torsion": [m]}
    assert k0t["pretty"] == f"(Z/2)^3 + Z/{2 * m} + (Z/2)^(oo)"
    done = _run_module("--format", "json", "assemble", str(path))
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == f"error: the dicyclic:12 sheet cites Km1 = Z + Z/{m}, but the engine computes Z\n"


def test_fusion_prime_of_nineteen_digits():
    done = _run_module("classes", "cyclic:6", "--fusion", "fp:1000000000000000003")
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 7    # header and six singleton blocks
    done = _run_module("classes", "cyclic:6", "--fusion", "fp:1000000000000000001")
    assert done.returncode == 2 and "not prime" in done.stderr


GROUP_NAME_DEFECTS = {
    "superscript-2": "cyclic:\u00b2",
    "fullwidth-12": "cyclic:\uff11\uff12",
    "arabic-indic-3": "dihedral:\u0663",
    "5000-digits": "cyclic:" + "1" * 5000,
    "order-200000-factorial": "symmetric:200000",
}


@pytest.mark.parametrize("name", GROUP_NAME_DEFECTS.values(), ids=GROUP_NAME_DEFECTS)
def test_group_name_defects_exit_2(name):
    # n is ASCII digits (int() refuses a superscript and reads other
    # scripts' digits), and is held to the cap before any order is computed
    done = _run_module("group", "info", name)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
    assert repr(name) in done.stderr


@pytest.mark.parametrize("path, value", [
    (("A",), ["dicyclic:12"]), (("C",), {"cyclic:2": 1}), (("sheets", 0, "group"), ["cyclic:2"]),
    (("maps", 0, "source"), ["cyclic:2"]), (("maps", 1, "source"), 2),
], ids=["list-A", "object-C", "list-sheet-group", "list-map-source", "int-map-source"])
def test_assemble_refuses_a_group_name_that_is_not_a_string(path, value, capsys, tmp_path):
    # the refusal comes before the parse cache, which cannot hash a list
    spec = tmp_path / "spec.json"
    spec.write_text(_b3_with(_set(path, value)))
    assert run_cli(capsys, "assemble", str(spec)) == (
        2, "", f"error: group name {value!r} is not a string\n")


@pytest.mark.parametrize("value", [["x"], {}, 8, None])
def test_a_group_name_that_is_not_a_string_is_an_unknown_spec(value):
    with pytest.raises(errors.UnknownSpec, match="is not a string"):
        canonical_group_name(value)
    with pytest.raises(errors.UnknownSpec, match="is not a string"):
        build_group(value)


@pytest.mark.parametrize("path", [("C",), ("sheets", 2, "group"), ("maps", 0, "source")],
                         ids=["edge-group", "sheet-group", "map-source"])
def test_assemble_refuses_a_superscript_group_name(path, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(_b3_with(_set(path, "cyclic:\u00b2")))
    done = _run_module("assemble", str(spec))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


def test_assemble_refuses_a_deeply_nested_spec(tmp_path):
    # json.load recurses once per bracket; past the interpreter's limit
    # that is a spec error, not a traceback
    spec = tmp_path / "deep.json"
    spec.write_text("[" * 200000)
    done = _run_module("assemble", str(spec))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1


def test_closed_stdout_ends_quietly():
    # the read end closes while the child is still importing, so its first
    # write meets a closed pipe: the process stops with exit 1 and no traceback
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "lowerk", "--format", "json", "ksheet",
                             "binary-octahedral"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=30) == 1
    assert err == b""


@pytest.mark.parametrize("name", ["a\x00b", "a" * 300], ids=["nul-byte", "overlong"])
def test_assemble_refuses_a_name_no_file_can_have(capsys, name):
    # neither is a file, so each is looked up as a bundled spec name, where
    # the file system refuses it with ValueError or OSError
    code, out, err = run_cli(capsys, "assemble", name)
    assert code == 2 and out == ""
    assert err.startswith("error: no such spec file or bundled spec")


def test_unknown_case_exits_2_and_names_the_cases(capsys):
    code, out, err = run_cli(capsys, "verify", "teichmueller")
    assert code == 2 and out == ""
    assert err == "error: unknown case 'teichmueller'; choose from pb3, b3, mcg-rp2-3, words, all\n"


# The exit code of every error class, kept by hand: a class missing here
# fails the test, so a new refusal has to choose its family.
_EXIT_CODES = {
    "UsageError": 2, "UnknownSpec": 2, "OrderLimitExceeded": 2, "NotPrime": 2,
    "MissingDegree": 2, "AssemblySpecError": 2,
    "DataGap": 3, "UnknownSchurData": 3, "IllFormedMap": 3,
    "LowerKError": 1, "PresentationCollapse": 1, "NotNormal": 1, "NotInjective": 1,
    "NotHomomorphism": 1, "LimitExceeded": 1, "UnknownSymbol": 1,
}


def _error_classes(cls=errors.LowerKError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


_ERROR_CLASSES = sorted(set(_error_classes()), key=lambda cls: cls.__name__)


def test_the_exit_code_table_names_every_error_class():
    assert sorted(cls.__name__ for cls in _ERROR_CLASSES) == sorted(_EXIT_CODES)


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_an_error_exits_with_its_family_code(cls, capsys, monkeypatch):
    exc = cls(9, 4) if cls is errors.LimitExceeded else cls("refused")

    def refuse(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_group_info", refuse)
    code, out, err = run_cli(capsys, "group", "info", "cyclic:2")
    assert code == _EXIT_CODES[cls.__name__]
    assert out == "" and err == f"error: {exc}\n"


# The CLI's own vocabulary: group names with n <= 64, fusion flags, bundled
# spec and case names.  symmetric:6 and symmetric:7 are legal but slow
# (orders 720 and 5040), so they are left out; symmetric:8 and up are
# refused by the order cap at once.
_GROUP_NAMES = ["binary-octahedral", "binary-tetrahedral"] + [
    f"{family}:{n}" for family in ("cyclic", "dihedral", "dicyclic", "quaternion", "symmetric")
    for n in range(65) if not (family == "symmetric" and n in (6, 7))]
_FUSION_FLAGS = ["q"] + [f"{kind}:{p}" for kind in ("qp", "fp", "singular")
                         for p in (0, 1, 2, 3, 4, 97)]
_SPEC_NAMES = [name for spec in ("b3rp2", "pb3rp2", "mcg_rp2_3") for name in (spec, f"{spec}.json")]
_COMMANDS = {("group", "info"): _GROUP_NAMES, ("classes",): _GROUP_NAMES,
             ("ksheet",): _GROUP_NAMES, ("assemble",): _SPEC_NAMES,
             ("verify",): [*casebook.CASES, "all"]}
_WORDS = sorted({w for head, args in _COMMANDS.items() for w in (*head, *args)}
                | {"--format", "table", "json", "--fusion", "--help", "-h", "-", "--coset-limit",
                   *_FUSION_FLAGS})


def _token(words=_WORDS):
    """A word of `words`, any word of the vocabulary, or arbitrary text."""
    return st.one_of(st.sampled_from(words), st.sampled_from(_WORDS), st.text(max_size=12))


# a command with an argument of its own kind and options, so that many
# draws get past the parser
_OPTIONS = st.lists(st.one_of(st.tuples(st.just("--fusion"), _token(_FUSION_FLAGS)),
                              st.tuples(st.just("--format"), _token(["table", "json"]))),
                    max_size=2).map(lambda opts: [x for opt in opts for x in opt])
_COMMAND = st.one_of([st.builds(lambda arg, opts, head=head: [*head, arg, *opts],
                                _token(args), _OPTIONS)
                      for head, args in _COMMANDS.items()])


@settings(max_examples=250, deadline=None)
@given(st.one_of(st.lists(_token(), max_size=6), _COMMAND))
def test_main_exits_0_to_3_on_any_argv(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# the earlier argparse parser, kept as an oracle for the hand parser
# ---------------------------------------------------------------------------

def _seed_build_parser():
    import argparse

    # common flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"),
                        default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="lowerk",
        description="Lower K-theory of integral group rings of amalgams of finite groups.")
    parser.add_argument("--format", choices=("table", "json"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="group inspection", parents=[common])
    group_sub = group.add_subparsers(dest="subcommand", required=True)
    info = group_sub.add_parser("info", help="order, center, classes, element orders",
                                parents=[common])
    info.add_argument("name")

    classes = sub.add_parser("classes", help="fused or p-singular class tables",
                             parents=[common])
    classes.add_argument("name")
    classes.add_argument("--fusion", required=True,
                         help="q | qp:<p> | fp:<p> | singular:<p>")

    ksheet = sub.add_parser("ksheet", help="representation counts and K_-1 data",
                            parents=[common])
    ksheet.add_argument("name")

    assemble = sub.add_parser("assemble", help="assemble K-theory from a spec file",
                              parents=[common])
    assemble.add_argument("spec")

    verify = sub.add_parser("verify", help="run a bundled verification case",
                            parents=[common])
    verify.add_argument("case", help="a bundled case name, or all")
    return parser


def _seed_reading(argv):
    """The seed parser's reading of argv: "help", "error", or the command's
    words, its argument, the format and the fusion flag."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            ns = _seed_build_parser().parse_args(argv)
        except SystemExit as exc:
            return "help" if exc.code == 0 else "error"
    head = (ns.command, ns.subcommand) if ns.command == "group" else (ns.command,)
    arg = next(getattr(ns, dest) for dest in ("name", "spec", "case") if hasattr(ns, dest))
    return head, arg, ns.format, getattr(ns, "fusion", None)


def _read_as_the_seed_did(argv):
    """False when argparse reads a word in a way the hand parser refuses by
    design: an abbreviated option, `--`, which ends argparse's options, or
    a dash word it takes as a value, for holding a space or looking like a
    negative number (a rule that Python 3.13 widened)."""
    for word in argv:
        opt = word.partition("=")[0]
        if (word == "--" or len(opt) > 2 and any(
                full != opt and full.startswith(opt) for full in ("--format", "--fusion", "--help"))
                or word[:1] == "-" and (" " in word or re.match(r"-\.?\d", word))):
            return False
    return True


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_token(), max_size=6), _COMMAND).filter(_read_as_the_seed_did))
def test_parse_args_reads_argv_as_the_seed_parser(argv):
    seed = _seed_reading(argv)
    if "-h" in argv or "--help" in argv:
        # help wins anywhere; the seed let an earlier misuse win instead
        assert cli.parse_args(argv) is None and seed in ("help", "error")
        return
    try:
        args = cli.parse_args(argv)
    except errors.UsageError:
        assert seed == "error"
    else:
        assert seed == (args.command, getattr(args, cli._COMMANDS[args.command]),
                        args.format, args.fusion)
