import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from lowerk import casebook
from lowerk.abelian import FgAbelianGroup
from lowerk.cli import main
from lowerk.errors import AssemblySpecError
from lowerk.ktheory import assembly_spec_from_json, bundled_ksheets


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
    assert data["negk_consistent"] is True


def test_ksheet_trivial(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "ksheet", "cyclic:1")
    assert code == 0
    data = json.loads(out)
    assert data["carter_rank"] == 0 and data["sc_rank"] == 0


def test_ksheet_flags_a_bundled_sheet_that_contradicts_carter(capsys, monkeypatch):
    # Carter's formula gives Z + Z/2 for the binary octahedral group
    sheet = bundled_ksheets()["binary-octahedral"]
    monkeypatch.setitem(sheet.entries, "Km1", FgAbelianGroup(1, (4,)))
    code, out, _ = run_cli(capsys, "--format", "json", "ksheet", "binary-octahedral")
    assert code == 0
    data = json.loads(out)
    assert data["negk_consistent"] is False
    assert data["K_-1_pretty"] == "Z + Z/2"
    code, out, _ = run_cli(capsys, "ksheet", "binary-octahedral")
    assert code == 0
    assert out.splitlines()[-1].split() == ["negk", "consistent", "NO"]


def test_ksheet_unknown_schur_data_exits_3(capsys):
    code, out, _ = run_cli(capsys, "ksheet", "binary-tetrahedral")
    assert code == 3
    assert "carter rank" in out  # the rank is still printed


def test_ksheet_looks_schur_data_up_by_isomorphism_class(capsys):
    # symmetric:3 is no table name, but its class is that of dihedral:3
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
    # the one enumeration the CLI runs is the bundled binary-octahedral
    # presentation, so no flag bounds it
    for argv in (["--coset-limit", "5", "group", "info", "binary-octahedral"],
                 ["ksheet", "binary-octahedral", "--coset-limit", "500"]):
        proc = _run_module(*argv)
        assert proc.returncode == 2 and not proc.stdout
        assert "lowerk: error:" in proc.stderr and "Traceback" not in proc.stderr


def test_reports_identical_bytes_across_processes():
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "lowerk", "--format", "json", "verify", "words"]
    first = subprocess.run(cmd, capture_output=True).stdout
    second = subprocess.run(cmd, capture_output=True).stdout
    assert first and first == second


def test_usage_error(capsys):
    assert main([]) == 2
    assert main(["group"]) == 2


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
    # any relation vector of that length is built
    path = tmp_path / "spec.json"
    path.write_text(_b3_with(_set(("sheets", 0, "Km1", "rank"), rank)))
    code, out, err = run_cli(capsys, "assemble", str(path))
    assert code == 3 and out == ""
    assert err == f"error: Km1 matrix does not have the {rank + 4} x 1 shape of the sheets\n"


def test_assemble_kernel_of_a_map_into_the_trivial_group_is_its_source(capsys, tmp_path):
    # pb3's Km1 matrix has no rows, so no column count bounds the edge
    # group's rank; the kernel of the zero map is that sheet, built from
    # no vector
    raw = casebook.bundled_spec_json("pb3rp2")
    raw["sheets"][2]["Km1"] = {"rank": 2 ** 70, "torsion": [2]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run_cli(capsys, "--format", "json", "assemble", str(path))
    assert code == 0
    assert json.loads(out)["degrees"]["K0t"]["ker_shift"] == {"rank": 2 ** 70, "torsion": [2]}


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


def _run_module(*argv, timeout=30):
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, "-m", "lowerk", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_assemble_cited_torsion_of_a_large_prime(tmp_path):
    # Z/(2^61 - 1) in the edge group's lowest degree passes into K_-1 as a
    # kernel summand; nothing on the way may factor it
    m = 2 ** 61 - 1
    path = tmp_path / "spec.json"
    path.write_text(_b3_with(_set(("sheets", 2, "Km2", "torsion"), [m])))
    done = _run_module("--format", "json", "assemble", str(path))
    assert done.returncode == 0, done.stderr
    km1 = json.loads(done.stdout)["degrees"]["Km1"]
    assert km1["ker_shift"] == {"rank": 0, "torsion": [m]}
    assert km1["pretty"] == f"Z^2 + Z/2 + Z/{2 * m}"


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
                | {"--format", "table", "json", "--fusion", "--help", *_FUSION_FLAGS})


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
