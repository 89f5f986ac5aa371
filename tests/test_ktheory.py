import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lowerk import ktheory
from lowerk.abelian import FgAbelianGroup, TRIVIAL_GROUP
from lowerk.errors import (
    AssemblySpecError,
    IllFormedMap,
    MissingDegree,
    UnknownSchurData,
)
from lowerk.groups import (
    build_group,
    canonical_group_name,
    center,
    dicyclic_group,
    quotient,
    subgroup_as_group,
    subgroup_generated,
)
from lowerk.ktheory import (
    DEGREES,
    NIL_COUNTABLE_SUM_Z2,
    NIL_UNKNOWN,
    NIL_ZERO,
    NilValue,
    amalgam_k_assemble,
    assembly_spec_from_json,
    bass_rank,
    bundled_ksheets,
    bundled_spec_json,
    carter_rank,
    carter_stages,
    is_dihedral,
    k_minus1,
    nil_classify,
    nil_sum,
    schur_even_count,
    vc_from_json,
    vc_str,
)

CARTER_TABLE = {
    "binary-octahedral": 1,
    "dicyclic:24": 2,
    "dicyclic:12": 1,
    "quaternion:8": 0,
    "cyclic:4": 0,
    "cyclic:2": 0,
    "symmetric:4": 0,
    "dihedral:3": 0,
    "dihedral:6": 1,
    "cyclic:1": 0,
}


@pytest.mark.parametrize("name,rank", sorted(CARTER_TABLE.items()))
def test_carter_ranks(name, rank):
    assert carter_rank(build_group(name)) == rank


def test_sc_rank_values():
    def sc_rank(G):
        return carter_stages(G)[2]

    assert sc_rank(build_group("cyclic:1")) == 0
    assert sc_rank(build_group("cyclic:2")) == 1
    D12 = build_group("dicyclic:12")
    r_q = carter_stages(D12)[0]
    # rank identity: singular rank = carter rank + (r_Q - 1)
    assert sc_rank(D12) == 1 + (r_q - 1)
    for name in ("cyclic:8", "quaternion:8", "dicyclic:24", "symmetric:4",
                 "dihedral:3", "dihedral:6", "binary-octahedral"):
        assert sc_rank(build_group(name)) >= 0


def _divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("n", range(1, 61))
def test_bass_rank_of_cyclic_and_dihedral_groups(n):
    # Z/n has floor(n/2) + 1 classes up to inversion and tau(n) rational
    # classes, one per element order.  Every element of D_n is conjugate to
    # its inverse; its rotations fuse into tau(n) rational classes and its
    # reflections form 1 class for odd n, 2 for even n
    assert bass_rank(build_group(f"cyclic:{n}")) == n // 2 + 1 - _divisor_count(n)
    D = build_group(f"dihedral:{n}")
    classes = len(D.invariants().classes)
    assert bass_rank(D) == classes - (_divisor_count(n) + (1 if n % 2 else 2))


def test_bundled_sheets_are_the_trivial_group_and_those_the_specs_cite():
    cited = {canonical_group_name(raw["group"])
             for spec in ("b3rp2", "mcg_rp2_3", "pb3rp2")
             for raw in bundled_spec_json(spec)["sheets"]}
    assert set(bundled_ksheets()) == cited | {"cyclic:1"} == set(CARTER_TABLE)
    assert bundled_ksheets()["cyclic:1"].entries == {deg: TRIVIAL_GROUP for deg in DEGREES}


def test_negk_consistency_on_bundled_groups():
    # every bundled sheet cites the K_-1 that Carter's formula computes
    for name, sheet in bundled_ksheets().items():
        assert sheet.entries["Km1"] == k_minus1(build_group(name)), name


def test_k_minus1_values():
    assert k_minus1(build_group("dicyclic:12")) == FgAbelianGroup(1)
    assert k_minus1(build_group("binary-octahedral")) == FgAbelianGroup(1, (2,))
    assert k_minus1(build_group("dicyclic:24")) == FgAbelianGroup(2, (2,))
    assert k_minus1(build_group("cyclic:8")) == TRIVIAL_GROUP
    assert k_minus1(build_group("dihedral:6")) == FgAbelianGroup(1)


def test_k_minus1_of_abelian_groups_needs_no_lookup():
    # a commutative group algebra splits into fields: s = 0 whatever the name
    q8 = build_group("quaternion:8")
    klein = quotient(q8, center(q8))
    for G in (build_group("dihedral:2"), build_group("symmetric:2"), klein):
        assert k_minus1(G) == TRIVIAL_GROUP, G.name
    with pytest.raises(UnknownSchurData):   # the table holds no Klein group
        schur_even_count(klein)


@pytest.mark.parametrize("n", range(2, 25))
def test_dihedral_groups_are_told_from_others_of_their_order(n):
    # an element of order n and an involution outside it that inverts it:
    # D_2n has them, Z/2n and (for even n) Dic_2n do not, and a dihedral
    # group with no bundled sheet gets s = 0 without a lookup
    D = build_group(f"dihedral:{n}")
    assert is_dihedral(D) and k_minus1(D) == FgAbelianGroup(carter_rank(D))
    others = [f"cyclic:{2 * n}"] + [f"dicyclic:{2 * n}"] * (n % 2 == 0 and n >= 4)
    for name in others:
        G = build_group(name)
        assert G.order == D.order and not is_dihedral(G), name


def test_only_dihedral_groups_are_dihedral():
    assert is_dihedral(build_group("symmetric:3")) and is_dihedral(build_group("cyclic:2"))
    for name in ("cyclic:1", "quaternion:8", "symmetric:4", "binary-octahedral"):
        assert not is_dihedral(build_group(name)), name


def test_k_minus1_unknown_schur_data():
    with pytest.raises(UnknownSchurData):
        k_minus1(build_group("binary-tetrahedral"))
    with pytest.raises(UnknownSchurData):
        schur_even_count(build_group("dicyclic:16"))


def test_binary_icosahedral_group_and_its_central_quotient():
    # <s, t | (st)^2 = s^3 = t^5> closes at 120 with a centre of order 2;
    # its quotient is A5, of Carter rank 0, whose 5 classes are all real and
    # whose two classes of 5-cycles fuse rationally, so r_R - r_Q = 1
    G = build_group("binary-icosahedral")
    assert G.order == 120 and len(G.invariants().classes) == 9 and center(G).order == 2
    assert carter_rank(G) == 2 and bass_rank(G) == 2
    with pytest.raises(UnknownSchurData):   # no bundled sheet of its class
        k_minus1(G)
    A5 = quotient(G, center(G))
    assert A5.order == 60 and center(A5).order == 1
    assert sorted(map(len, A5.invariants().classes)) == [1, 12, 12, 15, 20]
    assert carter_rank(A5) == 0 and bass_rank(A5) == 1


def test_schur_count_is_looked_up_by_name():
    # a quotient's name such as 'binary-octahedral/N2' is no group name, so
    # the quotient, though it is S4, has no sheet: a data gap, not a guess
    O = build_group("binary-octahedral")
    S4 = quotient(O, center(O))
    with pytest.raises(UnknownSchurData):
        schur_even_count(S4)
    with pytest.raises(UnknownSchurData):
        k_minus1(S4)
    assert k_minus1(build_group("symmetric:4")) == TRIVIAL_GROUP
    # S3 has no sheet of its own; it is dihedral, so k_minus1 needs none
    with pytest.raises(UnknownSchurData):
        schur_even_count(build_group("symmetric:3"))
    assert k_minus1(build_group("symmetric:3")) == k_minus1(build_group("dihedral:3"))
    # other labels, the same name and the same table
    assert schur_even_count(dicyclic_group(24, ("Y", "Z"))) == 1
    with pytest.raises(UnknownSchurData):
        schur_even_count(build_group("binary-tetrahedral"))


def test_a_misnamed_group_gets_no_sheet():
    # the binary tetrahedral subgroup of O* has Dic24's name and order, not
    # its table: the sheet of that name does not serve it (s = 1 would)
    O = build_group("binary-octahedral")
    labels = {s: O.generator_labels[s] for s in ("P", "Q", "X")}
    T, _ = subgroup_as_group(subgroup_generated(O, labels.values()), "dicyclic:24", labels)
    assert T.name == "dicyclic:24" and T.order == 24
    with pytest.raises(UnknownSchurData):
        k_minus1(T)
    with pytest.raises(UnknownSchurData):
        schur_even_count(T)


def test_the_schur_lookup_runs_no_isomorphism_search(monkeypatch, capsys):
    # with the search gone, each bundled sheet's ksheet and each bundled
    # spec's assembly print their goldens, and binary-tetrahedral still
    # exits 3
    from lowerk import groups
    from lowerk.cli import main

    def refuse(*args):
        raise AssertionError("is_isomorphic was called")

    # every loaded module that holds the search by name gets the refusal
    search = groups.is_isomorphic
    for module in [m for name, m in sys.modules.items() if name.startswith("lowerk")]:
        if getattr(module, "is_isomorphic", None) is search:
            monkeypatch.setattr(module, "is_isomorphic", refuse)
    golden = Path(__file__).parent / "golden"
    argvs = [["ksheet", name] for name in sorted(bundled_ksheets())]
    argvs += [["assemble", f"{spec}.json"] for spec in ("b3rp2", "mcg_rp2_3", "pb3rp2")]
    for argv in argvs:
        want = (golden / ("_".join(argv).replace(":", "-") + ".json")).read_text()
        assert main(["--format", "json", *argv]) == 0, argv
        assert capsys.readouterr().out == want, argv
    assert main(["ksheet", "binary-tetrahedral"]) == 3


def test_bundled_sheets_match_carter():
    # every bundled sheet cites the K_-1 that Carter's formula computes; the
    # torsion half is the sheet's own, read back by the group's name
    for name, sheet in bundled_ksheets().items():
        G = build_group(name)
        assert sheet.entries["Km1"] == k_minus1(G), name
        assert sheet.entries["Km2"] == TRIVIAL_GROUP


# the lookup builds no group but the one of the looked-up name, which the
# probe has built already, so only building the binary octahedral group,
# the one bundled group made by coset enumeration, runs an enumeration
_ENUMERATIONS_OF_A_LOOKUP = """
from lowerk import groups, presentations
from lowerk.ktheory import k_minus1

calls = []
def counted(*args, **kwargs):
    calls.append(args)
    return presentations.todd_coxeter(*args, **kwargs)

groups.todd_coxeter = counted
G = groups.build_group(NAME)
k_minus1(G)
print(len(calls))
"""


@pytest.mark.parametrize("name, enumerations", [
    ("quaternion:8", 0), ("dicyclic:12", 0), ("dicyclic:24", 0),
    # the probe sees the one enumeration that builds the group itself
    ("binary-octahedral", 1),
])
def test_schur_lookup_of_a_dicyclic_group_runs_no_coset_enumeration(name, enumerations):
    assert _enumerations_of_a_lookup(name) == enumerations


@pytest.mark.parametrize("name", ["symmetric:4", "dihedral:3", "dihedral:6", "symmetric:3"])
def test_schur_lookup_builds_no_sheet_group_of_another_order(name):
    # these sheets follow the binary octahedral one, which is never built
    assert _enumerations_of_a_lookup(name) == 0


def _enumerations_of_a_lookup(name):
    """Todd-Coxeter runs of building `name` and its K_-1, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    probe = _ENUMERATIONS_OF_A_LOOKUP.replace("NAME", repr(name))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def test_bundled_sheet_golden_rows():
    sheets = bundled_ksheets()
    ostar = sheets["binary-octahedral"]
    assert str(ostar.entries["Km1"]) == "Z + Z/2"
    assert str(ostar.entries["K0t"]) == "(Z/2)^2"
    assert str(ostar.entries["Wh"]) == "Z"
    d24 = sheets["dicyclic:24"]
    assert str(d24.entries["Km1"]) == "Z^2 + Z/2"
    assert str(d24.entries["K0t"]) == "(Z/2)^3"
    assert str(d24.entries["Wh"]) == "Z"
    d12 = sheets["dicyclic:12"]
    assert str(d12.entries["Km1"]) == "Z"
    assert str(d12.entries["K0t"]) == "Z/2"
    assert str(d12.entries["Wh"]) == "0"
    assert sheets[build_group("dicyclic:8").name] is sheets["quaternion:8"]


def test_nil_classify_ledger():
    assert nil_classify(("product", ("cyclic:2",))).tag == NIL_ZERO
    assert nil_classify(("product", ("cyclic:4",))).tag == NIL_COUNTABLE_SUM_Z2
    assert nil_classify(("amalgam", ("cyclic:4", "cyclic:2", "cyclic:4"))).tag == NIL_ZERO
    assert nil_classify(("amalgam", ("quaternion:8", "cyclic:4", "quaternion:8"))).tag \
        == NIL_COUNTABLE_SUM_Z2
    assert nil_classify(("amalgam", ("dicyclic:8", "cyclic:4", "quaternion:8"))).tag \
        == NIL_COUNTABLE_SUM_Z2
    assert nil_classify(("amalgam", ("cyclic:2", "cyclic:1", "cyclic:2"))).tag == NIL_ZERO
    assert nil_classify(("amalgam", ("dihedral:2", "cyclic:2", "dihedral:2"))).tag == NIL_ZERO
    assert nil_classify(("product", ("cyclic:16",))).tag == NIL_UNKNOWN
    assert nil_classify(("semidirect", ("cyclic:4",))).tag == NIL_UNKNOWN
    unknown = nil_classify(("product", ("cyclic:16",)))
    assert unknown.provenance == "no bundled result for cyclic:16 x Z"


def test_vc_from_json_and_printed_forms():
    for data, printed in (({"type": "product", "finite": "cyclic:2"}, "cyclic:2 x Z"),
                          ({"type": "semidirect", "finite": "cyclic:4"}, "cyclic:4 : Z"),
                          ({"type": "amalgam", "left": "cyclic:2", "edge": "cyclic:1",
                            "right": "cyclic:2"}, "cyclic:2 *_cyclic:1 cyclic:2")):
        assert vc_str(vc_from_json(data)) == printed


def test_nil_sum_and_equality():
    zero = NilValue(NIL_ZERO, "a")
    big = NilValue(NIL_COUNTABLE_SUM_Z2, "b")
    unk = NilValue(NIL_UNKNOWN, "gap")
    assert nil_sum([]).tag == NIL_ZERO
    assert nil_sum([zero, zero]).tag == NIL_ZERO
    assert nil_sum([zero, big]).tag == NIL_COUNTABLE_SUM_Z2
    assert nil_sum([big, unk]).tag == NIL_UNKNOWN
    assert zero == NilValue(NIL_ZERO, "different provenance")
    assert zero != big and unk != zero


def _assemble(name):
    return amalgam_k_assemble(assembly_spec_from_json(bundled_spec_json(name)))


def test_assemble_pb3():
    out = _assemble("pb3rp2")
    assert out["Wh"].abelian == TRIVIAL_GROUP and out["Wh"].nil.tag == NIL_ZERO
    assert out["K0t"].abelian == FgAbelianGroup(0, (2,))
    assert out["Km1"].abelian == TRIVIAL_GROUP
    assert out["Km2"].abelian == TRIVIAL_GROUP


def test_assemble_b3():
    out = _assemble("b3rp2")
    assert out["Wh"].abelian == FgAbelianGroup(2)
    assert out["Wh"].nil.tag == NIL_COUNTABLE_SUM_Z2
    assert out["K0t"].abelian == FgAbelianGroup(0, (2, 2, 2, 2))
    assert out["K0t"].nil.tag == NIL_COUNTABLE_SUM_Z2
    assert out["Km1"].abelian == FgAbelianGroup(2, (2, 2))
    assert out["Km1"].nil.tag == NIL_ZERO
    assert out["Km2"].abelian == TRIVIAL_GROUP
    assert str(out["Km1"]) == "Z^2 + (Z/2)^2"


def test_assemble_mcg():
    out = _assemble("mcg_rp2_3")
    assert out["Km1"].abelian == FgAbelianGroup(1)
    for deg in ("Wh", "K0t", "Km2"):
        assert out[deg].abelian == TRIVIAL_GROUP
        assert out[deg].nil.tag == NIL_ZERO


def test_identity_maps_give_zero_cokernels():
    sheet = {"rank": 0, "torsion": [2]}
    zero = {"rank": 0, "torsion": []}
    data = {
        "name": "synthetic",
        "A": "cyclic:4", "B": "cyclic:2", "C": "cyclic:4",
        "sheets": [
            {"group": "cyclic:4", "Wh": sheet, "K0t": zero, "Km1": zero, "Km2": zero,
             "cite": "synthetic"},
            {"group": "cyclic:2", "Wh": zero, "K0t": zero, "Km1": zero, "Km2": zero,
             "cite": "synthetic"},
        ],
        "maps": [
            {"degree": "Wh", "matrix": [[1]], "source": "cyclic:4", "cite": "identity"},
            {"degree": "K0t", "matrix": [], "source": "cyclic:4", "cite": "zero"},
            {"degree": "Km1", "matrix": [], "source": "cyclic:4", "cite": "zero"},
            {"degree": "Km2", "matrix": [], "source": "cyclic:4", "cite": "zero"},
        ],
        "nils": [],
    }
    out = amalgam_k_assemble(assembly_spec_from_json(data))
    for deg in DEGREES:
        assert out[deg].coker == TRIVIAL_GROUP


def _spellings(raw):
    """Every group name a spec spells: sheets, A, B, C, map sources, vcs."""
    names = {sheet["group"] for sheet in raw["sheets"]} | {raw[key] for key in "ABC"}
    names |= {entry["source"] for entry in raw["maps"]}
    return names | {name for nil in raw["nils"] for key, name in nil["vc"].items() if key != "type"}


@pytest.mark.parametrize("spec", ["pb3rp2", "b3rp2", "mcg_rp2_3"])
def test_a_nil_free_spec_parses_each_group_name_once(spec):
    # each spelling is parsed once; A, B, C and every map source hit the
    # cache however often the assembly looks them up
    from lowerk import groups

    raw = copy.deepcopy(bundled_spec_json(spec))
    raw["nils"] = []
    groups._parse_text.cache_clear()
    parsed = assembly_spec_from_json(raw)
    for _ in range(2):
        amalgam_k_assemble(parsed)
    assert groups._parse_text.cache_info().misses == len(_spellings(raw))
    assembly_spec_from_json(raw)
    assert groups._parse_text.cache_info().misses == len(_spellings(raw))
    # a name spelt otherwise than its sheet is parsed on its first lookup only
    other = f" {parsed.group_c}"
    assert parsed.sheet(other) is parsed.sheet(other) is parsed.sheet(parsed.group_c)
    assert groups._parse_text.cache_info().misses == len(_spellings(raw)) + 1


@pytest.mark.parametrize("spec", ["pb3rp2", "b3rp2", "mcg_rp2_3"])
def test_a_spec_parses_each_group_name_once_with_its_nils(spec):
    # each Nil entry is classified when the spec is parsed: its names miss
    # the cache once each, like every other spelling of the spec, and
    # assembling, however often, or parsing the spec again misses nothing
    from lowerk import groups

    raw = bundled_spec_json(spec)
    groups._parse_text.cache_clear()
    parsed = assembly_spec_from_json(raw)
    assert groups._parse_text.cache_info().misses == len(_spellings(raw))
    for _ in range(2):
        amalgam_k_assemble(parsed)
    assembly_spec_from_json(raw)
    assert groups._parse_text.cache_info().misses == len(_spellings(raw))


def test_unlisted_vc_type_propagates_as_unknown():
    raw = copy.deepcopy(bundled_spec_json("pb3rp2"))
    raw["nils"].append({"vc": {"type": "product", "finite": "cyclic:16"},
                        "cite": "outside the ledger"})
    out = amalgam_k_assemble(assembly_spec_from_json(raw))
    assert out["Wh"].nil.tag == NIL_UNKNOWN
    assert out["K0t"].nil.tag == NIL_UNKNOWN
    # degrees at and below -1 never carry twisted summands
    assert out["Km1"].nil.tag == NIL_ZERO
    assert str(out["Wh"]) == "Nil?"


def test_bundled_spec_reader_refuses_a_key_given_twice(tmp_path, monkeypatch):
    # a plain JSON reader keeps the last value silently
    text = (Path(ktheory.__file__).parent / "specs" / "b3rp2.json").read_text()
    twice = text.replace('"name": ', '"name": "first", "name": ', 1)
    assert json.loads(twice) == json.loads(text)
    (tmp_path / "b3rp2.json").write_text(twice)
    monkeypatch.setattr(ktheory, "_SPECS_DIR", str(tmp_path))
    with pytest.raises(AssemblySpecError, match="gives the key 'name' twice"):
        bundled_spec_json("b3rp2")


def test_spec_schema_violations():
    raw = bundled_spec_json("b3rp2")
    missing_cite = copy.deepcopy(raw)
    missing_cite["maps"][0]["cite"] = ""
    with pytest.raises(AssemblySpecError):
        assembly_spec_from_json(missing_cite)

    missing_degree = copy.deepcopy(raw)
    missing_degree["maps"] = [m for m in missing_degree["maps"] if m["degree"] != "Km1"]
    with pytest.raises(MissingDegree):
        assembly_spec_from_json(missing_degree)

    bad_shape = copy.deepcopy(raw)
    bad_shape["maps"][2]["matrix"] = [[0], [0], [1]]
    with pytest.raises(IllFormedMap):
        amalgam_k_assemble(assembly_spec_from_json(bad_shape))

    wrong_source = copy.deepcopy(raw)
    wrong_source["maps"][0]["source"] = "cyclic:2"
    with pytest.raises(AssemblySpecError):
        assembly_spec_from_json(wrong_source)


def test_ill_formed_matrix_values():
    raw = copy.deepcopy(bundled_spec_json("b3rp2"))
    # a Z/2 generator sent onto a Z/4 generator is not well defined
    raw["sheets"][0]["K0t"] = {"rank": 0, "torsion": [2, 4]}
    raw["maps"][1]["matrix"] = [[0], [1], [0], [0], [0]]
    with pytest.raises(IllFormedMap):
        amalgam_k_assemble(assembly_spec_from_json(raw))
