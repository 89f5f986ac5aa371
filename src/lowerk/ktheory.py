"""Lower K-theory of integral group rings: Carter's formula, bundled
K-data for the groups in scope, the symbolic Nil ledger, and the
per-degree assembly for amalgams of finite groups.

Carter's decomposition K_{-1}(Z[G]) = Z^r + (Z/2)^s has

    r = 1 - r_Q + sum over p | |G| of (r_{Q_p} - r_{F_p}),

with the representation counts computed by class fusion; s (the number
of rational irreducibles with even Schur index but odd local indices) is
read off the cited K_{-1} of the bundled sheets, never guessed.
"""

from __future__ import annotations

import functools
import json
import os

from .abelian import (
    AbelianMap,
    FgAbelianGroup,
    TRIVIAL_GROUP,
    cokernel,
    kernel,
    presentation_of_sum,
)
from .errors import (
    AssemblySpecError,
    IllFormedMap,
    MissingDegree,
    UnknownSchurData,
)
from .fusion import Rational, fused_classes, sc_rank
from .groups import FiniteGroup, build_group, canonical_group_name, group_order, is_isomorphic
from .records import Frozen, Record

DEGREES = ("Wh", "K0t", "Km1", "Km2")
_NEXT_LOWER = {"Wh": "K0t", "K0t": "Km1", "Km1": "Km2", "Km2": None}
_NIL_DEGREES = {"Wh", "K0t"}


# ---------------------------------------------------------------------------
# Carter's formula
# ---------------------------------------------------------------------------

def carter_rank(G: FiniteGroup) -> int:
    """Free rank of K_{-1}(Z[G]) (Carter 1980)."""
    return 1 - fused_classes(G, Rational()).count + sc_rank(G)


def k_minus1(G: FiniteGroup) -> FgAbelianGroup:
    """K_{-1}(Z[G]) = Z^carter_rank + (Z/2)^s, with s 0 for an abelian G
    (its group algebra splits into fields) and read off the bundled sheets
    otherwise."""
    gens = G.generators()
    abelian = all(G.table[a][b] == G.table[b][a] for a in gens for b in gens)
    s = 0 if abelian else schur_even_count(G)
    return FgAbelianGroup.from_divisors(carter_rank(G), [2] * s)


# ---------------------------------------------------------------------------
# bundled K-sheets
# ---------------------------------------------------------------------------

class KSheet(Record):
    """Lower K-data of one group: Wh, reduced K_0, K_{-1}, K_{<=-2}; a
    degree missing from `entries` is trivial."""

    __slots__ = ("group", "entries", "cite")

    def __init__(self, group: str, entries: dict[str, FgAbelianGroup], cite: str):
        for deg in DEGREES:
            entries.setdefault(deg, TRIVIAL_GROUP)
        self.group, self.entries, self.cite = group, entries, cite

    def to_json(self) -> dict:
        out: dict = {"group": self.group}
        for deg in DEGREES:
            out[deg] = self.entries[deg].to_json()
        out["cite"] = self.cite
        return out

    @classmethod
    def from_json(cls, data: dict) -> "KSheet":
        _require(data, ("group", "cite"), "sheet")
        entries = {}
        for deg in DEGREES:
            if deg in data:
                entries[deg] = _group_from_json(data[deg], f"{data['group']} {deg}")
            elif deg != "Km2":
                raise MissingDegree(f"sheet for {data['group']} lacks degree {deg}")
        return cls(data["group"], entries, _spec_str(data["cite"], f"{data['group']} sheet cite"))


def schur_even_count(G: FiniteGroup) -> int:
    """The count s of rational irreducibles with even Schur index but odd
    local indices: the torsion count of the cited K_{-1} of the bundled
    sheet whose group is isomorphic to G.  Only sheet groups of G's order
    are built."""
    for name, sheet in bundled_ksheets().items():
        if group_order(name) == G.order and is_isomorphic(G, build_group(name)):
            return len(sheet.entries["Km1"].torsion)
    raise UnknownSchurData(f"no bundled Schur-index data for {G.name}")


# ---------------------------------------------------------------------------
# symbolic Nil values
# ---------------------------------------------------------------------------

NIL_ZERO = "Zero"
NIL_COUNTABLE_SUM_Z2 = "CountableSumZ2"
NIL_UNKNOWN = "Unknown"


class NilValue(Frozen):
    __slots__ = ("tag", "provenance")

    def __init__(self, tag: str, provenance: str):
        if tag not in (NIL_ZERO, NIL_COUNTABLE_SUM_Z2, NIL_UNKNOWN):
            raise ValueError(f"bad Nil tag {tag!r}")
        if tag == NIL_UNKNOWN and not provenance:
            raise ValueError("Unknown Nil values must explain the gap")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "provenance", provenance)

    def __str__(self) -> str:
        if self.tag == NIL_ZERO:
            return "0"
        if self.tag == NIL_COUNTABLE_SUM_Z2:
            return "(Z/2)^(oo)"
        return "Nil?"

    def __eq__(self, other):
        # provenance is commentary; only the symbolic tag is compared
        return isinstance(other, NilValue) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)


def nil_sum(values: list[NilValue]) -> NilValue:
    tags = {v.tag for v in values}
    if NIL_UNKNOWN in tags:
        why = "; ".join(v.provenance for v in values if v.tag == NIL_UNKNOWN)
        return NilValue(NIL_UNKNOWN, why)
    if NIL_COUNTABLE_SUM_Z2 in tags:
        keep = [v.provenance for v in values if v.tag == NIL_COUNTABLE_SUM_Z2]
        return NilValue(NIL_COUNTABLE_SUM_Z2, "; ".join(keep))
    return NilValue(NIL_ZERO, "empty or all-zero contributions")


# Virtually-cyclic shapes feeding the Nil ledger.  A shape is a pair
# (kind, names): "product" (F x Z, Bass NK groups) and "semidirect" (F : Z,
# Farrell-Hsiang twisted Nil groups) name the finite group F; "amalgam"
# (G1 *_F G2 with F of index 2 in both, Waldhausen Nil groups) names G1, F
# and G2.  Each kind maps to the JSON keys of its names and its printed form.
VcShape = tuple[str, tuple[str, ...]]
_VC_FIELDS = {"product": (("finite",), "{} x Z"),
              "semidirect": (("finite",), "{} : Z"),
              "amalgam": (("left", "edge", "right"), "{} *_{} {}")}


def vc_str(vc: VcShape) -> str:
    kind, names = vc
    return _VC_FIELDS[kind][1].format(*names)


def nil_classify(vc: VcShape) -> NilValue:
    """Bundled Nil results for the virtually-cyclic shapes in scope.

    Anything outside the ledger comes back Unknown rather than guessed.
    """
    kind, names = vc
    if kind == "product":
        f = canonical_group_name(names[0])
        if f == "cyclic:2":
            return NilValue(NIL_ZERO, "NK of Z[Z/2] vanishes in low degrees (Weibel 2009)")
        if f == "cyclic:4":
            return NilValue(NIL_COUNTABLE_SUM_Z2, "NK of Z[Z/4] (Weibel 2009)")
    elif kind == "amalgam":
        left, right = sorted((canonical_group_name(names[0]), canonical_group_name(names[2])))
        key = (left, canonical_group_name(names[1]), right)
        if key == ("cyclic:4", "cyclic:2", "cyclic:4"):
            return NilValue(NIL_ZERO, "reduces to NK of Z/2 x Z (Lafont-Ortiz 2008; Weibel 2009)")
        if key == ("quaternion:8", "cyclic:4", "quaternion:8"):
            return NilValue(NIL_COUNTABLE_SUM_Z2,
                            "reduces to NK of Z/4 x Z (Lafont-Ortiz 2008; Weibel 2009)")
        if key == ("cyclic:2", "cyclic:1", "cyclic:2"):
            return NilValue(NIL_ZERO, "free product of two Z/2 (Waldhausen 1978)")
        if key == ("dihedral:2", "cyclic:2", "dihedral:2"):
            return NilValue(NIL_ZERO, "reduces to NK of Z/2 x Z (Weibel 2009)")
    return NilValue(NIL_UNKNOWN, f"no bundled result for {vc_str(vc)}")


def vc_from_json(data: dict) -> VcShape:
    _require(data, ("type",), "vc")
    kind = data["type"]
    if not isinstance(kind, str) or kind not in _VC_FIELDS:
        raise AssemblySpecError(f"unknown vc type {kind!r}")
    keys = _VC_FIELDS[kind][0]
    _require(data, keys, f"{kind} vc")
    return kind, tuple(_spec_str(data[k], f"{kind} vc {k}") for k in keys)


# ---------------------------------------------------------------------------
# assembly for amalgams of finite groups
# ---------------------------------------------------------------------------

class MapSpec(Record):
    """Cited matrix of the induced map K_n(Z[C]) -> K_n(Z[A]) + K_n(Z[B]).

    The matrix is written against the canonical coordinates of the
    sheets: torsion generators first within every group, and the target
    direct sum laid out as (torsion of A, torsion of B, free of A,
    free of B).
    """

    __slots__ = ("matrix", "source", "cite")

    def __init__(self, matrix: tuple[tuple[int, ...], ...], source: str, cite: str):
        self.matrix, self.source, self.cite = matrix, source, cite


class AssemblySpec(Record):
    """An amalgam A *_C B with its cited K-sheets, one map per degree, and
    the (vc, cite) pairs of its Nil ledger entries."""

    __slots__ = ("name", "group_a", "group_b", "group_c", "sheets", "maps", "nils")

    def __init__(self, name: str, group_a: str, group_b: str, group_c: str,
                 sheets: dict[str, KSheet], maps: dict[str, MapSpec],
                 nils: list[tuple[VcShape, str]]):
        self.name, self.group_a, self.group_b, self.group_c = name, group_a, group_b, group_c
        self.sheets, self.maps, self.nils = sheets, maps, nils

    def sheet(self, group: str) -> KSheet:
        key = canonical_group_name(group)
        if key not in self.sheets:
            raise AssemblySpecError(f"spec {self.name!r} has no sheet for {group}")
        return self.sheets[key]


def _require(data, keys, what: str) -> None:
    if not isinstance(data, dict):
        raise AssemblySpecError(f"{what} must be a JSON object, got {data!r}")
    for key in keys:
        if key not in data:
            raise AssemblySpecError(f"{what} lacks {key!r}")


def _spec_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise AssemblySpecError(f"{what} must be a list, got {value!r}")
    return value


def _spec_int(value, what: str, least: int | None = None) -> int:
    """A JSON integer, at least `least`; floats and booleans are refused."""
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise AssemblySpecError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def _spec_str(value, what: str) -> str:
    """A JSON string; nothing else is coerced into one."""
    if not isinstance(value, str):
        raise AssemblySpecError(f"{what} must be a string, got {value!r}")
    return value


def _group_from_json(data, what: str) -> FgAbelianGroup:
    _require(data, ("rank", "torsion"), what)
    torsion = _spec_list(data["torsion"], f"{what} torsion")
    return FgAbelianGroup.from_divisors(_spec_int(data["rank"], f"{what} rank", 0),
                                        [_spec_int(d, f"{what} torsion", 2) for d in torsion])


def assembly_spec_from_json(data: dict) -> AssemblySpec:
    _require(data, ("name", "A", "B", "C", "sheets", "maps", "nils"), "assembly spec")
    sheets = {}
    for raw in _spec_list(data["sheets"], "sheets"):
        sheet = KSheet.from_json(raw)
        key = canonical_group_name(sheet.group)
        if key in sheets:
            raise AssemblySpecError(
                f"two sheets for one group: {sheets[key].group!r} and {sheet.group!r}")
        sheets[key] = sheet
    maps = {}
    for raw in _spec_list(data["maps"], "maps"):
        _require(raw, ("degree", "matrix", "source", "cite"), "map entry")
        if not _spec_str(raw["cite"], "map cite"):
            raise AssemblySpecError("maps are cited data; empty cite refused")
        if raw["degree"] not in DEGREES:
            raise AssemblySpecError(f"unknown degree {raw['degree']!r}")
        if raw["degree"] in maps:
            raise AssemblySpecError(f"two maps in degree {raw['degree']}")
        what = f"{raw['degree']} matrix"
        matrix = tuple(tuple(_spec_int(x, f"{what} entry") for x in _spec_list(row, f"{what} row"))
                       for row in _spec_list(raw["matrix"], what))
        maps[raw["degree"]] = MapSpec(matrix, raw["source"], raw["cite"])
    for deg in DEGREES:
        if deg not in maps:
            raise MissingDegree(f"assembly spec lacks a map in degree {deg}")
    nils = []
    for raw in _spec_list(data["nils"], "nils"):
        _require(raw, ("vc",), "nil entry")
        nils.append((vc_from_json(raw["vc"]), _spec_str(raw.get("cite", ""), "nil cite")))
    spec = AssemblySpec(_spec_str(data["name"], "spec name"), data["A"], data["B"], data["C"],
                        sheets, maps, nils)
    for g in (spec.group_a, spec.group_b, spec.group_c):
        spec.sheet(g)
    for deg, ms in maps.items():
        if canonical_group_name(ms.source) != canonical_group_name(spec.group_c):
            raise AssemblySpecError(
                f"map in degree {deg} has source {ms.source}, expected {spec.group_c}")
    return spec


_SPECS_DIR = os.path.join(os.path.dirname(__file__), "specs")


def bundled_spec_json(name: str) -> dict:
    """The bundled assembly spec of this name, as parsed JSON."""
    if not name.endswith(".json"):
        name = f"{name}.json"
    with open(os.path.join(_SPECS_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


@functools.cache
def bundled_ksheets() -> dict[str, KSheet]:
    """The sheets of the bundled K-data by canonical group name, read on
    first use: each cited sheet is written once, in the spec that cites
    it, and the trivial group's is the one no spec needs."""
    sheets = {"cyclic:1": KSheet("cyclic:1", {}, "Carter 1980 (trivial ring)")}
    for name in sorted(f for f in os.listdir(_SPECS_DIR) if f.endswith(".json")):
        sheets.update(assembly_spec_from_json(bundled_spec_json(name)).sheets)
    return sheets


class AssembledDegree(Record):
    __slots__ = ("coker", "ker_shift", "nil")

    def __init__(self, coker: FgAbelianGroup, ker_shift: FgAbelianGroup, nil: NilValue):
        self.coker, self.ker_shift, self.nil = coker, ker_shift, nil

    @property
    def abelian(self) -> FgAbelianGroup:
        return self.coker.direct_sum(self.ker_shift)

    def __str__(self) -> str:
        return k_value_str(self.abelian, self.nil)


def k_value_str(abelian: FgAbelianGroup, nil: NilValue) -> str:
    """An abelian group plus a Nil summand, as reports print it."""
    if nil.tag == NIL_ZERO:
        return str(abelian)
    if abelian.is_trivial:
        return str(nil)
    return f"{abelian} + {nil}"


def _degree_map(spec: AssemblySpec, degree: str) -> AbelianMap | None:
    """The cited map of one degree, checked well defined; None when the
    target has no generators, for the map is then zero and its empty
    matrix holds no column count to check the source against."""
    source = [spec.sheet(spec.group_c).entries[degree]]
    target = [spec.sheet(g).entries[degree] for g in (spec.group_a, spec.group_b)]
    matrix = spec.maps[degree].matrix
    # the shape is checked before any relation vector is built, so a cited
    # rank costs no more than the matrix it must match
    rows, cols = (sum(len(g.torsion) + g.free_rank for g in gs) for gs in (target, source))
    if len(matrix) != rows or any(len(row) != cols for row in matrix):
        raise IllFormedMap(f"{degree} matrix does not have the {rows} x {cols} shape of the sheets")
    if not rows:
        return None
    return AbelianMap(presentation_of_sum(source), presentation_of_sum(target), matrix)


def amalgam_k_assemble(spec: AssemblySpec) -> dict[str, AssembledDegree]:
    """Per-degree decomposition of the K-theory of A *_C B.

    Each degree contributes the cokernel of its own map, the kernel of
    the map one degree lower, and the symbolic Nil sum (nonzero only in
    Wh and reduced-K_0 degrees; everything vanishes below degree -1).
    Building a degree map checks that it is well defined.
    """
    maps = {deg: _degree_map(spec, deg) for deg in DEGREES}
    nil_values = [nil_classify(vc) for vc, _ in spec.nils]
    out = {}
    for deg in DEGREES:
        coker = TRIVIAL_GROUP if maps[deg] is None else cokernel(maps[deg])
        lower = _NEXT_LOWER[deg]
        if lower is None:
            ker_shift = TRIVIAL_GROUP
        elif maps[lower] is None:    # the kernel of a zero map is its source
            ker_shift = spec.sheet(spec.group_c).entries[lower]
        else:
            ker_shift = kernel(maps[lower])
        if deg in _NIL_DEGREES:
            nil = nil_sum(nil_values)
        else:
            nil = NilValue(NIL_ZERO, "twisted Nil groups vanish below degree 0 in this range")
        out[deg] = AssembledDegree(coker, ker_shift, nil)
    return out
