"""Lower K-theory of integral group rings: Carter's formula, Bass's Wh
rank, bundled K-data for the groups in scope and its check against both,
the symbolic Nil ledger, and the per-degree assembly for amalgams.

Carter's decomposition K_{-1}(Z[G]) = Z^r + (Z/2)^s has

    r = 1 - r_Q + sum over p | |G| of (r_{Q_p} - r_{F_p}),

with the representation counts computed by class fusion; s (the number
of rational irreducibles with even Schur index but odd local indices) is
0 for an abelian or a dihedral group, decided from the group, and read
off the cited K_{-1} of the bundled sheet of the group's own name
otherwise, never guessed.  The canonical name, whose parse `groups`
caches, is the one way this module knows a group.
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
    prime_factors,
)
from .errors import (
    AssemblySpecError,
    DataGap,
    IllFormedMap,
    MissingDegree,
    UnknownSchurData,
)
from .fusion import ModP, Padic, Rational, fused_classes
from .groups import FiniteGroup, build_group, canonical_group_name
from .records import Frozen, Record

DEGREES = ("Wh", "K0t", "Km1", "Km2")
_NEXT_LOWER = {"Wh": "K0t", "K0t": "Km1", "Km1": "Km2", "Km2": None}
_NIL_DEGREES = {"Wh", "K0t"}
# the most torsion summands a cited K-group may list.  Each adds a relation,
# which assembly eliminates in time cubic in their count: b3rp2 with 64 in
# the Wh and K0t of every sheet and dense 0/1 maps assembles in about 0.5 s
# (Python 3.11, 2-core Linux host).  A free summand adds no relation.
TORSION_CAP = 64


# ---------------------------------------------------------------------------
# Carter's formula
# ---------------------------------------------------------------------------

def carter_stages(G: FiniteGroup) -> tuple[int, dict[int, tuple[int, int]], int]:
    """Carter's counts: r_Q, (r_{Q_p}, r_{F_p}) for each prime p dividing
    |G|, and the singular-character rank, the sum of their differences."""
    per_prime = {p: (fused_classes(G, Padic(p)).count, fused_classes(G, ModP(p)).count)
                 for p in prime_factors(G.order)}
    return fused_classes(G, Rational()).count, per_prime, sum(a - b for a, b in per_prime.values())


def carter_rank(G: FiniteGroup) -> int:
    """Free rank of K_{-1}(Z[G]) (Carter 1980)."""
    r_q, _, sc = carter_stages(G)
    return 1 - r_q + sc


def bass_rank(G: FiniteGroup) -> int:
    """The free rank of Wh(G), r_R - r_Q (Bass): r_R counts the classes of
    G up to inversion, r_Q the rationally fused classes."""
    inv = G.invariants()
    r_r = sum(1 for k, cls in enumerate(inv.classes) if inv.class_of[G.inverses[cls[0]]] >= k)
    return r_r - fused_classes(G, Rational()).count


def k_minus1(G: FiniteGroup) -> FgAbelianGroup:
    """K_{-1}(Z[G]) = Z^carter_rank + (Z/2)^s, with s 0 for an abelian G
    (its group algebra splits into fields) or a dihedral G (every simple
    component of Q[D_2n] has Schur index 1; Curtis-Reiner), and read off
    the bundled sheets otherwise."""
    gens = G.generators()
    abelian = all(G.table[a][b] == G.table[b][a] for a in gens for b in gens)
    s = 0 if abelian or is_dihedral(G) else schur_even_count(G)
    return FgAbelianGroup.from_divisors(carter_rank(G), [2] * s)


def is_dihedral(G: FiniteGroup) -> bool:
    """Whether G is dihedral of order 2n: an element a of order n and an
    element b outside <a> with b^2 = 1 and b a b^-1 = a^-1, so that every
    element outside <a> is such an involution.  For n >= 3 the elements
    of order n of a dihedral group all generate its rotations, so the
    first a decides; a group of order at most 4 is abelian."""
    inv = G.invariants()
    n = G.order // 2
    a = next((cls[0] for cls, d in zip(inv.classes, inv.orders) if d == n), None)
    if G.order % 2 or a is None:
        return False
    rotations = set(G.cyclic(a))
    b = min(set(range(G.order)) - rotations)
    return G.table[b][b] == G.identity and G.conjugate(a, b) == G.inverses[a]


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
        _require(data, ("group",), "sheet")
        _require(data, ("cite",), f"the {data['group']} sheet")
        entries = {}
        for deg in DEGREES:
            if deg in data:
                entries[deg] = _group_from_json(data[deg], f"{data['group']} {deg}")
            elif deg != "Km2":
                raise MissingDegree(f"sheet for {data['group']} lacks degree {deg}")
        return cls(data["group"], entries, _spec_cite(data["cite"], f"the {data['group']} sheet"))


def schur_even_count(G: FiniteGroup) -> int:
    """The count s of rational irreducibles with even Schur index but odd
    local indices: the torsion count of the cited K_{-1} on the bundled
    sheet of G's own name.  A library-built group's name is free text, so
    the sheet serves G only when its name builds G's very table; a
    quotient, a subgroup or any other group is a data gap."""
    sheet = bundled_ksheets().get(G.name)
    if sheet is None or build_group(G.name).table != G.table:
        raise UnknownSchurData(f"no bundled Schur-index data for {G.name}")
    return len(sheet.entries["Km1"].torsion)


# cited values that a theorem rules out for every finite group G
_THEOREMS = (("K0t", lambda g: g.free_rank == 0, "reduced K_0(ZG) is finite (Swan)"),
             ("Km2", lambda g: g.is_trivial, "K_-2(ZG) = 0 (Carter)"))


def check_sheet(sheet: KSheet) -> FgAbelianGroup | None:
    """The K_-1 of the sheet's group (None without Schur data), once cited
    data that a theorem, Bass or the engine's K_-1 contradicts is refused
    by DataGap.  The group is built only once the theorems hold."""
    for deg, holds, theorem in _THEOREMS:
        if not holds(sheet.entries[deg]):
            raise DataGap(f"the {sheet.group} sheet cites {deg} = {sheet.entries[deg]}, "
                          f"but {theorem}")
    G = build_group(sheet.group)
    cited, rank = sheet.entries["Wh"], bass_rank(G)
    if cited.free_rank != rank:
        raise DataGap(f"the {sheet.group} sheet cites Wh = {cited}, "
                      f"but its free rank is r_R - r_Q = {rank} (Bass)")
    cited = sheet.entries["Km1"]
    try:
        km1 = computed = k_minus1(G)
        agrees = cited == km1
    except UnknownSchurData:    # the free rank needs no Schur data
        km1, rank = None, carter_rank(G)
        computed = f"{FgAbelianGroup(rank)} + unknown torsion (no bundled Schur data)"
        agrees = cited.free_rank == rank
    if not agrees:
        raise DataGap(f"the {sheet.group} sheet cites Km1 = {cited}, "
                      f"but the engine computes {computed}")
    return km1


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
    """Bundled Nil results for the virtually-cyclic shapes in scope, by
    canonical group name; anything outside the ledger is Unknown, not guessed."""
    kind, names = vc
    if kind == "product":
        f = canonical_group_name(names[0])
        if f == "cyclic:2":
            return NilValue(NIL_ZERO, "NK of Z[Z/2] vanishes in low degrees (Weibel 2009)")
        if f == "cyclic:4":
            return NilValue(NIL_COUNTABLE_SUM_Z2, "NK of Z[Z/4] (Weibel 2009)")
    elif kind == "amalgam":
        left, right = sorted(map(canonical_group_name, (names[0], names[2])))
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
    """An amalgam A *_C B with its cited K-sheets, keyed by canonical group
    name, one map per degree, and the (vc, cite) pairs of its Nil ledger
    entries.  Each Nil entry is classified when the spec is built, into
    `nil_values`."""

    __slots__ = ("name", "group_a", "group_b", "group_c", "sheets", "maps", "nils", "nil_values")

    def __init__(self, name: str, group_a: str, group_b: str, group_c: str,
                 sheets: dict[str, KSheet], maps: dict[str, MapSpec],
                 nils: list[tuple[VcShape, str]]):
        self.name, self.group_a, self.group_b, self.group_c = name, group_a, group_b, group_c
        self.sheets, self.maps, self.nils = sheets, maps, nils
        self.nil_values = [nil_classify(vc) for vc, _ in nils]

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


def _spec_cite(value, what: str) -> str:
    """A nonempty JSON string: K-data is cited data, and `what` cites it."""
    if not _spec_str(value, f"{what} cite"):
        raise AssemblySpecError(f"{what} has an empty cite; cited data needs its source")
    return value


def _group_from_json(data, what: str) -> FgAbelianGroup:
    _require(data, ("rank", "torsion"), what)
    torsion = _spec_list(data["torsion"], f"{what} torsion")
    if len(torsion) > TORSION_CAP:
        raise AssemblySpecError(f"{what} cites {len(torsion)} torsion summands, "
                                f"over the cap {TORSION_CAP}")
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
        if raw["degree"] not in DEGREES:
            raise AssemblySpecError(f"unknown degree {raw['degree']!r}")
        if raw["degree"] in maps:
            raise AssemblySpecError(f"two maps in degree {raw['degree']}")
        what = f"{raw['degree']} matrix"
        matrix = tuple(tuple(_spec_int(x, f"{what} entry") for x in _spec_list(row, f"{what} row"))
                       for row in _spec_list(raw["matrix"], what))
        maps[raw["degree"]] = MapSpec(matrix, raw["source"],
                                      _spec_cite(raw["cite"], f"the {raw['degree']} map"))
    for deg in DEGREES:
        if deg not in maps:
            raise MissingDegree(f"assembly spec lacks a map in degree {deg}")
    nils = []
    for raw in _spec_list(data["nils"], "nils"):
        _require(raw, ("vc",), "nil entry")
        vc = vc_from_json(raw["vc"])
        what = f"the nil entry {vc_str(vc)}"
        _require(raw, ("cite",), what)
        nils.append((vc, _spec_cite(raw["cite"], what)))
    spec = AssemblySpec(_spec_str(data["name"], "spec name"), data["A"], data["B"], data["C"],
                        sheets, maps, nils)
    used = [spec.sheet(g) for g in (spec.group_a, spec.group_b, spec.group_c)]
    for sheet in sheets.values():
        if sheet not in used:
            raise AssemblySpecError(f"spec {spec.name!r} has a sheet for {sheet.group}, "
                                    "which is none of A, B and C")
    for deg, ms in maps.items():
        if canonical_group_name(ms.source) != canonical_group_name(spec.group_c):
            raise AssemblySpecError(
                f"map in degree {deg} has source {ms.source}, expected {spec.group_c}")
    return spec


_SPECS_DIR = os.path.join(os.path.dirname(__file__), "specs")


def spec_object(pairs: list[tuple[str, object]]) -> dict:
    """json's `object_pairs_hook` for specs: a key given twice is refused."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise AssemblySpecError(f"a spec object gives the key {key!r} twice")
        obj[key] = value
    return obj


def bundled_spec_json(name: str) -> dict:
    """The bundled assembly spec of this name, as parsed JSON."""
    if not name.endswith(".json"):
        name = f"{name}.json"
    with open(os.path.join(_SPECS_DIR, name), encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=spec_object)


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
    # rank builds no vector longer than the matrix; torsion is capped
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
            nil = nil_sum(spec.nil_values)
        else:
            nil = NilValue(NIL_ZERO, "twisted Nil groups vanish below degree 0 in this range")
        out[deg] = AssembledDegree(coker, ker_shift, nil)
    return out
