"""Runnable verification cases for the three amalgam case studies.

Each case builds its groups and amalgams from scratch, runs the checks
against bundled cited data, and emits a structured report.  Nothing in a
report is asserted without being recomputed here.
"""

from __future__ import annotations

import math

from .abelian import FgAbelianGroup, TRIVIAL_GROUP
from .amalgams import Amalgam, kernel_amalgam
from .errors import UnknownSymbol
from .fusion import p_singular_classes
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    build_group,
    center,
    dicyclic_group,
    is_isomorphic,
    quotient,
    subgroup_as_group,
    subgroup_generated,
)
from .ktheory import (
    DEGREES,
    NIL_COUNTABLE_SUM_Z2,
    NIL_ZERO,
    NilValue,
    amalgam_k_assemble,
    assembly_spec_from_json,
    bundled_spec_json,
    k_value_str,
    nil_classify,
    vc_str,
)
from .presentations import Word, parse_word, van_buskirk, verify_homomorphism
from .records import Record


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class Check(Record):
    __slots__ = ("name", "expected", "computed", "cite", "passed")

    def __init__(self, name: str, expected: str, computed: str, cite: str, passed: bool):
        self.name, self.expected, self.computed, self.cite = name, expected, computed, cite
        self.passed = passed


class CaseReport(Record):
    __slots__ = ("case", "checks")

    def __init__(self, case: str, checks: list[Check]):
        self.case, self.checks = case, checks

    def check(self, name: str, expected, computed, cite: str, render=None) -> None:
        show = render or _render
        self.checks.append(Check(name, show(expected), show(computed),
                                 cite, expected == computed))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "pass": self.passed,
            "checks": [
                {"check": c.name, "expected": c.expected, "computed": c.computed,
                 "cite": c.cite, "pass": c.passed}
                for c in self.checks
            ],
        }


_DEGREE_NAMES = ("Whitehead group", "reduced K0", "K in degree -1", "K below degree -1")


def _check_degrees(rec: CaseReport, assembled: dict, expected, cite: str) -> None:
    """One check per assembled degree, Wh down to K_-2, of its (abelian
    part, Nil term) against the expected pair."""
    for deg, name, want in zip(DEGREES, _DEGREE_NAMES, expected, strict=True):
        rec.check(name, want, (assembled[deg].abelian, assembled[deg].nil), cite)


def _render(value) -> str:
    if value is True:
        return "yes"
    if value is False:
        return "no"
    if isinstance(value, float) and math.isinf(value):
        return "infinite"
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], NilValue):
        return k_value_str(*value)
    if isinstance(value, (set, frozenset)):
        inner = sorted(" ".join(sorted(s)) if isinstance(s, (set, frozenset)) else str(s)
                       for s in value)
        return "{" + "; ".join(inner) + "}"
    return str(value)


# ---------------------------------------------------------------------------
# the amalgams
# ---------------------------------------------------------------------------

def full_braid_amalgam() -> Amalgam:
    """The binary octahedral group glued to the order-24 dicyclic group
    along their common order-12 dicyclic subgroup.

    The dicyclic side embeds by w -> Y^2, z -> Z; the octahedral side by
    the defining identities Y^2 = P^2 X^-1 and Z = P^2 X R.
    """
    ostar = build_group("binary-octahedral")
    dic24 = dicyclic_group(24, ("Y", "Z"))
    dic12 = dicyclic_group(12, ("w", "z"))
    i_b = GroupHom(dic12, dic24,
                   {"w": dic24.power(dic24.generator_labels["Y"], 2),
                    "z": dic24.generator_labels["Z"]})
    i_a = GroupHom(dic12, ostar,
                   {"w": ostar.evaluate(parse_word("P^2 X^-1")),
                    "z": ostar.evaluate(parse_word("P^2 X R"))})
    return Amalgam(i_a, i_b)


# phi: images of the braid generators inside the amalgam
PHI_IMAGES = {
    "s1": parse_word("Z P Y^3"),
    "s2": parse_word("Y Q^-1 Z^-1"),
    "r1": parse_word("P Q Y^3"),
    "r2": parse_word("Y^-3 Q^-1"),
    "r3": parse_word("P Y^3"),
}

_A_WORD = parse_word("r3 s2 s1")
_DELTA = parse_word("s1 s2 s1")

# the braid words that phi sends to the vertex labels, as the words case checks
RECOVERY = {
    "P": parse_word("r1 r2"),
    "Q": parse_word("r3 r1^-1"),
    "X": _A_WORD ** 4,
    "R": (_A_WORD ** 3) * _DELTA,
    "Y": _A_WORD,
    "Z": _A_WORD * _DELTA,
}

# the strand permutation of each braid generator, in symmetric:3's names
_STRANDS = {"s1": "(0 1)", "s2": "(1 2)", "r1": "e", "r2": "e", "r3": "e"}

_GG_CITE = "Guaschi-Goncalves (finite subgroups and conjugacy in projective-plane braid groups)"
_VB_CITE = "van Buskirk 1966 (surface braid presentation)"
_TREES_CITE = "Serre, Trees (amalgam normal forms)"
_GJM_CITE = "Guaschi-Juan-Pineda-Millan 2018, Table 2.1"
_JPM_CITE = "Juan-Pineda-Millan 2010 (pure braid group of the projective plane)"
_JLMP_CITE = "Juan-Pineda-Lafont-Millan-Pardo (K-theory of virtually free groups)"
_SCOTT_CITE = "Scott 1970 (braids and mapping classes of the projective plane)"


def phi(am: Amalgam, vb_word: Word):
    """Image of a braid word inside the amalgam."""
    for sym, _ in vb_word.entries:
        if sym not in PHI_IMAGES:
            raise UnknownSymbol(f"{sym!r} is not a braid generator")
    return am.evaluate(vb_word.substitute(PHI_IMAGES))


def _strand_group() -> FiniteGroup:
    """symmetric:3 labelled by the braid generators as well as by its own
    labels, which keep it whole whatever the strand images generate, so
    that a braid word evaluates to its strand permutation."""
    S3 = build_group("symmetric:3")
    by_name = {name: g for g, name in enumerate(S3.element_names)}
    labels = dict(S3.generator_labels, **{sym: by_name[perm] for sym, perm in _STRANDS.items()})
    return subgroup_as_group(Subgroup(S3, tuple(range(S3.order))), "symmetric:3 (strands)",
                             labels)[0]


def pure_braid_amalgam(b3: Amalgam) -> Amalgam:
    """P3(RP2), the kernel of the strand permutation B3(RP2) -> S3, read
    through phi: each vertex label of the b3 amalgam goes to the strand
    permutation of its braid word in RECOVERY."""
    strands = _strand_group()
    on_a, on_b = (GroupHom(V, strands, {lab: strands.evaluate(RECOVERY[lab])
                                        for lab in V.generator_labels})
                  for V in (b3.A, b3.B))
    return kernel_amalgam(b3, on_a, on_b)


def _vb3_relator_names() -> list[str]:
    return [
        "braid relation for s1 s2",
        "commuting pair (s1, r3)",
        "commuting pair (s2, r1)",
        "rewrite r2 = s1^-1 r1 s1^-1",
        "rewrite r3 = s2^-1 r2 s2^-1",
        "commutator of r2, r1 gives s1^2",
        "commutator of r3, r2 gives s2^2",
        "surface relation r1^2 = s1 s2^2 s1",
    ]


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------

def case_pb3() -> CaseReport:
    """Pure braid group on 3 strands: the kernel of the strand permutation
    of the b3 amalgam, its segment, K-assembly."""
    rec = CaseReport("pb3", [])
    strands = _strand_group()
    rec.check("strand permutation read through phi agrees on s1, s2, r1, r2, r3",
              ", ".join(_STRANDS.values()),
              ", ".join(strands.element_names[strands.evaluate(PHI_IMAGES[g].substitute(RECOVERY))]
                        for g in _STRANDS), _GG_CITE)
    b3 = full_braid_amalgam()
    am = pure_braid_amalgam(b3)
    rec.check("edge group maps onto the symmetric group of degree 3, so the quotient graph "
              "is a segment", 6, b3.C.order // am.C.order, _TREES_CITE)
    rec.check("vertex stabilizers are Z/4 and the quaternion group",
              True,
              {True} == {is_isomorphic(am.A, build_group("quaternion:8")),
                         is_isomorphic(am.B, build_group("cyclic:4"))},
              _JPM_CITE)
    rec.check("edge stabilizer is Z/2", True,
              is_isomorphic(am.C, build_group("cyclic:2")), _JPM_CITE)
    rec.check("Nil ledger: Z/2 x Z", NilValue(NIL_ZERO, ""),
              nil_classify(("product", ("cyclic:2",))), "Weibel 2009")
    rec.check("Nil ledger: Z/4 glued to Z/4 over Z/2", NilValue(NIL_ZERO, ""),
              nil_classify(("amalgam", ("cyclic:4", "cyclic:2", "cyclic:4"))),
              "Lafont-Ortiz 2008")
    spec = assembly_spec_from_json(bundled_spec_json("pb3rp2"))
    assembled = amalgam_k_assemble(spec)
    zero = NilValue(NIL_ZERO, "")
    _check_degrees(rec, assembled, ((TRIVIAL_GROUP, zero), (FgAbelianGroup(0, (2,)), zero),
                                    (TRIVIAL_GROUP, zero), (TRIVIAL_GROUP, zero)), _JPM_CITE)
    return rec


def _label_sets(G: FiniteGroup, p: int) -> set[frozenset[str]]:
    return {frozenset(G.element_names[i] for i in cls)
            for _, cls in p_singular_classes(G, p)}


def case_b3() -> CaseReport:
    """Full braid group on 3 strands: amalgam, class tables, K-assembly."""
    rec = CaseReport("b3", [])
    am = full_braid_amalgam()
    rec.check("vertex indices over the edge group", [4, 2],
              [am.index(0), am.index(1)], _GJM_CITE)
    # Amalgam's constructor proved i_A an injective homomorphism of C
    rec.check("octahedral side contains a dicyclic group of order 12",
              True,
              am.C.table == build_group("dicyclic:12").table and am.iA.is_injective(),
              "Wolf, Spaces of constant curvature, p. 198")
    rec.check("gluing identity: Y^2 equals P^2 X^-1", am.identity_element,
              am.evaluate(parse_word("P^2 X^-1 Y^-2")), _GG_CITE, render=am.describe)
    vb = van_buskirk(3)
    report = verify_homomorphism(vb, am, PHI_IMAGES)
    rec.check("braid relations hold in the amalgam", True, report.ok, _VB_CITE)

    dic12 = am.C
    dic24 = build_group("dicyclic:24")
    rec.check("2-singular classes of the order-12 dicyclic group",
              {frozenset({"w^3"}),
               frozenset({"z", "z*w^2", "z*w^4"}),
               frozenset({"z*w", "z*w^3", "z*w^5"}),
               frozenset({"w", "w^5"})},
              _label_sets(dic12, 2), _GJM_CITE)
    rec.check("3-singular classes of the order-12 dicyclic group",
              {frozenset({"w^2", "w^4"}), frozenset({"w", "w^5"})},
              _label_sets(dic12, 3), _GJM_CITE)
    rec.check("2-singular classes of the order-24 dicyclic group",
              {frozenset({"x^6"}),
               frozenset({"x^3", "x^9"}),
               frozenset({"y", "y*x^2", "y*x^4", "y*x^6", "y*x^8", "y*x^10"}),
               frozenset({"y*x", "y*x^3", "y*x^5", "y*x^7", "y*x^9", "y*x^11"}),
               frozenset({"x^2", "x^10"}),
               frozenset({"x", "x^11"}),
               frozenset({"x^5", "x^7"})},
              _label_sets(dic24, 2), _GJM_CITE)
    rec.check("3-singular classes of the order-24 dicyclic group",
              {frozenset({"x^4", "x^8"}),
               frozenset({"x^2", "x^10"}),
               frozenset({"x", "x^11"}),
               frozenset({"x^5", "x^7"})},
              _label_sets(dic24, 3), _GJM_CITE)

    spec = assembly_spec_from_json(bundled_spec_json("b3rp2"))
    assembled = amalgam_k_assemble(spec)
    nil_inf = NilValue(NIL_COUNTABLE_SUM_Z2, "")
    zero = NilValue(NIL_ZERO, "")
    rec.check("Km1 map matrix is the cited column", ((0,), (0,), (1,), (1,), (0,)),
              spec.maps["Km1"].matrix, _GJM_CITE)
    _check_degrees(rec, assembled, ((FgAbelianGroup(2), nil_inf),
                                    (FgAbelianGroup(0, (2, 2, 2, 2)), nil_inf),
                                    (FgAbelianGroup(2, (2, 2)), zero),
                                    (TRIVIAL_GROUP, zero)), _JLMP_CITE)
    return rec


def verify_word_identities() -> CaseReport:
    """Word-identity ledger inside the octahedral-dicyclic amalgam."""
    rec = CaseReport("words", [])
    am = full_braid_amalgam()
    vb = van_buskirk(3)
    for name, rel in zip(_vb3_relator_names(), vb.relators):
        rec.check(f"relator vanishes: {name}", am.identity_element,
                  phi(am, rel), _VB_CITE, render=am.describe)

    displayed = [
        ("r3 conjugates s1 to itself", "r3 s1 r3^-1", "s1"),
        ("s1^-1 r1 s1^-1 equals r2", "s1^-1 r1 s1^-1", "r2"),
        ("commutator of r2, r1 equals s1^2", "r2^-1 r1^-1 r2 r1", "s1^2"),
        ("braid word s1 s2 s1 equals s2 s1 s2", "s1 s2 s1", "s2 s1 s2"),
        ("sandwich s1 s2^2 s1 equals r1^2", "s1 s2^2 s1", "r1^2"),
    ]
    for name, lhs, rhs in displayed:
        rec.check(name, phi(am, parse_word(rhs)), phi(am, parse_word(lhs)),
                  _GG_CITE, render=am.describe)

    conjugations = [
        ("a-conjugation sends s1 to s2", "s1", "s2"),
        ("a-conjugation sends r1 to r2", "r1", "r2"),
        ("a-conjugation sends r2 to r3", "r2", "r3"),
        ("a-conjugation sends r3 to r1^-1", "r3", "r1^-1"),
    ]
    for name, inner, target in conjugations:
        lhs = _A_WORD.inverse() * parse_word(inner) * _A_WORD
        rec.check(name, phi(am, parse_word(target)), phi(am, lhs),
                  _GG_CITE, render=am.describe)

    shown = ("r1 r2", "r3 r1^-1", "a^4", "a^3 Delta", "a", "a Delta")
    for (label, word), name in zip(RECOVERY.items(), shown, strict=True):
        rec.check(f"{name} recovers {label}", am.evaluate(Word(((label, 1),))), phi(am, word),
                  _GG_CITE, render=am.describe)

    rec.check("order of the image of r1 s2", 4,
              am.order_of(phi(am, parse_word("r1 s2"))), _GG_CITE)
    rec.check("order of the image of r3", math.inf,
              am.order_of(phi(am, parse_word("r3"))), _TREES_CITE)
    rec.check("order of the image of a^2", 6,
              am.order_of(phi(am, _A_WORD ** 2)), _GG_CITE)

    tau = parse_word("s1^-1 r1") * _DELTA
    rec.check("tau conjugates a^3 Delta to s2 r1",
              phi(am, parse_word("s2 r1")),
              phi(am, tau * (_A_WORD ** 3) * _DELTA * tau.inverse()),
              _GG_CITE, render=am.describe)

    beta_long = (parse_word("r3 r2") ** -1) * tau * (_A_WORD ** 3) * tau.inverse()
    beta_short = (_DELTA ** -2) * parse_word("r1") * (parse_word("s2") ** -2)
    rec.check("two expressions for beta agree",
              phi(am, beta_short), phi(am, beta_long), _GG_CITE, render=am.describe)
    rec.check("beta^4 equals s2^-12",
              phi(am, parse_word("s2") ** -12),
              am.power(phi(am, beta_long), 4), _GG_CITE, render=am.describe)
    return rec


def case_mcg_rp2_3() -> CaseReport:
    """Mapping class group of the thrice-marked projective plane."""
    rec = CaseReport("mcg-rp2-3", [])
    am = full_braid_amalgam()
    za = center(am.A)
    zb = center(am.B)
    zc = center(am.C)
    rec.check("all three centers have order 2", [2, 2, 2],
              [za.order, zb.order, zc.order], _SCOTT_CITE)
    central_c = next(g for g in zc.elements if g != am.C.identity)
    rec.check("the central involutions match under both embeddings",
              [True, True],
              [am.iA.full_map()[central_c] in za.elements,
               am.iB.full_map()[central_c] in zb.elements], _SCOTT_CITE)
    rec.check("octahedral vertex maps onto the symmetric group of degree 4",
              True, is_isomorphic(quotient(am.A, za), build_group("symmetric:4")),
              _SCOTT_CITE)
    rec.check("dicyclic vertex maps onto the dihedral group of order 12",
              True, is_isomorphic(quotient(am.B, zb), build_group("dihedral:6")),
              _SCOTT_CITE)
    rec.check("edge group maps onto the dihedral group of order 6",
              True, is_isomorphic(quotient(am.C, zc), build_group("dihedral:3")),
              _SCOTT_CITE)

    q8 = build_group("quaternion:8")
    rec.check("quaternion group maps onto the Klein four-group",
              True, is_isomorphic(quotient(q8, center(q8)), build_group("dihedral:2")),
              _SCOTT_CITE)
    z4 = build_group("cyclic:4")
    half = subgroup_generated(z4, [z4.power(z4.generator_labels["g"], 2)])
    rec.check("Z/4 maps onto Z/2",
              True, is_isomorphic(quotient(z4, half), build_group("cyclic:2")),
              _SCOTT_CITE)

    for vc, cite in (
        (("product", ("cyclic:2",)), "Weibel 2009"),
        (("amalgam", ("cyclic:2", "cyclic:1", "cyclic:2")), "Waldhausen 1978"),
        (("amalgam", ("dihedral:2", "cyclic:2", "dihedral:2")), "Lafont-Ortiz 2008; Weibel 2009"),
    ):
        rec.check(f"Nil ledger: {vc_str(vc)}", NilValue(NIL_ZERO, ""), nil_classify(vc), cite)

    spec = assembly_spec_from_json(bundled_spec_json("mcg_rp2_3"))
    assembled = amalgam_k_assemble(spec)
    zero = NilValue(NIL_ZERO, "")
    _check_degrees(rec, assembled, ((TRIVIAL_GROUP, zero), (TRIVIAL_GROUP, zero),
                                    (FgAbelianGroup(1), zero), (TRIVIAL_GROUP, zero)),
                   _JLMP_CITE)
    return rec


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_CASE_RUNNERS = {
    "pb3": case_pb3,
    "b3": case_b3,
    "mcg-rp2-3": case_mcg_rp2_3,
    "words": verify_word_identities,
}
CASES = tuple(_CASE_RUNNERS)


def run_case(name: str) -> CaseReport:
    if name not in _CASE_RUNNERS:
        raise KeyError(f"unknown case {name!r}; choose from {CASES}")
    return _CASE_RUNNERS[name]()
