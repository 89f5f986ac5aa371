"""Acceptance suite: the eight exit criteria, one test each.

Every criterion prints a single PASS line on success (run with -s or -v
to see them); failures surface as ordinary assertion errors.
"""

import random

from lowerk.abelian import FgAbelianGroup, TRIVIAL_GROUP
from lowerk.casebook import (
    CASES,
    bundled_spec_json,
    run_case,
)
from lowerk.groups import build_group
from lowerk.ktheory import (
    NIL_COUNTABLE_SUM_Z2,
    amalgam_k_assemble,
    assembly_spec_from_json,
    bundled_ksheets,
    carter_rank,
    k_minus1,
)


def _line(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_pure_braid_case():
    report = run_case("pb3")
    assert report.passed, [c.name for c in report.checks if not c.passed]
    by_name = {c.name: c for c in report.checks}
    assert by_name["Whitehead group"].computed == "0"
    assert by_name["reduced K0"].computed == "Z/2"
    assert by_name["K in degree -1"].computed == "0"
    assert by_name["K below degree -1"].computed == "0"
    # stabilizers come from the graph action, not constants
    assert by_name["vertex stabilizers are Z/4 and the quaternion group"].passed
    assert by_name["edge stabilizer is Z/2"].passed
    _line(1, "pb3 case passes with Wh=0, K0~=Z/2, K=0 below, "
          "stabilizers Z/4, Z/2, Q8 computed from the graph fixture")


def test_criterion_2_full_braid_case():
    report = run_case("b3")
    assert report.passed, [c.name for c in report.checks if not c.passed]
    spec = assembly_spec_from_json(bundled_spec_json("b3rp2"))
    assert spec.maps["Km1"].matrix == ((0,), (0,), (1,), (1,), (0,))
    out = amalgam_k_assemble(spec)
    assert out["Wh"].abelian == FgAbelianGroup(2)
    assert out["Wh"].nil.tag == NIL_COUNTABLE_SUM_Z2
    assert out["K0t"].abelian == FgAbelianGroup(0, (2, 2, 2, 2))
    assert out["K0t"].nil.tag == NIL_COUNTABLE_SUM_Z2
    assert out["Km1"].abelian == FgAbelianGroup(2, (2, 2))
    assert out["Km2"].abelian == TRIVIAL_GROUP
    _line(2, "b3 case passes: Z^2, (Z/2)^4, (Z/2)^2+Z^2, 0 with both Nils "
          "countable sums of Z/2; the degree -1 cokernel comes from the "
          "cited column (0,0,1,1,0)")


def test_criterion_3_mapping_class_case():
    report = run_case("mcg-rp2-3")
    assert report.passed, [c.name for c in report.checks if not c.passed]
    by_name = {c.name: c for c in report.checks}
    assert by_name["K in degree -1"].computed == "Z"
    for deg in ("Whitehead group", "reduced K0", "K below degree -1"):
        assert by_name[deg].computed == "0"
    for check in ("octahedral vertex maps onto the symmetric group of degree 4",
                  "dicyclic vertex maps onto the dihedral group of order 12",
                  "edge group maps onto the dihedral group of order 6"):
        assert by_name[check].passed
    _line(3, "mcg-rp2-3 case passes: K_-1 = Z, all other lower K trivial, "
          "vertex and edge quotients certified by the isomorphism tester")


def test_criterion_4_carter_ranks():
    table = {"binary-octahedral": 1, "dicyclic:24": 2, "dicyclic:12": 1,
             "quaternion:8": 0, "cyclic:4": 0, "cyclic:2": 0,
             "symmetric:4": 0, "dihedral:3": 0, "dihedral:6": 1}
    for name, want in table.items():
        assert carter_rank(build_group(name)) == want, name
    _line(4, "carter ranks from fusion counts match the cited table on all nine groups")


def test_criterion_5_singular_class_tables():
    from lowerk.fusion import p_singular_classes
    from lowerk.groups import dicyclic_group

    dic12 = dicyclic_group(12, ("w", "z"))
    dic24 = build_group("dicyclic:24")

    def labels(G, p):
        return {frozenset(G.element_names[i] for i in cls)
                for _, cls in p_singular_classes(G, p)}

    assert labels(dic12, 2) == {
        frozenset({"w^3"}),
        frozenset({"z", "z*w^2", "z*w^4"}),
        frozenset({"z*w", "z*w^3", "z*w^5"}),
        frozenset({"w", "w^5"})}
    assert labels(dic12, 3) == {
        frozenset({"w^2", "w^4"}), frozenset({"w", "w^5"})}
    assert labels(dic24, 2) == {
        frozenset({"x^6"}),
        frozenset({"x^3", "x^9"}),
        frozenset({"y", "y*x^2", "y*x^4", "y*x^6", "y*x^8", "y*x^10"}),
        frozenset({"y*x", "y*x^3", "y*x^5", "y*x^7", "y*x^9", "y*x^11"}),
        frozenset({"x^2", "x^10"}),
        frozenset({"x", "x^11"}),
        frozenset({"x^5", "x^7"})}
    assert labels(dic24, 3) == {
        frozenset({"x^4", "x^8"}),
        frozenset({"x^2", "x^10"}),
        frozenset({"x", "x^11"}),
        frozenset({"x^5", "x^7"})}
    _line(5, "2- and 3-singular class tables match as labelled sets "
          "(4/2 classes for order 12, 7/4 for order 24)")


def test_criterion_6_word_identity_ledger():
    report = run_case("words")
    assert report.passed, [c.name for c in report.checks if not c.passed]
    by_name = {c.name: c for c in report.checks}
    relators = [c for c in report.checks if c.name.startswith("relator vanishes")]
    assert len(relators) == 8 and all(c.passed for c in relators)
    assert by_name["order of the image of r3"].computed == "infinite"
    assert by_name["order of the image of r1 s2"].computed == "4"
    assert by_name["beta^4 equals s2^-12"].passed
    recovery = [c for c in report.checks if "recovers" in c.name]
    assert len(recovery) == 6 and all(c.passed for c in recovery)
    _line(6, "all eight relators vanish, the displayed and conjugation "
          "identities hold, generators are recovered, and the order facts check out")


def test_criterion_7_property_suites():
    # cyclic closed-form oracles, n <= 30, p in {2, 3, 5}
    from tests.test_fusion import cyclic_modp_count, cyclic_padic_count, divisors
    from lowerk.fusion import ModP, Padic, Rational, fused_classes

    for n in range(1, 31):
        G = build_group(f"cyclic:{n}")
        assert fused_classes(G, Rational()).count == len(divisors(n))
        for p in (2, 3, 5):
            assert fused_classes(G, ModP(p)).count == cyclic_modp_count(n, p)
            assert fused_classes(G, Padic(p)).count == cyclic_padic_count(n, p)

    # SNF postconditions on 200 random matrices
    from tests.test_abelian import snf_postconditions
    rng = random.Random(20240817)
    for _ in range(200):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        snf_postconditions([[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)])

    # |ker| * |im| = |source| against the element-level oracle
    from tests.test_abelian import _brute_force_counts, _random_finite_map
    from lowerk.abelian import cokernel, kernel
    rng = random.Random(991)
    for _ in range(60):
        src, tgt, f = _random_finite_map(rng)
        want_ker, want_im = _brute_force_counts(src, tgt, f)
        assert kernel(f).order == want_ker
        assert tgt.order // cokernel(f).order == want_im

    # normal-form homomorphism property, 500 words per bundled amalgam
    from tests.test_amalgams import _random_word, pb3_amalgam
    from lowerk.casebook import full_braid_amalgam
    for am, seed in ((pb3_amalgam(), 11), (full_braid_amalgam(), 13)):
        symbols = sorted(am.A.generator_labels) + sorted(am.B.generator_labels)
        rng = random.Random(seed)
        for _ in range(500):
            w1, w2 = _random_word(rng, symbols), _random_word(rng, symbols)
            assert am.evaluate(w1 * w2) == am.mul(am.evaluate(w1), am.evaluate(w2))

    # every bundled sheet cites the K_-1 that Carter's formula computes
    for name, sheet in bundled_ksheets().items():
        assert sheet.entries["Km1"] == k_minus1(build_group(name)), name
    _line(7, "cyclic fusion oracles, 200 SNF postcondition checks, "
          "kernel/image counts, 2x500 normal-form words, and the bundled "
          "K_-1 sheets all hold")


def test_criterion_8_desk_scale_honesty():
    # the verification surface is exactly the four finite cases; no case
    # claims the general splitting for arbitrary marked surfaces
    assert set(CASES) == {"pb3", "b3", "mcg-rp2-3", "words"}
    from lowerk.cli import main
    assert main(["verify", "all"]) == 0
    _line(8, "verify-all enumerates exactly pb3, b3, mcg-rp2-3, words")
