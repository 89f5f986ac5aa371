import pytest
from hypothesis import given, strategies as st

from lowerk.errors import LimitExceeded, UnknownSymbol
from lowerk.groups import build_group, group_from_coset_table, is_isomorphic
from lowerk.presentations import (
    Presentation,
    Word,
    parse_word,
    todd_coxeter,
    van_buskirk,
    verify_homomorphism,
)

entries = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(min_value=-4, max_value=4)),
    max_size=8)


@given(entries)
def test_free_reduction_idempotent_and_shrinking(raw):
    w = Word.of(*raw)
    assert Word.of(*w.entries) == w
    assert w.length <= sum(abs(e) for _, e in raw)
    for (s1, _), (s2, _) in zip(w.entries, w.entries[1:]):
        assert s1 != s2
    assert all(e != 0 for _, e in w.entries)


@given(entries, entries)
def test_word_algebra(raw1, raw2):
    w1, w2 = Word.of(*raw1), Word.of(*raw2)
    assert (w1 * w2) * (w2.inverse() * w1.inverse()) == Word()
    assert w1 ** 0 == Word()
    assert w1 ** -2 == (w1.inverse()) * (w1.inverse())


@given(entries)
def test_word_parser_round_trip(raw):
    w = Word.of(*raw)
    assert parse_word(str(w)) == w


def test_presentation_rejects_undeclared_symbols():
    with pytest.raises(UnknownSymbol):
        Presentation(("a",), (parse_word("a b"),))


def test_van_buskirk_counts():
    p1 = van_buskirk(1)
    assert p1.generators == ("r1",)
    assert p1.relators == (parse_word("r1^2"),)

    p2 = van_buskirk(2)
    assert len(p2.generators) == 3
    assert len(p2.relators) == 3

    p3 = van_buskirk(3)
    assert len(p3.generators) == 5
    assert len(p3.relators) == 8

    p4 = van_buskirk(4)
    assert len(p4.generators) == 7
    assert len(p4.relators) == 16


def test_coset_enumeration_cyclic():
    for n in range(1, 51):
        pres = Presentation(("g",), (Word.of(("g", n)),))
        assert todd_coxeter(pres).index == n


def test_coset_enumeration_triangle_groups():
    # von Dyck style presentations with heavy coincidence traffic
    cases = [
        ("a^2 ; b^2 ; a b a b a b", 6),        # dihedral of order 6
        ("a^3 ; b^3 ; a b a b", 12),           # alternating on four letters
        ("a^2 ; b^3 ; a b a b a b a b a b", 60),  # alternating on five letters
        ("a^4 ; b^2 ; a b a b a b", 24),       # rotation group of the cube
    ]
    for rels, order in cases:
        relators = tuple(parse_word(r) for r in rels.split(";"))
        pres = Presentation(("a", "b"), relators)
        assert todd_coxeter(pres).index == order
    cube = Presentation(("a", "b"),
                        (parse_word("a^4"), parse_word("b^2"), parse_word("a b a b a b")))
    G = group_from_coset_table(todd_coxeter(cube), "cube-rotations")
    assert is_isomorphic(G, build_group("symmetric:4"))


def test_triangle_group_converts_to_group():
    pres = Presentation(("a", "b"),
                        (parse_word("a^3"), parse_word("b^3"), parse_word("a b a b")))
    G = group_from_coset_table(todd_coxeter(pres), "alt4")
    from lowerk.groups import center, conjugacy_classes
    assert G.order == 12
    assert center(G).order == 1
    assert sorted(len(c) for c in conjugacy_classes(G)) == [1, 3, 4, 4]


def test_coset_enumeration_with_subgroup():
    pres = Presentation(("g",), (Word.of(("g", 5)),))
    assert todd_coxeter(pres, (Word.of(("g", 1)),)).index == 1


def test_braid_group_indexes():
    assert todd_coxeter(van_buskirk(1)).index == 2
    assert todd_coxeter(van_buskirk(2)).index == 16
    # the pure subgroup of the 2-strand group has index 2
    subgroup = (parse_word("r1"), parse_word("r2"), parse_word("s1^2"))
    assert todd_coxeter(van_buskirk(2), subgroup).index == 2


def test_braid_group_on_three_strands_is_infinite():
    with pytest.raises(LimitExceeded) as info:
        todd_coxeter(van_buskirk(3), coset_limit=2000)
    # coincidences have merged some of the 2000 defined cosets away
    exc = info.value
    assert (exc.limit, exc.live) == (2000, 1833)
    assert str(exc) == "coset enumeration exceeded limit 2000 (1833 cosets live)"


def test_two_strand_group_is_generalized_quaternion():
    ct = todd_coxeter(van_buskirk(2))
    G = group_from_coset_table(ct, "braid2")
    assert is_isomorphic(G, build_group("dicyclic:16"))


def _trace(ct, coset, word):
    for sym, sgn in word.letters():
        coset = ct.table[coset][ct.column(sym, sgn)]
    return coset


def test_coset_table_self_consistency():
    for pres in (van_buskirk(1), van_buskirk(2),
                 Presentation(("g",), (Word.of(("g", 12)),))):
        ct = todd_coxeter(pres)
        for rel in pres.relators:
            for c in range(ct.index):
                assert _trace(ct, c, rel) == c


def test_verify_homomorphism_identity_images():
    pres = van_buskirk(3)
    target = build_group("cyclic:1")
    images = {g: Word() for g in pres.generators}
    assert verify_homomorphism(pres, target, images).ok


def test_verify_homomorphism_with_quotient_projection():
    from lowerk.groups import GroupHom, center, quotient

    pres = Presentation(("x", "y"), (parse_word("x^6 y^-2"), parse_word("y x y^-1 x")))
    D24 = build_group("dicyclic:24")
    in_group = {g: D24.generator_labels[g] for g in ("x", "y")}
    assert verify_homomorphism(pres, D24, in_group).ok
    Q = quotient(D24, center(D24))
    proj = GroupHom(D24, Q, Q.generator_labels)
    images = {g: proj.apply(D24.generator_labels[g]) for g in ("x", "y")}
    assert verify_homomorphism(pres, Q, images).ok


def test_verify_homomorphism_reports_failures():
    pres = Presentation(("x",), (parse_word("x^5"),))
    Z4 = build_group("cyclic:4")
    report = verify_homomorphism(pres, Z4, {"x": Z4.generator_labels["g"]})
    assert not report.ok
    assert report.failing_relators == [parse_word("x^5")]


def test_verify_homomorphism_missing_image():
    pres = Presentation(("x",), ())
    with pytest.raises(UnknownSymbol):
        verify_homomorphism(pres, build_group("cyclic:2"), {})
