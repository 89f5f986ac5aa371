import itertools
import random
import time
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from lowerk.errors import (
    NotNormal,
    OrderLimitExceeded,
    UnknownSpec,
)
from lowerk.groups import (
    GroupHom,
    _check_group_axioms,
    build_group,
    canonical_group_name,
    center,
    conjugacy_classes,
    dicyclic_group,
    group_order,
    is_isomorphic,
    quotient,
    subgroup_as_group,
    subgroup_generated,
)

BUNDLED = [
    "cyclic:1", "cyclic:2", "cyclic:4", "cyclic:5", "cyclic:8", "cyclic:12",
    "dihedral:2", "dihedral:3", "dihedral:6",
    "quaternion:8", "dicyclic:12", "dicyclic:16", "dicyclic:24",
    "symmetric:3", "symmetric:4",
    "binary-tetrahedral", "binary-octahedral",
]


@pytest.mark.parametrize("name", BUNDLED)
def test_axioms_and_class_equation(name):
    G = build_group(name)
    _check_group_axioms(G)
    classes = conjugacy_classes(G)
    assert sum(len(c) for c in classes) == G.order
    assert classes[0] == (G.identity,)
    for c in classes:
        assert G.order % len(c) == 0
        # class size equals index of the centralizer
        g = c[0]
        centralizer = sum(1 for h in range(G.order) if G.mul(g, h) == G.mul(h, g))
        assert G.order // centralizer == len(c)


def test_expected_orders():
    for name, order in [("cyclic:1", 1), ("cyclic:7", 7), ("dihedral:6", 12),
                        ("quaternion:8", 8), ("dicyclic:24", 24),
                        ("symmetric:4", 24), ("binary-octahedral", 48),
                        ("binary-tetrahedral", 24)]:
        assert group_order(name) == build_group(name).order == order


def test_each_name_builds_one_group_and_o_star_is_enumerated_once(monkeypatch):
    import functools

    from lowerk import groups

    # a fresh name cache, so the count does not depend on earlier tests
    monkeypatch.setattr(groups, "_build", functools.lru_cache(maxsize=None)(
        groups._build.__wrapped__))
    calls = []
    enumerate_cosets = groups.todd_coxeter
    monkeypatch.setattr(groups, "todd_coxeter",
                        lambda *args: calls.append(args) or enumerate_cosets(*args))
    T = build_group("binary-tetrahedral")
    O = build_group("binary-octahedral")
    assert len(calls) == 1
    assert build_group(" binary-tetrahedral ") is T and build_group("binary-octahedral") is O
    for name in ("cyclic:12", "dicyclic:8", "symmetric:04"):
        assert build_group(name) is build_group(canonical_group_name(name))


def test_dicyclic24_structure():
    G = build_group("dicyclic:24")
    x = G.generator_labels["x"]
    y = G.generator_labels["y"]
    assert G.element_order(x) == 12
    assert G.element_order(y) == 4
    assert G.power(x, 6) == G.power(y, 2)
    assert G.mul(G.mul(y, x), G.inv(y)) == G.inv(x)
    classes = conjugacy_classes(G)
    assert len(classes) == 9
    names = [{G.element_names[i] for i in c} for c in classes]
    assert {"x^6"} in names
    assert {"x^3", "x^9"} in names
    assert {"y", "y*x^2", "y*x^4", "y*x^6", "y*x^8", "y*x^10"} in names
    assert {"y*x", "y*x^3", "y*x^5", "y*x^7", "y*x^9", "y*x^11"} in names


def test_cyclic5_classes_all_singletons():
    G = build_group("cyclic:5")
    assert [len(c) for c in conjugacy_classes(G)] == [1] * 5


def test_q8_class_sizes():
    G = build_group("quaternion:8")
    assert sorted(len(c) for c in conjugacy_classes(G)) == [1, 1, 2, 2, 2]


def test_element_orders():
    G = build_group("dicyclic:12")
    assert G.element_order(G.identity) == 1
    w = G.generator_labels["x"]
    assert G.element_order(w) == 6
    assert G.element_order(G.power(w, 3)) == 2


def test_centers():
    assert center(build_group("quaternion:8")).order == 2
    assert center(build_group("symmetric:4")).order == 1
    Z12 = build_group("cyclic:12")
    assert center(Z12).order == 12
    assert center(build_group("binary-octahedral")).order == 2


def test_dicyclic_family_unique_central_involution():
    for n in range(2, 13):
        G = build_group(f"dicyclic:{4 * n}")
        involutions = [g for g in range(G.order) if G.element_order(g) == 2]
        assert len(involutions) == 1
        z = center(G)
        assert involutions[0] in z.elements


def test_quotients():
    O = build_group("binary-octahedral")
    Q = quotient(O, center(O))
    proj = GroupHom(O, Q, Q.generator_labels)
    assert Q.order == 24
    assert is_isomorphic(Q, build_group("symmetric:4"))
    assert proj.is_homomorphism()

    D12 = build_group("dicyclic:12")
    assert is_isomorphic(quotient(D12, center(D12)), build_group("dihedral:3"))

    trivial = subgroup_generated(D12, [])
    assert is_isomorphic(quotient(D12, trivial), D12)

    D24 = build_group("dicyclic:24")
    x6 = D24.power(D24.generator_labels["x"], 6)
    assert is_isomorphic(quotient(D24, subgroup_generated(D24, [x6])),
                         build_group("dihedral:6"))


def test_quotient_rejects_non_normal():
    S4 = build_group("symmetric:4")
    transposition = next(g for g in range(24) if S4.element_order(g) == 2
                         and len([h for h in range(24)
                                  if S4.conjugate(g, h) == g]) == 4)
    sub = subgroup_generated(S4, [transposition])
    with pytest.raises(NotNormal):
        quotient(S4, sub)


def test_capable_quotient_centers():
    # quotients by the center: trivial center for the dicyclic-12 and
    # octahedral cases, full Klein group for the quaternions, Z/2 for
    # the order-24 dicyclic group
    for name, want in [("dicyclic:12", 1), ("binary-octahedral", 1),
                       ("quaternion:8", 4), ("dicyclic:24", 2)]:
        G = build_group(name)
        assert center(quotient(G, center(G))).order == want


def test_subgroup_generated():
    D24 = build_group("dicyclic:24")
    x = D24.generator_labels["x"]
    y = D24.generator_labels["y"]
    assert subgroup_generated(D24, [D24.power(x, 2)]).order == 6
    assert subgroup_generated(D24, [D24.identity]).order == 1
    sub = subgroup_generated(D24, [D24.power(x, 2), y])
    assert sub.order == 12
    H, _ = subgroup_as_group(sub, "inner-dicyclic")
    assert is_isomorphic(H, build_group("dicyclic:12"))


def test_hom_check_cases():
    D12 = build_group("dicyclic:12")
    D24 = build_group("dicyclic:24")
    x = D24.generator_labels["x"]
    y = D24.generator_labels["y"]
    good = GroupHom(D12, D24, {"x": D24.power(x, 2), "y": y})
    assert good.is_homomorphism() and good.is_injective()
    const = GroupHom(D12, D24, {"x": D24.identity, "y": D24.identity})
    assert const.is_homomorphism() and not const.is_injective()
    bad = GroupHom(D12, D24, {"x": x, "y": y})
    assert not bad.is_homomorphism()


def test_is_isomorphic_basics():
    assert is_isomorphic(build_group("quaternion:8"), build_group("dicyclic:8"))
    assert not is_isomorphic(build_group("cyclic:4"), build_group("dihedral:2"))
    assert not is_isomorphic(build_group("cyclic:4"), build_group("cyclic:8"))
    # the three pairwise non-isomorphic nonabelian groups of order 12
    assert not is_isomorphic(build_group("dihedral:6"), build_group("dicyclic:12"))
    assert not is_isomorphic(build_group("dihedral:6"), build_group("cyclic:12"))
    assert not is_isomorphic(build_group("dicyclic:12"), build_group("cyclic:12"))
    # positive case across different constructions
    assert is_isomorphic(build_group("dihedral:3"), build_group("symmetric:3"))
    # reflexivity on the bundled list
    for name in BUNDLED:
        G = build_group(name)
        if G.order <= 200:
            assert is_isomorphic(G, G)


def test_is_isomorphic_symmetric_on_random_pairs():
    rng = random.Random(7)
    names = [n for n in BUNDLED if build_group(n).order <= 200]
    for _ in range(20):
        a, b = rng.choice(names), rng.choice(names)
        G, H = build_group(a), build_group(b)
        assert is_isomorphic(G, H) == is_isomorphic(H, G)


def test_is_isomorphic_order_cap():
    big = build_group("cyclic:300")
    with pytest.raises(OrderLimitExceeded):
        is_isomorphic(big, big)


def test_binary_tetrahedral_is_index_two_subgroup():
    O = build_group("binary-octahedral")
    T = build_group("binary-tetrahedral")
    gens = [O.generator_labels[s] for s in ("P", "Q", "X")]
    sub = subgroup_generated(O, gens)
    H, _ = subgroup_as_group(sub, "pqx")
    assert T.order == 24 and is_isomorphic(T, H)
    assert not is_isomorphic(T, build_group("symmetric:4"))


def test_build_errors():
    with pytest.raises(UnknownSpec):
        build_group("nonsense")
    with pytest.raises(UnknownSpec):
        build_group("dicyclic:10")
    with pytest.raises(UnknownSpec):
        build_group("dicyclic:4")
    with pytest.raises(UnknownSpec):
        build_group("quaternion:16")
    with pytest.raises(UnknownSpec):
        build_group("cyclic:x")
    with pytest.raises(OrderLimitExceeded):
        build_group("cyclic:20000")
    with pytest.raises(OrderLimitExceeded):
        build_group("symmetric:8")


def test_over_cap_names_are_refused_before_any_order():
    start = time.perf_counter()
    for name in ("symmetric:200000", "symmetric:" + "9" * 6000, "quaternion:" + "8" * 6000):
        with pytest.raises(OrderLimitExceeded):
            build_group(name)
    assert time.perf_counter() - start < 1
    # leading zeros are read, however many
    assert canonical_group_name("dicyclic:" + "0" * 6000 + "12") == "dicyclic:12"


FAMILIES = ["cyclic", "dihedral", "dicyclic", "quaternion", "symmetric",
            "binary-octahedral", "binary-tetrahedral", "so"]
DIGITS = "0123456789"
digit_strings = st.one_of(
    st.text(DIGITS, min_size=1, max_size=12),
    # up to 6000 digits: a short head, then one digit repeated
    st.builds(lambda head, k, d: head + d * k,
              st.text(DIGITS, min_size=1, max_size=6), st.integers(0, 5994),
              st.sampled_from(DIGITS)),
)
group_name_texts = st.one_of(
    st.text(),
    st.builds("{}:{}".format, st.sampled_from(FAMILIES), st.one_of(st.text(), digit_strings)),
    st.builds(" {} ".format, st.sampled_from(FAMILIES)),
)


@settings(max_examples=300, deadline=None)
@given(group_name_texts)
def test_group_name_grammar_has_canonical_fixed_points(spec):
    try:
        name = canonical_group_name(spec)
    except (UnknownSpec, OrderLimitExceeded):
        return
    assert canonical_group_name(name) == name


def test_dicyclic_letters():
    G = dicyclic_group(12, ("w", "z"))
    assert set(G.generator_labels) == {"w", "z"}
    assert G.element_names[3] == "w^3"
    assert G.element_names[6] == "z"
    assert G.element_names[8] == "z*w^2"


def test_evaluate_words():
    from lowerk.presentations import parse_word

    O = build_group("binary-octahedral")
    assert O.evaluate(parse_word("X^3")) == O.identity
    assert O.evaluate(parse_word("P^2 Q^-2")) == O.identity
    p2 = O.evaluate(parse_word("P^2"))
    assert O.element_order(p2) == 2
    assert p2 in center(O).elements


def test_computed_subgroups_satisfy_the_invariants():
    # closed under product and inverse, identity included
    for name in ("dicyclic:24", "symmetric:4", "binary-octahedral"):
        G = build_group(name)
        subs = [center(G),
                subgroup_generated(G, [1]),
                subgroup_generated(G, [1, G.order - 1])]
        for S in subs:
            members = set(S.elements)
            assert G.identity in members
            for a in members:
                assert G.inv(a) in members
                for b in members:
                    assert G.mul(a, b) in members


def test_presentation_collapse_guard(monkeypatch):
    # a built group whose order is not the one its name states is refused
    from lowerk import groups
    from lowerk.errors import PresentationCollapse

    _, build = groups._PRESENTED["binary-tetrahedral"]
    monkeypatch.setitem(groups._PRESENTED, "binary-tetrahedral", (23, build))
    groups._build.cache_clear()
    with pytest.raises(PresentationCollapse, match="order 24, expected 23"):
        build_group("binary-tetrahedral")


@pytest.mark.parametrize("relators,subgroup", [
    (("a^2", "b^3", "a b a b"), "a b"),      # S3 on the cosets of <ab>
    (("a^2", "b^4", "a b a b a b"), "a b^2"),  # S4 on six cosets
    (("a^2", "b^3", "a b a b"), "a"),        # S3 on the cosets of <a>: rows close into Z/3
])
def test_coset_tables_of_a_non_regular_action_are_refused(relators, subgroup):
    # the rows close into no group table, which the shared constructor's
    # axiom check refuses, or into one the generator columns do not act on
    # by right multiplication
    from lowerk.errors import PresentationCollapse
    from lowerk.groups import group_from_coset_table
    from lowerk.presentations import Presentation, parse_word, todd_coxeter

    ct = todd_coxeter(Presentation(("a", "b"), tuple(map(parse_word, relators))),
                      (parse_word(subgroup),))
    with pytest.raises(PresentationCollapse, match="fails"):
        group_from_coset_table(ct, "cosets")


@pytest.mark.parametrize("gen_rows,message", [
    ([(1, 0, 3, 2)], "generation fails; the generator rows reach 2 of 4"),
    ([(1, 1)], "inverse fails; a generator row lacks the identity"),
])
def test_generator_rows_that_make_no_group_are_refused(gen_rows, message):
    from lowerk import groups
    from lowerk.errors import PresentationCollapse

    names = [str(i) for i in range(len(gen_rows[0]))]
    with pytest.raises(PresentationCollapse, match=message):
        groups._group("rows", {"s": gen_rows[0]}, names)


@pytest.mark.parametrize("row", [(1, 0, 2), (1,), (1, 5), (1, -1), (1.0, 0), (True, 0)])
def test_a_generator_row_of_the_wrong_shape_is_refused(row):
    # the first three raised a bare IndexError or TypeError, -1 read as the
    # last element, 1.0 broke the gather and True read as 1
    from lowerk import groups
    from lowerk.errors import PresentationCollapse

    with pytest.raises(PresentationCollapse,
                       match=r"shape fails; the row of 's' is not 2 ints in range\(2\)"):
        groups._group("x", {"s": row}, ["a", "b"])


def test_a_coset_table_its_letters_do_not_connect_is_refused():
    # coset 1 is reached from coset 0 by no letter, so no walk names it
    from lowerk.errors import PresentationCollapse
    from lowerk.groups import group_from_coset_table
    from lowerk.presentations import CosetTable

    with pytest.raises(PresentationCollapse, match="reach 1 of 2 cosets"):
        group_from_coset_table(CosetTable(("a",), ((0, 0), (1, 1))), "split")


def _coset_rows_by_word_replay(ct):
    """Each generator's row as the word-replay construction reads it: name
    every coset by a word over (generators, then inverses) breadth first,
    then apply that word's letters to the generator's coset."""
    letters = [(sym, 1) for sym in ct.generators] + [(sym, -1) for sym in ct.generators]
    words = [None] * ct.index
    words[0] = ()
    frontier = [0]
    while frontier:
        nxt = []
        for c in frontier:
            for sym, sgn in letters:
                d = ct.table[c][ct.column(sym, sgn)]
                if words[d] is None:
                    words[d] = words[c] + ((sym, sgn),)
                    nxt.append(d)
        frontier = nxt

    def apply(c, w):
        for sym, sgn in w:
            c = ct.table[c][ct.column(sym, sgn)]
        return c

    s_of = {sym: ct.table[0][ct.column(sym, 1)] for sym in ct.generators}
    return {sym: tuple(apply(s, w) for w in words) for sym, s in s_of.items()}


_FAMILY_SIZES = {"cyclic": (1, 2, 7), "dihedral": (1, 2, 5), "dicyclic": (8, 12, 24),
                 "quaternion": (8,), "symmetric": (1, 3, 5)}
_TRIANGLE_RELATORS = ["a^2 ; b^2 ; a b a b a b", "a^3 ; b^3 ; a b a b",
                      "a^2 ; b^3 ; a b a b a b a b a b", "a^4 ; b^2 ; a b a b a b"]


def _every_construction():
    from lowerk import groups
    from lowerk.presentations import Presentation, parse_word, todd_coxeter, van_buskirk

    assert set(_FAMILY_SIZES) == set(groups._FAMILIES)
    for family, sizes in _FAMILY_SIZES.items():
        for n in sizes:
            yield build_group(f"{family}:{n}"), None
    G = build_group("binary-octahedral")
    yield G, None
    yield build_group("binary-tetrahedral"), None
    yield dicyclic_group(24, ("Y", "Z")), None
    yield quotient(G, center(G)), None
    sub = subgroup_generated(G, [G.generator_labels[s] for s in ("P", "Q", "X")])
    yield subgroup_as_group(sub, "labelled", {s: G.generator_labels[s] for s in "PQX"})[0], None
    yield subgroup_as_group(sub, "greedy")[0], None
    presentations = [van_buskirk(2)] + [
        Presentation(("a", "b"), tuple(parse_word(r) for r in rels.split(";")))
        for rels in _TRIANGLE_RELATORS]
    for pres in presentations:
        ct = todd_coxeter(pres)
        yield groups.group_from_coset_table(ct, "cosets"), ct


def test_inverses_match_an_independent_oracle():
    # the inverse of a is where a's row reaches the identity; a coset-table
    # group's generator rows are those a word replay reads off the table
    seen = 0
    for G, ct in _every_construction():
        assert all(G.inverses[a] == G.table[a].index(0) for a in range(G.order)), G.name
        if ct is not None:
            replayed = _coset_rows_by_word_replay(ct)
            assert {sym: G.table[s] for sym, s in G.generator_labels.items()} == replayed
        seen += 1
    assert seen == 24


def test_associativity_checked_above_order_64():
    from lowerk.errors import PresentationCollapse
    from lowerk.groups import FiniteGroup

    G = build_group("dicyclic:128")
    _check_group_axioms(G)
    rows = [list(r) for r in G.table]
    rows[5][7], rows[5][9] = rows[5][9], rows[5][7]
    broken = FiniteGroup("broken", G.order, tuple(map(tuple, rows)), G.inverses,
                         G.generator_labels, G.element_names, G.label_tree)
    with pytest.raises(PresentationCollapse):
        _check_group_axioms(broken)


def test_generator_checks_reject_bad_inputs():
    S3 = build_group("symmetric:3")
    t, c = S3.generator_labels["t"], S3.generator_labels["c"]
    assert t not in center(S3).elements and c not in center(S3).elements
    assert center(S3).elements == (S3.identity,)
    from lowerk.groups import is_normal
    assert not is_normal(subgroup_generated(S3, [t]))
    assert is_normal(subgroup_generated(S3, [c]))
    S4 = build_group("symmetric:4")
    # the 4-cycle normalizes its own subgroup; the transposition does not
    assert not is_normal(subgroup_generated(S4, [S4.generator_labels["c"]]))
    # each bad map breaks the relation of a different generator
    C6 = build_group("cyclic:6")
    g = C6.generator_labels["g"]
    assert not GroupHom(S3, C6, {"t": C6.power(g, 3), "c": g}).is_homomorphism()
    assert not GroupHom(S3, C6, {"t": g, "c": C6.identity}).is_homomorphism()
    assert GroupHom(S3, C6, {"t": C6.power(g, 3), "c": C6.identity}).is_homomorphism()
    # r -> x, s -> y extends to a bijection from D8 onto Q8, not to a homomorphism
    D8, Q8 = build_group("dihedral:4"), build_group("quaternion:8")
    bijection = GroupHom(D8, Q8, {"r": Q8.generator_labels["x"], "s": Q8.generator_labels["y"]})
    assert bijection.is_injective() and not bijection.is_homomorphism()


def test_invariants_need_generating_labels():
    # the invariants walk the labels' conjugation orbits, so a group whose
    # labels do not generate it is never built
    from lowerk import groups
    from lowerk.errors import PresentationCollapse

    G = build_group("dicyclic:12")
    with pytest.raises(PresentationCollapse, match="generation fails; the generator rows reach 6 of 12"):
        groups._group("partial", {"x": G.table[G.generator_labels["x"]]}, G.element_names)


def test_subgroup_as_group_refuses_labels_outside_the_subgroup_or_not_generating_it():
    from lowerk.errors import PresentationCollapse, UnknownSymbol

    S3 = build_group("symmetric:3")
    t, u = (S3.element_names.index(name) for name in ("(0 1)", "(0 2)"))
    S = subgroup_generated(S3, [t])
    # u generates a subgroup of the same order as S, outside it
    with pytest.raises(UnknownSymbol, match="'u' of sub is outside"):
        subgroup_as_group(S, "sub", {"u": u})
    with pytest.raises(PresentationCollapse, match="generation fails; the generator rows reach 1 of 2"):
        subgroup_as_group(S, "sub", {"e": S3.identity})
    H, elems = subgroup_as_group(S, "sub", {"t": t})
    assert elems == S.elements and H.generator_labels == {"t": 1}


def test_group_hom_refuses_malformed_images():
    # the images are keyed by exactly the source's labels, each an int
    # element index of the target
    S3, C6 = build_group("symmetric:3"), build_group("cyclic:6")
    for images, label in (({"t": -1, "c": 0}, "'t'"), ({"t": True, "c": 0}, "'t'"),
                          ({"t": 7, "c": 0}, "'t'"), ({"t": 6, "c": 0}, "'t'"),
                          ({"t": 3, "c": 0.0}, "'c'"), ({"t": "3", "c": 0}, "'t'"),
                          ({"c": 0}, "'t' of symmetric:3 has no image"),
                          ({"t": 3, "c": 0, "u": 0}, "'u' is not a label of symmetric:3")):
        with pytest.raises(ValueError, match=label):
            GroupHom(S3, C6, images)
    images = {"t": 3, "c": 0}
    hom = GroupHom(S3, C6, images)
    images["t"] = -1   # the map keeps the images it checked
    assert hom.is_homomorphism() and hom.images == {"t": 3, "c": 0}


def test_the_label_tree_is_the_breadth_first_tree_over_sorted_labels():
    from lowerk.casebook import pure_braid_graph_fixture
    from lowerk.groups import spanning_tree

    am = pure_braid_graph_fixture().segment_amalgam()
    for G in [G for G, _ in _every_construction()] + [am.A, am.B, am.C]:
        labels = G.generator_labels
        assert list(G.label_tree) == spanning_tree(G, [labels[lab] for lab in sorted(labels)]), G.name


@pytest.mark.parametrize("name,trees", [
    ("cyclic:256", 0), ("dicyclic:512", 0), ("symmetric:5", 0),
    ("binary-octahedral", 1),     # the coset tree
    ("binary-tetrahedral", 1),    # the subgroup of O* its labels generate
    ("binary-octahedral/Z", 0),   # the central quotient
])
def test_a_build_walks_no_tree_besides_its_closure(monkeypatch, name, trees):
    # the closure's tree is the label tree, so no build walks the group it
    # made a second time
    from lowerk import groups

    O = build_group("binary-octahedral")
    calls = []
    spanning_tree = groups.spanning_tree

    def counted(G, gens):
        calls.append(G)
        return spanning_tree(G, gens)

    monkeypatch.setattr(groups, "spanning_tree", counted)
    if name == "binary-octahedral/Z":
        quotient(O, center(O))
    else:
        groups._build.__wrapped__(canonical_group_name(name))
    assert len(calls) == trees


# --- the generator test against all-pairs oracles ----------------------------
# GroupHom.is_homomorphism and GraphWithAction share one test on generators,
# which the group constructor makes inside its closure and the axiom check
# reruns; each is held here to a check over every pair or triple.

SMALL = ["cyclic:1", "cyclic:2", "cyclic:4", "cyclic:6", "cyclic:12", "dihedral:2",
         "dihedral:3", "dihedral:4", "dihedral:6", "quaternion:8", "dicyclic:12",
         "dicyclic:24", "symmetric:3", "symmetric:4", "binary-tetrahedral"]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL), st.sampled_from(SMALL), st.booleans(), st.data())
def test_is_homomorphism_matches_all_pairs(source, target, inner, data):
    G, H = build_group(source), build_group(target)
    if inner:   # an inner automorphism, then perhaps one image moved
        H = G
        h = data.draw(st.integers(0, G.order - 1))
        images = {lab: G.conjugate(s, h) for lab, s in G.generator_labels.items()}
        if images and data.draw(st.booleans()):
            lab = data.draw(st.sampled_from(sorted(images)))
            images[lab] = data.draw(st.integers(0, G.order - 1))
    else:
        images = {lab: data.draw(st.integers(0, H.order - 1)) for lab in G.generator_labels}
    hom = GroupHom(G, H, images)
    f = hom.full_map()
    law = all(f[G.mul(a, b)] == H.mul(f[a], f[b]) for a in range(G.order) for b in range(G.order))
    assert hom.is_homomorphism() == law


def is_group_table(table, inverses) -> bool:
    n = len(table)
    return (all(table[0][a] == table[a][0] == a for a in range(n))
            and all(table[a][inverses[a]] == table[inverses[a]][a] == 0 for a in range(n))
            and all(table[table[a][b]][c] == table[a][table[b][c]]
                    for a in range(n) for b in range(n) for c in range(n)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_axiom_check_matches_all_triples_on_swapped_entries(name, data):
    from lowerk.errors import PresentationCollapse
    from lowerk.groups import FiniteGroup

    G = build_group(name)
    a, b, c = (data.draw(st.integers(0, G.order - 1)) for _ in range(3))
    rows = [list(r) for r in G.table]
    rows[a][b], rows[a][c] = rows[a][c], rows[a][b]   # b == c leaves the group
    table = tuple(map(tuple, rows))
    H = FiniteGroup("swapped", G.order, table, G.inverses, G.generator_labels, G.element_names,
                    G.label_tree)
    if is_group_table(table, G.inverses):
        _check_group_axioms(H)
    else:
        with pytest.raises(PresentationCollapse):
            _check_group_axioms(H)


def closure_is_a_group(gen_rows, n) -> bool:
    """The oracle for `_group`: close the rows breadth first with no check,
    then ask for a full group table, by all triples, in which each
    generator row is the row of the element it names."""
    rows = {0: tuple(range(n))}
    queue = [0]
    for a in queue:
        for r in gen_rows:
            b = rows[a][r[0]]
            if b not in rows:
                rows[b] = tuple(rows[a][r[j]] for j in range(n))
                queue.append(b)
    if len(rows) != n or not all(0 in rows[a] for a in range(n)):
        return False
    table = [rows[a] for a in range(n)]
    return (is_group_table(table, [r.index(0) for r in table])
            and all(table[r[0]] == tuple(r) for r in gen_rows))


def _group_or_refusal(gen_rows, names):
    """_group's table, or None when it refuses."""
    from lowerk import groups
    from lowerk.errors import PresentationCollapse

    try:
        return groups._group("swapped", {f"s{k}": tuple(r) for k, r in enumerate(gen_rows)},
                             names).table
    except PresentationCollapse as exc:
        assert "fails" in str(exc)
        return None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_group_constructor_matches_a_naive_closure_on_swapped_generator_rows(name, data):
    # the constructor tests associativity inside its closure, on the pairs
    # off the breadth-first tree; a swap in a generator row may break the
    # rows, move the row to another element or leave them a group
    G = build_group(name)
    gen_rows = [list(G.table[s]) for s in G.generators() or [G.identity]]
    row = data.draw(st.sampled_from(gen_rows))
    i, j = (data.draw(st.integers(0, G.order - 1)) for _ in range(2))
    row[i], row[j] = row[j], row[i]
    table = _group_or_refusal(gen_rows, G.element_names)
    assert (table is not None) == closure_is_a_group(gen_rows, G.order)
    if table is not None:
        assert all(table[r[0]] == tuple(r) for r in gen_rows)


def test_two_generator_rows_naming_one_element_must_agree():
    # dihedral:3's rows with entries 0 and 4 of the rotation row swapped
    # both name the reflection, with different rows
    from lowerk import groups
    from lowerk.errors import PresentationCollapse

    G = build_group("dihedral:3")
    r, s = G.table[G.generator_labels["r"]], G.table[G.generator_labels["s"]]
    swapped = (r[4],) + r[1:4] + (r[0],) + r[5:]
    assert swapped[0] == s[0] and swapped != s
    assert not closure_is_a_group([swapped, s], G.order)
    with pytest.raises(PresentationCollapse, match="associativity fails"):
        groups._group("swapped", {"r": swapped, "s": s}, G.element_names)


@pytest.mark.parametrize("name,gathers", [
    ("dicyclic:512", 1024), ("cyclic:256", 256), ("symmetric:4", 48),
    ("binary-octahedral", 192), ("cyclic:1", 0),
])
def test_group_constructor_gathers_each_pair_once(monkeypatch, name, gathers):
    # k generator rows over n elements take k n gathers, the n - 1 tree
    # pairs among them: the axiom check makes none of its own
    from lowerk import groups

    calls = []

    def counting_itemgetter(*items):
        gather = itemgetter(*items)

        def counted(row):
            calls.append(1)
            return gather(row)
        return counted

    monkeypatch.setattr(groups, "itemgetter", counting_itemgetter)
    G = groups._build.__wrapped__(canonical_group_name(name))
    assert len(calls) == gathers == (len(G.generator_labels) * G.order if G.order > 1 else 0)


def test_class_orders_come_from_power_walks(monkeypatch):
    # the invariants never ask for one element's order; the orders are
    # checked against an oracle in test_invariants
    from lowerk import groups

    def refuse(self, g):
        raise AssertionError("element_order called")

    monkeypatch.setattr(groups.FiniteGroup, "element_order", refuse)
    for name in ("cyclic:1", "cyclic:256", "dicyclic:24", "symmetric:4", "binary-octahedral"):
        G = groups._build.__wrapped__(canonical_group_name(name))
        orders = G.invariants().orders
        assert len(orders) == len(G.invariants().classes) and orders[0] == 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6", "dihedral:2",
                        "dihedral:3", "symmetric:3", "quaternion:8", "dicyclic:12"]),
       st.booleans(), st.data())
def test_graph_action_matches_all_pairs(name, star, data):
    """Three vertices, either joined pairwise or each joined to a fourth
    that every element fixes; every permutation of the three carries edges
    along, so each generator passes on its own, and only the complete graph
    lets an element invert an edge."""
    from lowerk.amalgams import EDGES, VERTICES, GraphWithAction
    from lowerk.errors import EdgeInversion, NotAnAction

    G = build_group(name)
    nv = 4 if star else 3
    edges = (tuple(p for i in range(3) for p in ((i, 3), (3, i))) if star else
             tuple((i, j) for i in range(3) for j in range(3) if i != j))
    index = {e: k for k, e in enumerate(edges)}
    reverse = tuple(index[j, i] for i, j in edges)
    perms = [p + (3,) * star for p in itertools.permutations(range(3))]
    vertex = {lab: data.draw(st.sampled_from(perms)) for lab in sorted(G.generator_labels)}
    action = {lab: (vp, tuple(index[vp[i], vp[j]] for i, j in edges))
              for lab, vp in vertex.items()}
    # oracle: each element acts as its breadth-first word, act(g s) = act(g) o act(s)
    act, queue = {G.identity: tuple(range(nv))}, [G.identity]
    for g in queue:
        for lab in sorted(G.generator_labels):
            h = G.mul(g, G.generator_labels[lab])
            if h not in act:
                act[h] = tuple(act[g][v] for v in vertex[lab])
                queue.append(h)
    law = all(act[G.mul(a, b)] == tuple(act[a][v] for v in act[b])
              for a in range(G.order) for b in range(G.order))
    if not law:
        with pytest.raises(NotAnAction, match="inconsistent"):
            GraphWithAction(G, nv, edges, reverse, action)
    elif any(act[g][i] == j and act[g][j] == i for g in act for i, j in edges):
        with pytest.raises(EdgeInversion):
            GraphWithAction(G, nv, edges, reverse, action)
    else:
        gwa = GraphWithAction(G, nv, edges, reverse, action)
        for v in range(nv):
            assert gwa.stabilizer(VERTICES, v).elements == tuple(
                g for g in range(G.order) if act[g][v] == v)
            assert gwa.orbit(VERTICES, v) == tuple(sorted({act[g][v] for g in act}))
        for e, (i, j) in enumerate(edges):
            assert gwa.stabilizer(EDGES, e).elements == tuple(
                g for g in range(G.order) if (act[g][i], act[g][j]) == (i, j))
            assert gwa.orbit(EDGES, e) == tuple(sorted({index[act[g][i], act[g][j]] for g in act}))


def test_graph_action_composes_in_the_group_order():
    # S3 permutes three leaves of a star by its own permutations; the
    # stabilizer of leaf 0 is {1, (1 2)}, which acting in the opposite
    # order would conjugate away
    from lowerk.amalgams import VERTICES, GraphWithAction

    S3 = build_group("symmetric:3")
    edges = ((0, 3), (3, 0), (1, 3), (3, 1), (2, 3), (3, 2))
    perm = {"t": (1, 0, 2, 3), "c": (1, 2, 0, 3)}
    action = {lab: (vp, tuple(edges.index((vp[i], vp[j])) for i, j in edges))
              for lab, vp in perm.items()}
    gwa = GraphWithAction(S3, 4, edges, (1, 0, 3, 2, 5, 4), action)
    assert [S3.element_names[g] for g in gwa.stabilizer(VERTICES, 0).elements] == ["e", "(1 2)"]
    assert gwa.orbit(VERTICES, 0) == (0, 1, 2) and gwa.orbit(VERTICES, 3) == (3,)
