import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lowerk import presentations
from lowerk.amalgams import (
    Amalgam,
    AmalgamElement,
    INFINITE,
    SIDE_A,
    SIDE_B,
    kernel_amalgam,
)
from lowerk.casebook import PHI_IMAGES, full_braid_amalgam, phi, pure_braid_amalgam
from lowerk.errors import NotHomomorphism, NotInjective, UnknownSymbol, UsageError
from lowerk.groups import (
    FiniteGroup,
    GroupHom,
    build_group,
    is_isomorphic,
    subgroup_as_group,
    subgroup_generated,
)
from lowerk.presentations import Word, parse_word, van_buskirk, verify_homomorphism


def degenerate_amalgam(name="quaternion:8"):
    G = build_group(name)
    ident = GroupHom(G, G, dict(G.generator_labels))
    return Amalgam(ident, ident)


def pb3_amalgam():
    Z4 = build_group("cyclic:4")
    Q8 = build_group("quaternion:8")
    Z2 = build_group("cyclic:2")
    iA = GroupHom(Z2, Z4, {"g": Z4.power(Z4.generator_labels["g"], 2)})
    iB = GroupHom(Z2, Q8, {"g": Q8.power(Q8.generator_labels["x"], 2)})
    return Amalgam(iA, iB)


def test_degenerate_amalgam_every_element_has_empty_syllables():
    am = degenerate_amalgam()
    G = am.A
    assert am.index(SIDE_A) == 1 and am.index(SIDE_B) == 1
    for g in range(G.order):
        e = am.embed_vertex(SIDE_A, g)
        assert e.syllables == ()
        assert am.order_of(e) == G.element_order(g)


def test_pb3_amalgam_indices():
    am = pb3_amalgam()
    assert am.index(SIDE_A) == 2
    assert am.index(SIDE_B) == 4


def test_construct_rejects_bad_embeddings():
    Z4 = build_group("cyclic:4")
    Q8 = build_group("quaternion:8")
    Z2 = build_group("cyclic:2")
    not_inj = GroupHom(Z2, Z4, {"g": Z4.identity})
    ok = GroupHom(Z2, Q8, {"g": Q8.power(Q8.generator_labels["x"], 2)})
    with pytest.raises(NotInjective):
        Amalgam(not_inj, ok)
    Z3 = build_group("cyclic:3")
    not_hom = GroupHom(Z3, Z4, {"g": Z4.generator_labels["g"]})
    with pytest.raises((NotHomomorphism, NotInjective)):
        Amalgam(not_hom, GroupHom(Z3, Q8, {"g": Q8.identity}))


def test_construct_rejects_embeddings_of_different_sources():
    # each is an injective homomorphism; only their sources disagree
    Z1, Z2, Z4 = build_group("cyclic:1"), build_group("cyclic:2"), build_group("cyclic:4")
    iA = GroupHom(Z2, Z4, {"g": Z4.power(Z4.generator_labels["g"], 2)})
    iB = GroupHom(Z1, Z4, {})
    with pytest.raises(NotHomomorphism, match="different sources"):
        Amalgam(iA, iB)


def shared_label_amalgam():
    """Q8 *_{Z/2} <y>, where y labels Q8's y and the generator of the
    cyclic subgroup <y>: two elements outside the edge group on different
    sides."""
    Q8, Z2 = build_group("quaternion:8"), build_group("cyclic:2")
    y = Q8.generator_labels["y"]
    Y, _ = subgroup_as_group(subgroup_generated(Q8, [y]), "cyclic-y", {"y": y})
    return Amalgam(GroupHom(Z2, Q8, {"g": Q8.power(y, 2)}),
                   GroupHom(Z2, Y, {"g": Y.power(Y.generator_labels["y"], 2)}))


def test_a_symbol_naming_two_elements_is_refused():
    am = shared_label_amalgam()
    assert "y" in am.A.generator_labels and "y" in am.B.generator_labels
    with pytest.raises(UnknownSymbol, match="'y'"):
        am.evaluate(parse_word("y"))
    with pytest.raises(UnknownSymbol, match="'y'"):
        am.evaluate(parse_word("x y"))
    x = am.A.generator_labels["x"]
    assert am.evaluate(parse_word("x")) == am.embed_vertex(SIDE_A, x)
    assert am.evaluate(parse_word("x^2")) == am.embed_vertex(SIDE_A, am.A.power(x, 2))


def test_a_parsed_word_reaches_every_generator_of_the_segment_amalgam():
    # the stabilizers' labels differ between the sides and parse back as
    # symbols, so no generator of either vertex group is out of reach
    am = amalgam_named("pb3-segment")
    labels = [(side, lab, g) for side, V in ((SIDE_A, am.A), (SIDE_B, am.B))
              for lab, g in V.generator_labels.items()]
    assert len(labels) == len(am.A.generator_labels.keys() | am.B.generator_labels.keys())
    for side, lab, g in labels:
        assert parse_word(lab).entries == ((lab, 1),)
        assert am.evaluate(parse_word(lab)) == am.embed_vertex(side, g)
        assert am.evaluate(parse_word(f"{lab}^-3")) == am.embed_vertex(
            side, am._vertex[side].power(g, -3))
    assert subgroup_generated(am.A, [g for side, _, g in labels if side == SIDE_A]).order == am.A.order
    assert subgroup_generated(am.B, [g for side, _, g in labels if side == SIDE_B]).order == am.B.order


@pytest.mark.parametrize("which", ["pb3", "b3", "degenerate", "pb3-segment"])
def test_each_table_symbol_evaluates_to_its_vertex_element(which):
    am = amalgam_named(which)
    assert am._symbols
    for sym, (side, g) in am._symbols.items():
        assert g == am._vertex[side].generator_labels[sym]
        assert am.evaluate(Word(((sym, 1),))) == am.embed_vertex(side, g)
    shared = am.A.generator_labels.keys() & am.B.generator_labels.keys()
    if which == "degenerate":
        assert shared and shared <= am._symbols.keys()


@pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
def test_power_refuses_an_exponent_that_is_not_an_int(n):
    am = amalgam_named("b3")
    e = am.evaluate(parse_word("P Y"))
    with pytest.raises(ValueError, match="not an int"):
        am.power(e, n)


def test_phi_refuses_a_symbol_that_is_not_a_braid_generator():
    with pytest.raises(UnknownSymbol, match="'s9'"):
        phi(amalgam_named("b3"), parse_word("s1 s9"))


def _random_word(rng, symbols, max_len=6):
    entries = [(rng.choice(symbols), rng.randint(-3, 3)) for _ in range(rng.randint(0, max_len))]
    return Word(entries)


@pytest.mark.parametrize("which,seed", [("pb3", 101), ("b3", 202), ("degenerate", 303)])
def test_normal_form_homomorphism_property(which, seed):
    # acceptance: 500 random words per bundled amalgam
    if which == "pb3":
        am = pb3_amalgam()
    elif which == "degenerate":
        am = degenerate_amalgam()
    else:
        am = full_braid_amalgam()
    symbols = sorted(am.A.generator_labels) + sorted(am.B.generator_labels)
    rng = random.Random(seed)
    for _ in range(500):
        w1 = _random_word(rng, symbols)
        w2 = _random_word(rng, symbols)
        assert am.evaluate(w1 * w2) == am.mul(am.evaluate(w1), am.evaluate(w2))


@pytest.mark.parametrize("which", ["pb3", "b3"])
def test_normal_form_alternation(which):
    am = pb3_amalgam() if which == "pb3" else full_braid_amalgam()
    symbols = sorted(am.A.generator_labels) + sorted(am.B.generator_labels)
    rng = random.Random(123)
    for _ in range(200):
        e = am.evaluate(_random_word(rng, symbols))
        for (s1, t1), (s2, t2) in zip(e.syllables, e.syllables[1:]):
            assert s1 != s2
        for side, t in e.syllables:
            assert t != am._vertex[side].identity
            assert t in am.transversal(side)


def test_order_of_consistency():
    am = full_braid_amalgam()
    symbols = sorted(am.A.generator_labels) + sorted(am.B.generator_labels)
    rng = random.Random(5)
    seen_infinite = 0
    for _ in range(100):
        e = am.evaluate(_random_word(rng, symbols, max_len=4))
        k = am.order_of(e)
        if k is INFINITE or k == INFINITE:
            seen_infinite += 1
            for j in range(1, 25):
                assert am.power(e, j) != am.identity_element
        else:
            assert am.power(e, k) == am.identity_element
            for j in range(1, k):
                assert am.power(e, j) != am.identity_element
    assert seen_infinite > 0


def test_empty_word_evaluates_to_identity():
    am = full_braid_amalgam()
    e = am.evaluate(Word())
    assert e.head == am.C.identity
    assert e.syllables == ()
    assert e == am.identity_element


def test_braid_amalgam_examples():
    am = full_braid_amalgam()
    assert am.evaluate(parse_word("P^2 X^-1 Y^-2")) == am.identity_element
    lhs = am.evaluate(parse_word("Z P Y^3 Y Q^-1 Z^-1 Z P Y^3"))
    rhs = am.evaluate(parse_word("Y Q^-1 Z^-1 Z P Y^3 Y Q^-1 Z^-1"))
    assert lhs == rhs
    assert am.order_of(am.evaluate(parse_word("P Y^3"))) == INFINITE
    assert am.order_of(am.evaluate(parse_word("Y"))) == 12
    assert am.order_of(am.identity_element) == 1


def test_broken_image_fails_one_relator():
    am = full_braid_amalgam()
    vb = van_buskirk(3)
    images = dict(PHI_IMAGES)
    images["s1"] = parse_word("Z P Y^2")
    report = verify_homomorphism(vb, am, images)
    assert not report.ok
    assert report.failing_relators


def test_evaluate_unknown_symbol():
    am = full_braid_amalgam()
    with pytest.raises(UnknownSymbol):
        am.evaluate(parse_word("W^2"))


def test_vertex_words_agree_with_group_evaluation():
    # a word purely in one vertex group's labels evaluates to the
    # embedding of that group's own evaluation
    am = full_braid_amalgam()
    rng = random.Random(17)
    for side, G in ((SIDE_A, am.A), (SIDE_B, am.B)):
        symbols = sorted(G.generator_labels)
        for _ in range(100):
            w = _random_word(rng, symbols)
            assert am.evaluate(w) == am.embed_vertex(side, G.evaluate(w))


# --- the seed's normal-form arithmetic, kept as the oracle -----------------
# One vertex element at a time, left-multiplied onto a tuple; products,
# inverses and powers by repeated multiplication; cyclic reduction by
# conjugating with the leading syllable until the ends differ.

def seed_factor(am, side, u):
    """The (c, t) with u = i(c) * t, t in the transversal, by search."""
    V, image = am._vertex[side], am._embed[side]
    return next((c, t) for t in am._transversal[side] for c in range(am.C.order)
                if V.table[image[c]][t] == u)


def seed_left_mul_vertex(am, side, x, e):
    V = am._vertex[side]
    image = am._embed[side]
    u = V.table[x][image[e.head]]
    c1, s1 = seed_factor(am, side, u)
    if s1 == V.identity:
        return AmalgamElement(c1, e.syllables)
    syll = e.syllables
    if not syll or syll[0][0] != side:
        return AmalgamElement(c1, ((side, s1),) + syll)
    v = V.table[s1][syll[0][1]]
    c2, s2 = seed_factor(am, side, v)
    head = am.C.table[c1][c2]
    rest = syll[1:]
    if s2 == V.identity:
        return AmalgamElement(head, rest)
    return AmalgamElement(head, ((side, s2),) + rest)


def seed_vertex_sequence(am, e):
    seq = []
    if e.head != am.C.identity:
        seq.append((SIDE_A, am._embed[SIDE_A][e.head]))
    seq.extend(e.syllables)
    return seq


def seed_mul(am, e1, e2):
    out = e2
    for side, x in reversed(seed_vertex_sequence(am, e1)):
        out = seed_left_mul_vertex(am, side, x, out)
    return out


def seed_inv(am, e):
    out = am.identity_element
    for side, x in seed_vertex_sequence(am, e):
        out = seed_left_mul_vertex(am, side, am._vertex[side].inverses[x], out)
    return out


def seed_power(am, e, n):
    if n < 0:
        e, n = seed_inv(am, e), -n
    out = am.identity_element
    for _ in range(n):
        out = seed_mul(am, out, e)
    return out


def seed_evaluate(am, word):
    out = am.identity_element
    for sym, exp in reversed(word.entries):
        side, g = am._symbols[sym]
        out = seed_left_mul_vertex(am, side, am._vertex[side].power(g, exp), out)
    return out


def seed_order_of(am, e):
    while len(e.syllables) >= 2 and e.syllables[0][0] == e.syllables[-1][0]:
        side, s1 = e.syllables[0]
        lead = AmalgamElement(e.head, ((side, s1),))
        e = seed_mul(am, seed_mul(am, seed_inv(am, lead), e), lead)
    if len(e.syllables) >= 2:
        return INFINITE
    if len(e.syllables) == 0:
        return am.C.element_order(e.head)
    side, t = e.syllables[0]
    V = am._vertex[side]
    return V.element_order(V.table[am._embed[side][e.head]][t])


@functools.cache
def amalgam_named(which):
    return {"pb3": pb3_amalgam, "b3": full_braid_amalgam, "degenerate": degenerate_amalgam,
            "pb3-segment": lambda: pure_braid_amalgam(full_braid_amalgam()),
            "identity-label": identity_label_amalgam}[which]()


amalgam_names = st.sampled_from(["pb3", "b3", "degenerate", "pb3-segment"])


@st.composite
def normal_forms(draw, am, max_len=10):
    """Any normal form: a head, then alternating non-identity representatives."""
    head = draw(st.integers(0, am.C.order - 1))
    reps = [[t for t in am.transversal(side) if t != am._vertex[side].identity]
            for side in (SIDE_A, SIDE_B)]
    side = draw(st.sampled_from((SIDE_A, SIDE_B)))
    syll = []
    for _ in range(draw(st.integers(0, max_len))):
        if not reps[side]:
            break
        syll.append((side, draw(st.sampled_from(reps[side]))))
        side = 1 - side
    return AmalgamElement(head, tuple(syll))


def words_over(am, max_len=12):
    symbols = sorted(am.A.generator_labels) + sorted(am.B.generator_labels)
    entries = st.tuples(st.sampled_from(symbols), st.integers(-4, 4))
    return st.lists(entries, max_size=max_len).map(lambda es: Word(es))


@settings(max_examples=150, deadline=None)
@given(amalgam_names, st.data())
def test_evaluate_matches_seed_oracle(which, data):
    am = amalgam_named(which)
    w = data.draw(words_over(am))
    assert am.evaluate(w) == seed_evaluate(am, w)


@pytest.mark.parametrize("which", ["pb3", "b3", "degenerate", "pb3-segment"])
def test_embed_vertex_matches_seed_oracle(which):
    am = amalgam_named(which)
    for side, V in ((SIDE_A, am.A), (SIDE_B, am.B)):
        for x in range(V.order):
            want = seed_left_mul_vertex(am, side, x, am.identity_element)
            assert am.embed_vertex(side, x) == want


@settings(max_examples=150, deadline=None)
@given(amalgam_names, st.data())
def test_mul_inv_power_match_seed_oracle(which, data):
    am = amalgam_named(which)
    e = data.draw(normal_forms(am))
    f = data.draw(normal_forms(am))
    n = data.draw(st.integers(-6, 6))
    assert am.mul(e, f) == seed_mul(am, e, f)
    assert am.inv(e) == seed_inv(am, e)
    assert am.power(e, n) == seed_power(am, e, n)


@settings(max_examples=150, deadline=None)
@given(amalgam_names, st.data())
def test_mul_with_a_cancelling_junction_matches_seed_oracle(which, data):
    # e = u v and f = v^-1 w: e's tail and f's head cancel, here completely
    # when w is trivial, and e e^-1 cancels down to the identity
    am = amalgam_named(which)
    u, v, w = (data.draw(normal_forms(am)) for _ in range(3))
    e = seed_mul(am, u, v)
    f = seed_mul(am, seed_inv(am, v), w)
    assert am.mul(e, f) == seed_mul(am, e, f) == seed_mul(am, u, w)
    assert am.mul(e, am.inv(e)) == am.identity_element
    assert am.mul(am.inv(e), e) == am.identity_element


@settings(max_examples=150, deadline=None)
@given(amalgam_names, st.data())
def test_order_of_matches_seed_oracle(which, data):
    # conjugates u v u^-1 of a short v have long ends on one side, which the
    # cyclic reduction peels letter by letter
    am = amalgam_named(which)
    u = data.draw(normal_forms(am, max_len=12))
    v = data.draw(normal_forms(am, max_len=3))
    conj = seed_mul(am, seed_mul(am, u, v), seed_inv(am, u))
    for e in (u, v, conj):
        assert am.order_of(e) == seed_order_of(am, e)
    assert am.order_of(conj) == am.order_of(v)


def identity_label_amalgam():
    """Z/4 *_{Z/2} Q8, with Q8 given a third label `one` for its identity."""
    Z4, Q8, Z2 = build_group("cyclic:4"), build_group("quaternion:8"), build_group("cyclic:2")
    labels = dict(Q8.generator_labels, one=Q8.identity)
    Q, _ = subgroup_as_group(subgroup_generated(Q8, labels.values()), "quaternion-one", labels)
    return Amalgam(GroupHom(Z2, Z4, {"g": Z4.power(Z4.generator_labels["g"], 2)}),
                   GroupHom(Z2, Q, {"g": Q.power(Q.generator_labels["x"], 2)}))


@pytest.mark.parametrize("which", ["pb3", "b3", "degenerate", "pb3-segment", "identity-label"])
def test_evaluate_reads_any_exponent_like_the_seed_oracle(which):
    # exponents that are multiples of the order, negative, or at least 10^6
    # wrap around the power tables as FiniteGroup.power reads them
    am = amalgam_named(which)
    if which == "identity-label":
        assert am._powers["one"] == (SIDE_B, (am.B.identity,))
    letters = []
    for sym, (side, g) in sorted(am._symbols.items()):
        o = am._vertex[side].element_order(g)
        for exp in (0, o, -o, 7 * o, -1, -o - 1, 10**6, -(10**6) - 1, 10**9 + 7, 3 * 10**6 * o):
            w = Word(((sym, exp),))
            assert am.evaluate(w) == seed_evaluate(am, w) == am.embed_vertex(
                side, am._vertex[side].power(g, exp))
            letters.append((sym, exp))
    rng = random.Random(which)
    for _ in range(20):
        w = Word(rng.sample(letters, min(12, len(letters))))
        assert am.evaluate(w) == seed_evaluate(am, w)


def test_b3_words_and_products_call_no_group_power(monkeypatch):
    # a letter reads its label's power table, and a junction step its side's
    # action table, so no square-and-multiply runs per letter or syllable
    am = amalgam_named("b3")
    w = parse_word("P^5 Y^-3 Q^3 X^-1 Y^1000001 P^-7 Y^2 Q^-5")
    want = seed_evaluate(am, w)
    u = seed_evaluate(am, parse_word("Y P^3 Y^-1 Q"))
    product = seed_mul(am, want, u)

    def refused(*_):
        raise AssertionError("FiniteGroup.power called")

    monkeypatch.setattr(FiniteGroup, "power", refused)
    assert am.evaluate(w) == want
    assert am.mul(want, u) == product
    assert am.mul(am.inv(want), want) == am.identity_element


def test_b3_normal_forms_share_one_syllable_per_coset():
    # a syllable is its coset's one (side, t) of the amalgam, never a new
    # tuple per letter, so however long a normal form it holds at most
    # (index A - 1) + (index B - 1) distinct syllable objects
    am = amalgam_named("b3")
    bound = am.index(SIDE_A) - 1 + am.index(SIDE_B) - 1
    assert bound == 4
    u = am.evaluate(Word([("P" if i % 2 == 0 else "Y", 1) for i in range(2000)]))
    v = am.evaluate(Word([("Y" if i % 2 == 0 else "Q", -1) for i in range(2000)]))
    forms = {"word": u, "inverse": am.inv(u), "product": am.mul(u, v), "cube": am.power(u, 3)}
    # the product cancels at its junction, where Y meets Y^-1
    assert [len(e.syllables) for e in forms.values()] == [2000, 2000, 3997, 6000]
    for what, e in forms.items():
        assert len({id(s) for s in e.syllables}) <= bound, what


_B3_SCALE = """
from lowerk.amalgams import SIDE_A
from lowerk.casebook import full_braid_amalgam
from lowerk.presentations import Word, parse_word

am = full_braid_amalgam()
w = parse_word("P Y Q Y^3 P^-1 Y Q Y^-1")
e = am.evaluate(w)
assert len(e.syllables) == 8
big = am.power(e, 2000)
half = am.power(e, 1000)
assert big == am.mul(half, half)
assert big == am.evaluate(Word(w.entries * 2000))
assert am.power(big, -1) == am.inv(big) == am.power(am.inv(e), 2000)

u = am.evaluate(Word([("P" if i % 2 == 0 else "Y", 1) for i in range(2000)]))
assert len(u.syllables) == 2000
x = am.A.generator_labels["P"]
conj = am.mul(am.mul(u, am.embed_vertex(SIDE_A, x)), am.inv(u))
assert len(conj.syllables) >= 3999
assert am.order_of(conj) == am.A.element_order(x)
print("ok")
"""


def test_b3_power_2000_and_long_conjugate_finish():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", _B3_SCALE], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_powers_and_phi_splices_reduce_their_entries_once(monkeypatch):
    # a power or a splice collects its entries and reduces them once, so
    # the entries passed to _reduce grow linearly with the word
    am, ab, braid = full_braid_amalgam(), parse_word("a b"), parse_word("s1 r2") ** 500
    spliced = sum(len((PHI_IMAGES[sym] ** exp).entries) for sym, exp in braid.entries)
    seen = []
    real_reduce = presentations._reduce

    def counting(entries):
        entries = list(entries)
        seen.append(len(entries))
        return real_reduce(entries)

    monkeypatch.setattr(presentations, "_reduce", counting)
    for n in (1000, -1000):
        seen.clear()
        assert (ab ** n).length == 2000
        assert sum(seen) <= 2002
    seen.clear()
    phi(am, braid)
    assert sum(seen) <= 2 * spliced


# --- kernels of maps onto finite groups ----------------------------------------

def test_the_pure_braid_amalgam_is_the_kernel_of_the_strand_permutation():
    # Q8 = <P, Q> in O* glued to Z/4 = <Y^3> in Dic24 along the centre of
    # Dic12; each vertex group is every element whose braid word in
    # RECOVERY moves no strand
    from lowerk.casebook import RECOVERY, _STRANDS

    b3, am = full_braid_amalgam(), amalgam_named("pb3-segment")
    assert is_isomorphic(am.A, build_group("quaternion:8"))
    assert is_isomorphic(am.B, build_group("cyclic:4"))
    assert is_isomorphic(am.C, build_group("cyclic:2"))
    assert (am.index(SIDE_A), am.index(SIDE_B)) == (4, 2)
    assert {lab: am.A.element_names[g] for lab, g in am.A.generator_labels.items()} == {
        "o1": "P", "o2": "Q"}
    assert {lab: am.B.element_names[g] for lab, g in am.B.generator_labels.items()} == {"t1": "Y^3"}
    assert {lab: am.C.element_names[g] for lab, g in am.C.generator_labels.items()} == {"e1": "w^3"}
    S3 = build_group("symmetric:3")
    by_name = {name: g for g, name in enumerate(S3.element_names)}

    def strand(word):
        g = S3.identity
        for sym, exp in word.entries:
            g = S3.table[g][S3.power(by_name[_STRANDS[sym]], exp)]
        return g

    for V, K in ((b3.A, am.A), (b3.B, am.B)):
        fixed = {name for name in V.element_names
                 if strand(parse_word(name.replace("*", " ")).substitute(RECOVERY)) == S3.identity}
        assert set(K.element_names) == fixed


def test_a_kernel_whose_edge_group_covers_the_target():
    # Q8 *_Q8 Q8 onto Z/2 by x -> g, y -> 1 on both sides: the kernel is
    # <y> on each side and along the edge
    Q8, Z2 = build_group("quaternion:8"), build_group("cyclic:2")
    am = degenerate_amalgam()
    onto = GroupHom(Q8, Z2, {"x": Z2.generator_labels["g"], "y": Z2.identity})
    K = kernel_amalgam(am, onto, onto)
    assert (K.A.order, K.B.order, K.C.order) == (4, 4, 4)
    assert (K.index(SIDE_A), K.index(SIDE_B)) == (1, 1)
    assert set(K.A.element_names) == {"1", "y", "x^2", "y*x^2"}
    # the greedy generators over the ascending elements: x^2, then y
    assert {lab: K.A.element_names[g] for lab, g in K.A.generator_labels.items()} == {
        "o1": "x^2", "o2": "y"}
    assert sorted(K.B.generator_labels) == ["t1", "t2"]
    assert sorted(K.C.generator_labels) == ["e1", "e2"]


def _q8_maps():
    Q8, Z2, Z4 = build_group("quaternion:8"), build_group("cyclic:2"), build_group("cyclic:4")
    g = Z2.generator_labels["g"]
    return {
        "x": GroupHom(Q8, Z2, {"x": g, "y": Z2.identity}),
        "y": GroupHom(Q8, Z2, {"x": Z2.identity, "y": g}),
        "trivial": GroupHom(Q8, Z2, {"x": Z2.identity, "y": Z2.identity}),
        "into Z/4": GroupHom(Q8, Z4, {"x": Z4.power(Z4.generator_labels["g"], 2),
                                      "y": Z4.identity}),
        "not a homomorphism": GroupHom(Q8, Z4, {"x": Z4.generator_labels["g"],
                                                "y": Z4.identity}),
    }


@pytest.mark.parametrize("a, b, refusal, match", [
    ("x", "y", NotHomomorphism, "disagree on the edge group"),
    ("x", "into Z/4", NotHomomorphism, "different targets"),
    ("not a homomorphism", "not a homomorphism", NotHomomorphism, "not a homomorphism"),
    ("trivial", "trivial", UsageError, "maps onto 1 of the 2 elements"),
])
def test_kernel_refuses_maps_that_do_not_give_a_segment(a, b, refusal, match):
    maps = _q8_maps()
    with pytest.raises(refusal, match=match):
        kernel_amalgam(degenerate_amalgam(), maps[a], maps[b])


def test_kernel_refuses_maps_of_other_groups():
    maps = _q8_maps()
    with pytest.raises(NotHomomorphism, match="vertex groups"):
        kernel_amalgam(pb3_amalgam(), maps["x"], maps["x"])


def test_kernel_refuses_a_strand_map_under_which_c_misses_s3(monkeypatch):
    # every generator to the identity: the map is a homomorphism, but the
    # edge group covers one of the six permutations
    from lowerk import casebook

    for sym in casebook._STRANDS:
        monkeypatch.setitem(casebook._STRANDS, sym, "e")
    with pytest.raises(UsageError, match="maps onto 1 of the 6 elements"):
        casebook.pure_braid_amalgam(full_braid_amalgam())
