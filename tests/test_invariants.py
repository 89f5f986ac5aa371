"""Cached group invariants and generator-row tables against the direct
routines they replace.

The oracles below are the plain constructions: Cayley tables from the
closed-form products of each family (for the dihedral and dicyclic groups,
the whole constructors from before their merge into one), classes by
conjugating every element
by every element, element orders by repeated multiplication, Galois
fusion by union-find over every class, quotient tables filled entry by
entry from sorted and renumbered cosets, homomorphisms walked along one
word per element, and subgroup generators picked by a greedy loop.
"""

import itertools
import math

from hypothesis import given, settings, strategies as st

from lowerk.abelian import prime_factors
from lowerk.fusion import ModP, Padic, Rational, fused_classes
from lowerk.ktheory import bundled_ksheets
from lowerk.groups import (
    GroupHom,
    _greedy_generators,
    build_group,
    center,
    conjugacy_classes,
    dicyclic_group,
    quotient,
    subgroup_as_group,
    subgroup_generated,
)

# --- closed-form tables ------------------------------------------------------


def cyclic_table(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def power_name(letter, i):
    return "1" if i == 0 else letter if i == 1 else f"{letter}^{i}"


def earlier_dihedral(n):
    """The dihedral constructor from before the two-generator merge, as
    (name, table, inverses, labels, names); order 2n, rotations r^i at
    0..n-1, reflections s r^i at n..2n-1."""
    size = 2 * n

    def mul(a, b):
        fa, ia = divmod(a, n)
        fb, ib = divmod(b, n)
        if fa == 0 and fb == 0:
            return (ia + ib) % n
        if fa == 0:
            return n + (ib - ia) % n
        if fb == 0:
            return n + (ia + ib) % n
        return (ib - ia) % n

    table = tuple(tuple(mul(a, b) for b in range(size)) for a in range(size))
    inverses = []
    names = []
    for a in range(size):
        f, i = divmod(a, n)
        if f == 0:
            inverses.append((-i) % n)
            names.append(power_name("r", i))
        else:
            inverses.append(a)  # reflections are involutions
            names.append("s" if i == 0 else f"s*{power_name('r', i)}")
    labels = {"s": n}
    if n > 1:
        labels["r"] = 1
    return f"dihedral:{n}", table, tuple(inverses), labels, tuple(names)


def earlier_dicyclic(order, letters=("x", "y")):
    """The dicyclic constructor from before the merge: order 4n with x of
    order 2n, y^2 = x^n, y x y^-1 = x^-1."""
    n = order // 4
    m = 2 * n
    ax, ay = letters

    def mul(a, b):
        fa, ia = divmod(a, m)
        fb, ib = divmod(b, m)
        if fa == 0 and fb == 0:
            return (ia + ib) % m
        if fa == 0:
            return m + (ib - ia) % m
        if fb == 0:
            return m + (ia + ib) % m
        return (n - ia + ib) % m

    size = 4 * n
    table = tuple(tuple(mul(a, b) for b in range(size)) for a in range(size))
    inverses = []
    for a in range(size):
        f, i = divmod(a, m)
        inverses.append((-i) % m if f == 0 else m + (i + n) % m)
    labels = {ax: 1, ay: m}
    names = []
    for a in range(size):
        f, i = divmod(a, m)
        if f == 0:
            names.append(power_name(ax, i))
        else:
            names.append(ay if i == 0 else f"{ay}*{power_name(ax, i)}")
    name = "quaternion:8" if order == 8 else f"dicyclic:{order}"
    return name, table, tuple(inverses), labels, tuple(names)


def symmetric_table(n):
    elems = list(itertools.permutations(range(n)))
    index_of = {p: i for i, p in enumerate(elems)}
    return tuple(tuple(index_of[tuple(p[q[i]] for i in range(n))] for q in elems)
                 for p in elems)


CLOSED_FORM = {"cyclic": cyclic_table, "dihedral": lambda n: earlier_dihedral(n)[1],
               "dicyclic": lambda n: earlier_dicyclic(n)[1], "symmetric": symmetric_table}



def group_parts(G):
    return G.name, G.table, G.inverses, G.generator_labels, G.element_names


def test_two_generator_families_match_the_earlier_constructors():
    for n in range(1, 65):
        assert group_parts(build_group(f"dihedral:{n}")) == earlier_dihedral(n), n
    for order in range(8, 257, 4):
        assert group_parts(build_group(f"dicyclic:{order}")) == earlier_dicyclic(order), order
    for order, letters in ((12, ("w", "z")), (24, ("Y", "Z"))):
        assert group_parts(dicyclic_group(order, letters)) == earlier_dicyclic(order, letters)

# --- classes, orders and fusion by direct computation -------------------------


def oracle_classes(G):
    seen = [False] * G.order
    classes = []
    for g in range(G.order):
        if seen[g]:
            continue
        orbit = {G.conjugate(g, h) for h in range(G.order)}
        for x in orbit:
            seen[x] = True
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


def oracle_class_of(G, classes):
    out = [0] * G.order
    for k, cls in enumerate(classes):
        for g in cls:
            out[g] = k
    return tuple(out)


def oracle_order(G, g):
    k, x = 1, g
    while x != G.identity:
        x = G.table[x][g]
        k += 1
    return k


def oracle_frobenius(p, m):
    frob = {1 % m}
    f = p % m
    while f not in frob:
        frob.add(f)
        f = (f * p) % m
    return frob


def oracle_units(d, spec):
    if isinstance(spec, Rational):
        return {k for k in range(1, d + 1) if math.gcd(k, d) == 1}
    if not isinstance(spec, Padic):
        return oracle_frobenius(spec.p, d)
    # d = pa * dd with dd prime to p: every unit u mod pa paired by CRT with
    # every power v of p mod dd
    pa, dd = 1, d
    while dd % spec.p == 0:
        pa, dd = pa * spec.p, dd // spec.p
    return {(u + pa * ((v - u) * pow(pa, -1, dd) % dd)) % d
            for u in range(pa) if math.gcd(u, pa) == 1 for v in oracle_frobenius(spec.p, dd)}


def oracle_fused_blocks(G, spec):
    classes = oracle_classes(G)
    cls_of = oracle_class_of(G, classes)
    keep = list(range(len(classes)))
    if isinstance(spec, ModP):
        keep = [k for k in keep if oracle_order(G, classes[k][0]) % spec.p]
    parent = {k: k for k in keep}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for k in keep:
        g = classes[k][0]
        for e in oracle_units(oracle_order(G, g), spec):
            ra, rb = find(k), find(cls_of[G.power(g, e)])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    buckets = {}
    for k in keep:
        buckets.setdefault(find(k), []).append(k)
    return tuple(tuple(classes[k] for k in sorted(members))
                 for _, members in sorted(buckets.items()))


# --- quotients, homomorphisms and subgroup labels, built directly ------------


def oracle_quotient(G, N):
    """(table, inverses, labels, names, coset_of) with cosets numbered by
    sorting them on their least member."""
    cosets = sorted({tuple(sorted(G.table[g][x] for x in N.elements)) for g in range(G.order)})
    coset_of = [0] * G.order
    for i, coset in enumerate(cosets):
        for x in coset:
            coset_of[x] = i
    reps = [c[0] for c in cosets]
    n = len(cosets)
    table = tuple(tuple(coset_of[G.table[reps[a]][reps[b]]] for b in range(n)) for a in range(n))
    inverses = tuple(coset_of[G.inverses[r]] for r in reps)
    labels = {lab: coset_of[g] for lab, g in G.generator_labels.items()}
    names = tuple(f"[{G.element_names[r]}]" for r in reps)
    return table, inverses, labels, names, tuple(coset_of)


def oracle_full_map(hom):
    """Each source element read as the first word over the sorted labels
    that a breadth-first search reaches it by, then evaluated in the target."""
    G = hom.source
    words = {G.identity: ()}
    frontier = [G.identity]
    labels = sorted(G.generator_labels.items())
    while frontier:
        nxt = []
        for g in frontier:
            for lab, elem in labels:
                h = G.table[g][elem]
                if h not in words:
                    words[h] = words[g] + (lab,)
                    nxt.append(h)
        frontier = nxt
    out = []
    for g in range(G.order):
        acc = hom.target.identity
        for lab in words[g]:
            acc = hom.target.table[acc][hom.images[lab]]
        out.append(acc)
    return tuple(out)


def oracle_subgroup_labels(S):
    parent, elems = S.parent, tuple(sorted(S.elements))
    chosen, closure = [], {parent.identity}
    for g in elems:
        if g not in closure:
            chosen.append(g)
            closure = set(subgroup_generated(parent, chosen).elements)
        if len(closure) == len(elems):
            break
    return {parent.element_names[g]: elems.index(g) for g in chosen}


def greedy_labels(S):
    """The labels `subgroup_as_group` once chose when given none: the
    greedy generators of S, each named by its parent element name."""
    G = S.parent
    return {G.element_names[g]: g for g in _greedy_generators(G, sorted(S.elements))}


def assert_quotient_matches(G, N):
    Q = quotient(G, N)
    proj = GroupHom(G, Q, Q.generator_labels)
    table, inverses, labels, names, coset_of = oracle_quotient(G, N)
    assert (Q.table, Q.inverses, Q.generator_labels, Q.element_names) == (
        table, inverses, labels, names)
    assert proj.full_map() == coset_of == oracle_full_map(proj)
    return Q


def specs_for(G):
    out = [Rational()]
    for p in sorted(set(prime_factors(G.order)) | {2, 3}):
        out += [Padic(p), ModP(p)]
    return out


def assert_invariants_match(G):
    classes = oracle_classes(G)
    assert conjugacy_classes(G) == classes
    inv = G.invariants()
    assert inv.class_of == oracle_class_of(G, classes)
    assert inv.orders == tuple(oracle_order(G, cls[0]) for cls in classes)
    assert all(oracle_order(G, g) == d for cls, d in zip(classes, inv.orders) for g in cls)
    for spec in specs_for(G):
        assert fused_classes(G, spec).blocks == oracle_fused_blocks(G, spec), spec
    # a second call hands back the cached objects
    assert G.invariants() is inv
    assert conjugacy_classes(G) is inv.classes
    assert fused_classes(G, Rational()) is fused_classes(G, Rational())


# --- strategies -------------------------------------------------------------

group_names = st.one_of(
    st.integers(1, 256).map(lambda n: f"cyclic:{n}"),
    st.integers(1, 128).map(lambda n: f"dihedral:{n}"),
    st.integers(2, 64).map(lambda n: f"dicyclic:{4 * n}"),
    st.integers(1, 5).map(lambda n: f"symmetric:{n}"),
)


@settings(max_examples=30, deadline=None)
@given(group_names)
def test_family_tables_and_invariants_match_direct_routines(name):
    family, _, arg = name.partition(":")
    G = build_group(name)
    assert G.table == CLOSED_FORM[family](int(arg))
    assert_invariants_match(G)


@settings(max_examples=20, deadline=None)
@given(group_names.filter(lambda name: build_group(name).order <= 128))
def test_quotients_by_the_center_match_direct_routines(name):
    G = build_group(name)
    Z = center(G)
    assert Z.elements == tuple(g for g in range(G.order)
                               if all(G.table[g][h] == G.table[h][g] for h in range(G.order)))
    Q = assert_quotient_matches(G, Z)
    assert_invariants_match(Q)
    assert quotient(G, Z).table == Q.table


@settings(max_examples=30, deadline=None)
@given(group_names.filter(lambda name: build_group(name).order <= 128), st.data())
def test_quotients_by_normal_closures_match_direct_routines(name, data):
    G = build_group(name)
    g = data.draw(st.integers(0, G.order - 1))
    N = subgroup_generated(G, {G.conjugate(g, h) for h in range(G.order)})
    assert_quotient_matches(G, N)


@settings(max_examples=30, deadline=None)
@given(group_names.filter(lambda name: build_group(name).order <= 128),
       group_names.filter(lambda name: build_group(name).order <= 128), st.data())
def test_full_map_matches_word_walk(source, target, data):
    """Any label images, homomorphic or not, give the oracle's map."""
    G, H = build_group(source), build_group(target)
    images = {lab: data.draw(st.integers(0, H.order - 1)) for lab in G.generator_labels}
    hom = GroupHom(G, H, images)
    assert hom.full_map() == oracle_full_map(hom)


@settings(max_examples=20, deadline=None)
@given(group_names.filter(lambda name: build_group(name).order <= 128), st.data())
def test_subgroups_as_groups_match_direct_routines(name, data):
    G = build_group(name)
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    S = subgroup_generated(G, gens)
    H, elems = subgroup_as_group(S, "sub", greedy_labels(S))
    index_of = {g: i for i, g in enumerate(elems)}
    assert H.table == tuple(tuple(index_of[G.table[a][b]] for b in elems) for a in elems)
    assert H.generator_labels == oracle_subgroup_labels(S)
    assert_invariants_match(H)


def test_coset_enumerated_groups_match_direct_routines():
    for name in ("binary-octahedral", "binary-tetrahedral"):
        assert_invariants_match(build_group(name))


# --- r_Q by Artin's induction theorem -----------------------------------------


def oracle_cyclic_subgroup_classes(G):
    """The number of conjugacy classes of cyclic subgroups, read off the
    table alone: each cyclic subgroup as the set of powers of one
    generator, and its class as the subgroups its conjugates generate."""
    def powers(g):
        out, x = {0}, g
        while x != 0:
            out.add(x)
            x = G.table[x][g]
        return frozenset(out)

    generator_of = {}
    for g in range(G.order):
        generator_of.setdefault(powers(g), g)
    inverse = [row.index(0) for row in G.table]
    seen, count = set(), 0
    for H, g in generator_of.items():
        if H not in seen:
            count += 1
            seen |= {powers(G.table[G.table[x][g]][inverse[x]]) for x in range(G.order)}
    return count


@settings(max_examples=30, deadline=None)
@given(group_names)
def test_rational_fusion_counts_the_classes_of_cyclic_subgroups(name):
    # r_Q, the number of irreducible rational representations, is the
    # number of conjugacy classes of cyclic subgroups (Artin's induction
    # theorem; Serre, Linear Representations of Finite Groups, 13.1)
    G = build_group(name)
    assert fused_classes(G, Rational()).count == oracle_cyclic_subgroup_classes(G)


def test_rational_fusion_counts_the_classes_of_cyclic_subgroups_of_the_sheet_groups():
    for name in [*bundled_ksheets(), "binary-tetrahedral"]:
        G = build_group(name)
        assert fused_classes(G, Rational()).count == oracle_cyclic_subgroup_classes(G), name
