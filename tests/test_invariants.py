"""Cached group invariants and generator-row tables against the direct
routines they replace.

The oracles below are the plain constructions: Cayley tables from the
closed-form products of each family, classes by conjugating every element
by every element, element orders by repeated multiplication, and Galois
fusion by union-find over every class.
"""

import itertools
import math

from hypothesis import given, settings, strategies as st

from lowerk.fusion import ModP, Padic, Rational, fused_classes, padic_unit_subgroup, prime_factors
from lowerk.groups import (
    build_group,
    center,
    class_of,
    conjugacy_classes,
    quotient,
    subgroup_as_group,
    subgroup_generated,
)

# --- closed-form tables ------------------------------------------------------


def cyclic_table(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def dihedral_table(n):
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

    return tuple(tuple(mul(a, b) for b in range(2 * n)) for a in range(2 * n))


def dicyclic_table(order):
    n = order // 4
    m = 2 * n

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

    return tuple(tuple(mul(a, b) for b in range(order)) for a in range(order))


def symmetric_table(n):
    elems = list(itertools.permutations(range(n)))
    index_of = {p: i for i, p in enumerate(elems)}
    return tuple(tuple(index_of[tuple(p[q[i]] for i in range(n))] for q in elems)
                 for p in elems)


CLOSED_FORM = {"cyclic": cyclic_table, "dihedral": dihedral_table,
               "dicyclic": dicyclic_table, "symmetric": symmetric_table}

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


def oracle_units(d, spec):
    if isinstance(spec, Rational):
        return {k for k in range(1, d + 1) if math.gcd(k, d) == 1}
    if isinstance(spec, Padic):
        return padic_unit_subgroup(spec.p, d)
    frob = {1 % d}
    f = spec.p % d
    while f not in frob:
        frob.add(f)
        f = (f * spec.p) % d
    return frob


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


def specs_for(G):
    out = [Rational()]
    for p in sorted(set(prime_factors(G.order)) | {2, 3}):
        out += [Padic(p), ModP(p)]
    return out


def assert_invariants_match(G):
    classes = oracle_classes(G)
    assert conjugacy_classes(G) == classes
    assert class_of(G) == oracle_class_of(G, classes)
    inv = G.invariants()
    for cls, pw in zip(classes, inv.powers):
        g = cls[0]
        assert len(pw) == oracle_order(G, g)
        assert list(pw) == [G.power(g, e) for e in range(len(pw))]
    for spec in specs_for(G):
        assert fused_classes(G, spec).blocks == oracle_fused_blocks(G, spec), spec
    # a second call hands back the cached objects
    assert G.invariants() is inv
    assert conjugacy_classes(G) is inv.classes and class_of(G) is inv.class_of
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
                               if all(G.mul(g, h) == G.mul(h, g) for h in range(G.order)))
    assert_invariants_match(quotient(G, Z))


@settings(max_examples=20, deadline=None)
@given(group_names.filter(lambda name: build_group(name).order <= 128), st.data())
def test_subgroups_as_groups_match_direct_routines(name, data):
    G = build_group(name)
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    H, elems = subgroup_as_group(subgroup_generated(G, gens), "sub")
    index_of = {g: i for i, g in enumerate(elems)}
    assert H.table == tuple(tuple(index_of[G.mul(a, b)] for b in elems) for a in elems)
    assert_invariants_match(H)


def test_coset_enumerated_groups_match_direct_routines():
    for name in ("binary-octahedral", "binary-tetrahedral"):
        assert_invariants_match(build_group(name))
