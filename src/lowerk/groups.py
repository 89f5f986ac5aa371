"""Exact finite-group arithmetic on explicit multiplication tables.

Every group is a full Cayley table over element indices 0..order-1 with
index 0 the identity.  Constructors cover the cyclic, dihedral, dicyclic,
symmetric and binary polyhedral families; the binary octahedral group and
its index-2 binary tetrahedral subgroup are realized by coset enumeration
of their standard presentations (Wolf, Spaces of constant curvature,
p. 198).  Every table, these and quotients and subgroups alike, comes from
one constructor that closes generator rows and checks the group axioms.

One generator test serves every check of a map: `_respects` asks f(a s)
== act_s(f(a)) for every element a and generator s, and `_walk` defines f
along a Schreier tree by f(g s) = act_s(f(g)).  The axiom check (f the
table rows), `GroupHom`, the leaf of `is_isomorphic` and the graph actions
of the amalgams layer all go through the two.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import itemgetter

from .errors import (
    NotNormal,
    OrderLimitExceeded,
    PresentationCollapse,
    UnknownSpec,
    UnknownSymbol,
)
from .presentations import Presentation, Word, parse_word, todd_coxeter
from .records import Frozen, Record

ORDER_CAP = 10_000
ISO_ORDER_CAP = 200


class GroupInvariants(Frozen):
    """Per-group data derived once from the table.

    classes are the conjugacy classes sorted by minimal member, class_of
    maps an element to its class index, and orders[k] is the element
    order shared by the members of classes[k].  fused holds a
    FusedClasses per fusion spec, filled by the fusion layer on first use.
    """

    __slots__ = ("classes", "class_of", "orders", "fused")

    def __init__(self, classes: tuple[tuple[int, ...], ...], class_of: tuple[int, ...],
                 orders: tuple[int, ...]):
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "class_of", class_of)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "fused", {})


class FiniteGroup:
    """A finite group as an explicit multiplication table.

    table[a][b] is the product a*b; index 0 is the identity.  Values are
    immutable after construction and safe to share.
    """

    __slots__ = ("name", "order", "table", "inverses", "generator_labels", "element_names",
                 "_tree", "_invariants")
    identity = 0

    def __init__(self, name: str, order: int, table: tuple[tuple[int, ...], ...],
                 inverses: tuple[int, ...], generator_labels: dict[str, int],
                 element_names: tuple[str, ...]):
        self.name, self.order, self.table, self.inverses = name, order, table, inverses
        self.generator_labels, self.element_names = generator_labels, element_names
        self._tree: list[tuple[int, int, int]] | None = None
        self._invariants: GroupInvariants | None = None

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def power(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inverses[a], -n
        out = self.identity
        while n:
            if n & 1:
                out = self.table[out][a]
            a = self.table[a][a]
            n >>= 1
        return out

    def conjugate(self, g: int, h: int) -> int:
        """h g h^-1."""
        return self.table[self.table[h][g]][self.inverses[h]]

    def element_order(self, g: int) -> int:
        row = self.table[g]
        k, x = 1, g
        while x != self.identity:
            x = row[x]
            k += 1
        return k

    def evaluate(self, word: Word) -> int:
        """Evaluate a word over this group's generator labels."""
        acc = self.identity
        for sym, exp in word.entries:
            if sym not in self.generator_labels:
                raise UnknownSymbol(f"{sym!r} is not a generator label of {self.name}")
            acc = self.table[acc][self.power(self.generator_labels[sym], exp)]
        return acc

    def generators(self) -> list[int]:
        """The distinct elements named by generator labels, after checking
        that they generate the group."""
        self.label_tree()
        return sorted(set(self.generator_labels.values()))

    def label_tree(self) -> list[tuple[int, int, int]]:
        """spanning_tree over the generator labels in sorted order; its
        generator entries index sorted(generator_labels)."""
        if self._tree is None:
            labels = sorted(self.generator_labels)
            tree = spanning_tree(self, [self.generator_labels[lab] for lab in labels])
            if len(tree) != self.order:
                raise UnknownSymbol(f"generator labels of {self.name} do not generate it")
            self._tree = tree
        return self._tree

    def invariants(self) -> GroupInvariants:
        """Classes, class_of and class orders, computed on first use."""
        if self._invariants is None:
            self._invariants = _invariants(self)
        return self._invariants

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


class Subgroup(Frozen):
    __slots__ = ("parent", "elements")

    def __init__(self, parent: FiniteGroup, elements: tuple[int, ...]):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "elements", elements)

    @property
    def order(self) -> int:
        return len(self.elements)


class GroupHom(Record):
    """A homomorphism given by images of the source's labelled generators."""

    __slots__ = ("source", "target", "images", "_full")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images: dict[str, int]):
        self.source, self.target, self.images = source, target, images
        self._full: tuple[int, ...] | None = None

    def full_map(self) -> tuple[int, ...]:
        """The walk: f(g s) = f(g) f(s) along the source's label tree."""
        if self._full is None:
            self._full = tuple(_walk(self.source.label_tree(), self.target.identity,
                                     self._acts()))
        return self._full

    def _acts(self) -> list:
        return _right_muls(self.target, [self.images[lab]
                                         for lab in sorted(self.source.generator_labels)])

    def apply(self, g: int) -> int:
        return self.full_map()[g]

    def is_homomorphism(self) -> bool:
        """True iff the generator images extend to a homomorphism."""
        labels = self.source.generator_labels
        return _respects(self.source, self.full_map(),
                         [labels[lab] for lab in sorted(labels)], self._acts())

    def is_injective(self) -> bool:
        return len(set(self.full_map())) == self.source.order


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def check_group_axioms(G: FiniteGroup) -> None:
    """Identity, inverses and associativity by Light's test: (a s) b =
    a (s b) for every a, b and generator s.  The elements s passing it are
    closed under products, so once the labels generate, all of G passes."""
    n = G.order
    if len(G.table) != n or any(len(r) != n for r in G.table):
        raise PresentationCollapse(f"{G.name}: table shape mismatch")
    for a in range(n):
        if G.table[G.identity][a] != a or G.table[a][G.identity] != a:
            raise PresentationCollapse(f"{G.name}: identity fails at {a}")
        if G.table[a][G.inverses[a]] != G.identity or G.table[G.inverses[a]][a] != G.identity:
            raise PresentationCollapse(f"{G.name}: inverse fails at {a}")
    gens = G.generators()  # labels must generate
    # row(a s) is row(a) gathered by row(s), the generator test on the rows
    if n > 1 and not _respects(G, G.table, gens, [itemgetter(*G.table[s]) for s in gens]):
        raise PresentationCollapse(f"{G.name}: associativity fails")


def _invariants(G: FiniteGroup) -> GroupInvariants:
    """Classes as orbits under conjugation by the generators, O(n k)."""
    n = G.order
    conj = []
    for s in G.generators():
        times_inv_s = [row[G.inverses[s]] for row in G.table]
        conj.append([times_inv_s[x] for x in G.table[s]])   # x -> s x s^-1
    cls_of = [-1] * n
    classes, orders = [], []
    for g in range(n):
        if cls_of[g] >= 0:
            continue
        k = len(classes)
        cls_of[g] = k
        orbit = [g]
        for x in orbit:
            for c in conj:
                y = c[x]
                if cls_of[y] < 0:
                    cls_of[y] = k
                    orbit.append(y)
        classes.append(tuple(sorted(orbit)))
        orders.append(G.element_order(g))
    return GroupInvariants(tuple(classes), tuple(cls_of), tuple(orders))


def conjugacy_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Orbits under conjugation, sorted by minimal member."""
    return G.invariants().classes


def center(G: FiniteGroup) -> Subgroup:
    gens = G.generators()
    elems = tuple(g for g in range(G.order)
                  if all(G.table[g][s] == G.table[s][g] for s in gens))
    return Subgroup(G, elems)


def spanning_tree(G: FiniteGroup, gens) -> list[tuple[int, int, int]]:
    """Breadth-first spanning tree of the Cayley graph of <gens> under
    right multiplication, a Schreier tree (Holt-Eick-O'Brien, Handbook of
    Computational Group Theory, 4.1): (element, parent, k) in BFS order
    with element = parent * gens[k], starting at (identity, -1, -1)."""
    tree = [(G.identity, -1, -1)]
    seen = bytearray(G.order)
    seen[G.identity] = 1
    gens = list(gens)
    for g, _, _ in tree:
        row = G.table[g]
        for k, s in enumerate(gens):
            h = row[s]
            if not seen[h]:
                seen[h] = 1
                tree.append((h, g, k))
    return tree


def _walk(tree, start, acts) -> list:
    """f along a full Schreier tree: f(identity) = start and f(g s_k) =
    acts[k](f(g)), indexed by element."""
    f = [start] * len(tree)
    for g, parent, k in tree[1:]:
        f[g] = acts[k](f[parent])
    return f


def _respects(G: FiniteGroup, f, gens, acts) -> bool:
    """The generator test: f(a s) == act_s(f(a)) for every element a and
    generator s.  For a map f into a group with act_s = right
    multiplication by f(s) and f(identity) = identity, it gives f(a b) =
    f(a) f(b) by induction on a word for b, so one pass of it checks a
    homomorphism on generators only."""
    return all(f[row[s]] == act(x) for s, act in zip(gens, acts)
               for row, x in zip(G.table, f))


def _right_muls(H: FiniteGroup, elems) -> list:
    """x -> x t for each t in elems, each a lookup in a column of H."""
    return [tuple(row[t] for row in H.table).__getitem__ for t in elems]


def subgroup_generated(G: FiniteGroup, gens) -> Subgroup:
    return Subgroup(G, tuple(sorted(g for g, _, _ in spanning_tree(G, gens))))


def is_normal(N: Subgroup) -> bool:
    """Conjugation by each generator maps N into N; being injective on a
    finite set, it then maps N onto N."""
    G = N.parent
    members = set(N.elements)
    return all(G.conjugate(x, s) in members for s in G.generators() for x in N.elements)


def quotient(G: FiniteGroup, N: Subgroup) -> FiniteGroup:
    """G/N, with generator labels the cosets of G's; the projection is
    GroupHom(G, Q, Q.generator_labels)."""
    if N.parent is not G:
        raise NotNormal("subgroup does not live in the given group")
    if not is_normal(N):
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.name}")
    # walking g upwards, each new coset gN is numbered by its least member g
    coset_of = [-1] * G.order
    reps: list[int] = []
    for g in range(G.order):
        if coset_of[g] < 0:
            row = G.table[g]
            for x in N.elements:
                coset_of[row[x]] = len(reps)
            reps.append(g)
    labels = {lab: coset_of[g] for lab, g in G.generator_labels.items()}
    return _group(f"{G.name}/N{N.order}",
                  [tuple(coset_of[G.table[s][g]] for g in reps) for s in G.generators()],
                  [coset_of[G.inverses[g]] for g in reps], labels,
                  [f"[{G.element_names[g]}]" for g in reps])


def subgroup_as_group(S: Subgroup, name: str,
                      labels: dict[str, int] | None = None) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Realize a subgroup as a FiniteGroup; returns (group, parent indices).

    `labels` maps generator names to parent element indices; when omitted a
    greedy generating set is chosen and labelled by parent element names.
    """
    parent = S.parent
    elems = tuple(sorted(S.elements))
    index_of = {g: i for i, g in enumerate(elems)}
    n = len(elems)
    if labels is None:
        labels = {parent.element_names[g]: g for g in _greedy_generators(parent, elems)}
    local = {lab: index_of[g] for lab, g in labels.items()}
    if len(spanning_tree(parent, labels.values())) != n:
        raise UnknownSymbol(f"generator labels of {name} do not generate it")
    H = _group(name, [tuple(index_of[parent.table[s][g]] for g in elems)
                      for s in sorted(set(labels.values()))],
               [index_of[parent.inverses[a]] for a in elems], local,
               [parent.element_names[g] for g in elems])
    return H, elems


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

def _profile(G: FiniteGroup):
    """Sorted (class size, element order) pairs; they also fix the
    multiset of element orders."""
    inv = G.invariants()
    return tuple(sorted(zip(map(len, inv.classes), inv.orders)))


def _greedy_generators(G: FiniteGroup, elems) -> list[int]:
    """Each member of elems, in order, that the earlier picks do not
    generate, until they generate all of elems."""
    gens: list[int] = []
    closure = {G.identity}
    for g in elems:
        if len(closure) == len(elems):
            break
        if g not in closure:
            gens.append(g)
            closure = set(subgroup_generated(G, gens).elements)
    return gens


def is_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    """Backtracking over generator images, pruned by order/class data."""
    if G.order != H.order:
        return False
    if G.order > ISO_ORDER_CAP:
        raise OrderLimitExceeded(f"isomorphism search capped at order {ISO_ORDER_CAP}")
    if _profile(G) != _profile(H):
        return False
    gens = _greedy_generators(G, range(G.order))
    if not gens:
        return True
    g_inv, h_inv = G.invariants(), H.invariants()
    h_kind = [(len(h_inv.classes[k]), h_inv.orders[k]) for k in h_inv.class_of]
    candidates = []
    for g in gens:
        k = g_inv.class_of[g]
        kind = (len(g_inv.classes[k]), g_inv.orders[k])
        candidates.append([h for h in range(H.order) if h_kind[h] == kind])
    closure_sizes = [subgroup_generated(G, gens[:k + 1]).order for k in range(len(gens))]
    tree = spanning_tree(G, gens)

    def backtrack(k: int, imgs: list[int]) -> bool:
        if k == len(gens):
            # imgs generate all of H, so a homomorphism here is a bijection
            acts = _right_muls(H, imgs)
            return _respects(G, _walk(tree, H.identity, acts), gens, acts)
        for h in candidates[k]:
            imgs.append(h)
            if subgroup_generated(H, imgs).order == closure_sizes[k]:
                if backtrack(k + 1, imgs):
                    return True
            imgs.pop()
        return False

    return backtrack(0, [])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _close_rows(n: int, gen_rows: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Cayley table of the group generated by the given generator rows.

    row(a s) is row(a) read at row(s), one C-level gather per row; the
    identity row is 0..n-1, and a's row at index s names the element a s.
    Rows reached from the identity are shared-int tuples.
    """
    rows: list[tuple[int, ...] | None] = [None] * n
    rows[0] = tuple(range(n))
    if n > 1:
        steps = [(row_s[0], itemgetter(*row_s)) for row_s in gen_rows]
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                row_a = rows[a]
                for s, times_s in steps:
                    b = row_a[s]
                    if rows[b] is None:
                        rows[b] = times_s(row_a)
                        nxt.append(b)
            frontier = nxt
    if None in rows:
        raise PresentationCollapse("generator rows do not generate the group")
    return tuple(rows)  # type: ignore[arg-type]


def _group(name: str, gen_rows: list[tuple[int, ...]], inverses, labels: dict[str, int],
           names) -> FiniteGroup:
    """The one way a table becomes a group: close the generator rows, then
    check the axioms once."""
    n = len(inverses)
    G = FiniteGroup(name, n, _close_rows(n, gen_rows), tuple(inverses), labels, tuple(names))
    check_group_axioms(G)
    return G


def _power_name(letter: str, i: int) -> str:
    if i == 0:
        return "1"
    if i == 1:
        return letter
    return f"{letter}^{i}"


def _cyclic(n: int, name: str) -> FiniteGroup:
    return _group(name, [tuple((1 + j) % n for j in range(n))],
                  [(-i) % n for i in range(n)], {"g": 1 % n} if n > 1 else {},
                  [_power_name("g", i) for i in range(n)])


def _metacyclic(m: int, t: int, letters: tuple[str, str], name: str) -> FiniteGroup:
    """Order 2m, <x, y | x^m, y x y^-1 x, y^2 x^-t> with x^i at i and y x^i
    at m + i; t = 0 gives the dihedral group, t = m/2 the dicyclic one.

    The generator rows: x.x^i = x^(i+1), x.(y x^i) = y x^(i-1),
    y.x^i = y x^i and y.(y x^i) = x^(t+i).
    """
    ax, ay = letters
    x_row = tuple((i + 1) % m for i in range(m)) + tuple(m + (i - 1) % m for i in range(m))
    y_row = tuple(range(m, 2 * m)) + tuple((t + i) % m for i in range(m))
    inverses = [(-i) % m for i in range(m)] + [m + (i - t) % m for i in range(m)]
    names = [_power_name(ax, i) for i in range(m)] + [
        ay if i == 0 else f"{ay}*{_power_name(ax, i)}" for i in range(m)]
    return _group(name, [x_row, y_row], inverses, {ax: 1, ay: m} if m > 1 else {ay: m}, names)


def dicyclic_group(order: int, letters: tuple[str, str] = ("x", "y")) -> FiniteGroup:
    """Dicyclic group of the given order (a multiple of 4, at least 8)."""
    name = canonical_group_name(f"dicyclic:{order}")
    return _metacyclic(order // 2, order // 4, letters, name)


def _cycle_notation(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "e"


def _symmetric(n: int, name: str) -> FiniteGroup:
    elems = list(itertools.permutations(range(n)))
    index_of = {p: i for i, p in enumerate(elems)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(n))

    inverses = []
    for p in elems:
        q = [0] * n
        for i, x in enumerate(p):
            q[x] = i
        inverses.append(index_of[tuple(q)])
    labels = {}
    if n >= 2:
        t = tuple([1, 0] + list(range(2, n)))
        labels["t"] = index_of[t]
        c = tuple((i + 1) % n for i in range(n))
        labels["c"] = index_of[c]
    return _group(name, [tuple(index_of[compose(elems[g], q)] for q in elems)
                         for g in labels.values()],
                  inverses, labels, [_cycle_notation(p) for p in elems])


def group_from_coset_table(ct, name: str) -> FiniteGroup:
    """Convert a closed coset table over the trivial subgroup to a group;
    a table over a larger subgroup is refused."""
    n = ct.index
    words: list[tuple[tuple[str, int], ...] | None] = [None] * n
    words[0] = ()
    frontier = [0]
    letters = [(sym, 1) for sym in ct.generators] + [(sym, -1) for sym in ct.generators]
    while frontier:
        nxt = []
        for c in frontier:
            for sym, sgn in letters:
                d = ct.table[c][ct.column(sym, sgn)]
                if words[d] is None:
                    words[d] = words[c] + ((sym, sgn),)
                    nxt.append(d)
        frontier = nxt

    def apply(c: int, w) -> int:
        for sym, sgn in w:
            c = ct.table[c][ct.column(sym, sgn)]
        return c

    cols = [tuple(row[ct.column(sym, 1)] for row in ct.table) for sym in ct.generators]
    labels = {sym: col[0] for sym, col in zip(ct.generators, cols)}
    G = _group(name, [tuple(apply(s, w) for w in words) for s in labels.values()],
               [apply(0, [(sym, -sgn) for sym, sgn in reversed(w)]) for w in words],
               labels, ["1" if not w else str(Word.of(*w)).replace(" ", "*") for w in words])
    # over the trivial subgroup each generator acts on the cosets as right
    # multiplication by its label; over a larger one the rows can still
    # close into a group, but not into this one
    if not _respects(G, range(n), list(labels.values()), [col.__getitem__ for col in cols]):
        raise PresentationCollapse(
            f"{name}: the coset action fails to be right multiplication; the subgroup is not trivial")
    return G


_BINARY_OCTAHEDRAL_PRESENTATION = Presentation(
    ("X", "P", "Q", "R"),
    (
        parse_word("X^3"),
        parse_word("P^2 Q^-2"),
        parse_word("Q^2 R^-2"),
        parse_word("P Q P^-1 Q"),
        parse_word("X P X^-1 Q^-1"),
        parse_word("X Q X^-1 Q^-1 P^-1"),
        parse_word("R X R^-1 X"),
        parse_word("R P R^-1 P^-1 Q^-1"),
        parse_word("R Q R^-1 Q"),
    ),
)


def _binary_octahedral() -> FiniteGroup:
    ct = todd_coxeter(_BINARY_OCTAHEDRAL_PRESENTATION)
    return group_from_coset_table(ct, "binary-octahedral")


def _binary_tetrahedral() -> FiniteGroup:
    big = build_group("binary-octahedral")
    labels = {s: big.generator_labels[s] for s in ("P", "Q", "X")}
    sub = subgroup_generated(big, labels.values())
    return subgroup_as_group(sub, "binary-tetrahedral", labels)[0]


# The grammar.  A family maps to (least n, order of member n or None when n
# names no member, constructor taking n and the canonical name); a presented
# group maps to (its order, its builder, which takes no argument).
_FAMILIES = {
    "cyclic": (1, lambda n: n, _cyclic),
    "dihedral": (1, lambda n: 2 * n, lambda n, name: _metacyclic(n, 0, ("r", "s"), name)),
    "dicyclic": (8, lambda n: None if n % 4 else n,
                 lambda n, name: _metacyclic(n // 2, n // 4, ("x", "y"), name)),
    "quaternion": (8, lambda n: 8 if n == 8 else None,
                   lambda n, name: _metacyclic(n // 2, n // 4, ("x", "y"), name)),
    "symmetric": (1, math.factorial, _symmetric),
}
_PRESENTED = {
    "binary-octahedral": (48, _binary_octahedral),
    "binary-tetrahedral": (24, _binary_tetrahedral),
}
_ALIASES = {"dicyclic:8": "quaternion:8"}


def _parse(spec: str):
    """The canonical name of spec, the order of its group and a builder
    taking no argument."""
    if not isinstance(spec, str):
        raise UnknownSpec(f"group name {spec!r} is not a string")
    text = spec.strip()
    if text in _PRESENTED:
        return (text, *_PRESENTED[text])
    family, _, arg = text.partition(":")
    # ASCII only: str.isdigit() also holds for superscripts, which int()
    # refuses, and for other scripts' digits, which int() reads
    if family not in _FAMILIES or not (arg.isascii() and arg.isdigit()):
        raise UnknownSpec(f"cannot parse group name {spec!r}")
    least, order, build = _FAMILIES[family]
    digits = arg.lstrip("0") or "0"
    # every member's order is at least n, so n is held to the cap before any
    # order is computed, and by its length before int() reads a long one
    n = int(digits) if len(digits) <= len(str(ORDER_CAP)) else ORDER_CAP + 1
    size = order(n) if n <= ORDER_CAP else n
    if n < least or size is None:
        raise UnknownSpec(f"no group named {spec!r}")
    if size > ORDER_CAP:
        raise OrderLimitExceeded(f"group {spec!r} exceeds the order cap {ORDER_CAP}")
    name = _ALIASES.get(f"{family}:{n}", f"{family}:{n}")
    return name, size, lambda: build(n, name)


def canonical_group_name(spec: str) -> str:
    """Normalize a group-name string; raises UnknownSpec/OrderLimitExceeded."""
    return _parse(spec)[0]


def group_order(spec: str) -> int:
    """The order of the named group, known from its name before any build."""
    return _parse(spec)[1]


def build_group(spec: str) -> FiniteGroup:
    """Build a group from its name; each name gives one cached group.

    Grammar: cyclic:n | dicyclic:4n | quaternion:8 | binary-octahedral |
    binary-tetrahedral | symmetric:n | dihedral:n, with n in ASCII digits
    and resulting order <= 10000.
    """
    return _build(canonical_group_name(spec))


@functools.lru_cache(maxsize=None)
def _build(name: str) -> FiniteGroup:
    """The group of a canonical name, held to the order the name states, so
    a presentation that collapses or a subgroup of the wrong index is
    refused whichever builder made it."""
    _, order, build = _parse(name)
    G = build()
    if G.order != order:
        raise PresentationCollapse(f"{name}: built a group of order {G.order}, expected {order}")
    return G
