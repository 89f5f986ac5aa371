"""Amalgamated products of finite groups with unique normal forms.

An element of A *_C B is stored as a head in the edge group C followed by
an alternating sequence of non-identity right-coset representatives from
the two vertex groups.  Left-multiplying a vertex element onto a normal
form takes at most two coset factorizations and changes only its first
syllable, so every operation builds its result once from a reversed list
of syllables, linear in the syllables it touches: a product reduces only
at the junction, a power squares and multiplies, and an element order
comes from one two-pointer pass of cyclic reduction.  Uniqueness of the
form makes equality a plain comparison (Serre, Trees).  An amalgam is
read off its two embeddings of the edge group, and a word is read
through one table of the vertex groups' labels.

The first factorization of a step depends only on the vertex element x
and the head h, so each side holds an action table of x * i(h) -> (c, t)
for every x and h: |V| * |C| references to the factor pairs, no more
than the vertex group's own Cayley table.  With the cyclic powers of
each label, also tabled, a letter of a word costs one read of each.
"""

from __future__ import annotations

import math

from .errors import (
    EdgeInversion,
    NotAnAction,
    NotHomomorphism,
    NotInjective,
    UnknownSymbol,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _greedy_generators,
    _respects,
    _walk,
    subgroup_as_group,
)
from .presentations import Word
from .records import Frozen

INFINITE = math.inf

SIDE_A = 0
SIDE_B = 1

VERTICES = 0
EDGES = 1


class AmalgamElement(Frozen):
    """Normal form: head in C, then alternating transversal syllables.

    Syllables are (side, vertex element index) pairs; no syllable is an
    identity representative and consecutive syllables change sides.
    """

    __slots__ = ("head", "syllables")

    def __init__(self, head: int, syllables: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "syllables", syllables)

    def __eq__(self, other):
        if type(other) is not AmalgamElement:
            return NotImplemented
        return self.head == other.head and self.syllables == other.syllables


class Amalgam:
    """A *_C B, fixed by injective embeddings iA: C -> A and iB: C -> B
    (Serre, Trees, I.1).  A label of both A and B is read only when both
    readings are one element of the amalgam, and is refused otherwise."""

    def __init__(self, iA: GroupHom, iB: GroupHom):
        if iA.source is not iB.source:
            raise NotHomomorphism("the two embeddings have different sources")
        for hom in (iA, iB):
            if not hom.is_homomorphism():
                raise NotHomomorphism(f"embedding into {hom.target.name} is not a homomorphism")
            if not hom.is_injective():
                raise NotInjective(f"embedding into {hom.target.name} is not injective")
        self.A, self.B, self.C = iA.target, iB.target, iA.source
        self.iA, self.iB = iA, iB
        self._vertex = (self.A, self.B)
        self._embed = (iA.full_map(), iB.full_map())
        self._transversal, self._factor = zip(*map(self._cosets, (SIDE_A, SIDE_B)))
        self._act = tuple(tuple(tuple([factor[row[i]] for i in image]) for row in V.table)
                          for V, image, factor in zip(self._vertex, self._embed, self._factor))
        self._symbols = {sym: (SIDE_A, g) for sym, g in self.A.generator_labels.items()}
        for sym, g in self.B.generator_labels.items():
            first = self._symbols.setdefault(sym, (SIDE_B, g))
            if self.embed_vertex(*first) != self.embed_vertex(SIDE_B, g):
                del self._symbols[sym]
        self._powers = {sym: (side, _cyclic_powers(self._vertex[side], g))
                        for sym, (side, g) in self._symbols.items()}

    def _cosets(self, side: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """Right-coset representatives of the embedded edge group, and for
        each vertex element a the unique (c, t) with a = i(c) * t.  In one
        ascending pass the first element not yet factored is the least of
        its coset, so the identity (index 0) represents the edge coset."""
        V = self._vertex[side]
        image = self._embed[side]
        reps: list[int] = []
        factor: list[tuple[int, int] | None] = [None] * V.order
        for t in range(V.order):
            if factor[t] is None:
                reps.append(t)
                for c in range(self.C.order):
                    factor[V.table[image[c]][t]] = (c, t)
        return tuple(reps), tuple(factor)  # type: ignore[arg-type]

    # -- basic data ---------------------------------------------------------

    def index(self, side: int) -> int:
        return len(self._transversal[side])

    @property
    def identity_element(self) -> AmalgamElement:
        return AmalgamElement(self.C.identity)

    def transversal(self, side: int) -> tuple[int, ...]:
        return self._transversal[side]

    # -- arithmetic on normal forms ------------------------------------------

    def _left_mul(self, side: int, x: int, head: int,
                  rev: list[tuple[int, int]]) -> int:
        """Left-multiply x (in vertex group `side`) onto the normal form
        (head, reversed(rev)).  Updates `rev`, whose last entry is the
        leftmost syllable, in place and returns the new head: one read of
        the action table for x * i(head), and a coset factorization where
        x's side meets the first syllable."""
        c, t = self._act[side][x][head]
        if t == FiniteGroup.identity:
            return c
        if rev and rev[-1][0] == side:
            c2, t = self._factor[side][self._vertex[side].table[t][rev[-1][1]]]
            c = self.C.table[c][c2]
            if t == FiniteGroup.identity:
                rev.pop()
            else:
                rev[-1] = (side, t)
        else:
            rev.append((side, t))
        return c

    def mul(self, e1: AmalgamElement, e2: AmalgamElement) -> AmalgamElement:
        """e1's syllables cancel against e2's only at the junction; once a
        representative survives, each further syllable of e1 costs one
        factorization carrying the edge element leftwards."""
        rev = list(reversed(e2.syllables))
        head = e2.head
        for side, x in reversed(e1.syllables):
            head = self._left_mul(side, x, head, rev)
        return AmalgamElement(self.C.table[e1.head][head], tuple(reversed(rev)))

    def inv(self, e: AmalgamElement) -> AmalgamElement:
        rev: list[tuple[int, int]] = []
        head = self.C.inverses[e.head]
        for side, x in e.syllables:
            head = self._left_mul(side, self._vertex[side].inverses[x], head, rev)
        return AmalgamElement(head, tuple(reversed(rev)))

    def power(self, e: AmalgamElement, n: int) -> AmalgamElement:
        """e^n by square-and-multiply; n is an int, not a bool."""
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"exponent {n!r} is not an int")
        if n < 0:
            e, n = self.inv(e), -n
        out = self.identity_element
        while n:
            if n & 1:
                out = self.mul(out, e)
            n >>= 1
            if n:
                e = self.mul(e, e)
        return out

    def embed_vertex(self, side: int, x: int) -> AmalgamElement:
        rev: list[tuple[int, int]] = []
        head = self._left_mul(side, x, self.C.identity, rev)
        return AmalgamElement(head, tuple(rev))

    def evaluate(self, word: Word) -> AmalgamElement:
        """Normal form of a word over the vertex groups' generator labels:
        per letter, one read of the label's power table and one junction
        step, itself one action-table read unless it meets a syllable of
        its own side."""
        rev: list[tuple[int, int]] = []
        head = self.C.identity
        for sym, exp in reversed(word.entries):
            try:
                side, powers = self._powers[sym]
            except KeyError:
                raise UnknownSymbol(
                    f"{sym!r} does not label exactly one amalgam element") from None
            head = self._left_mul(side, powers[exp % len(powers)], head, rev)
        return AmalgamElement(head, tuple(reversed(rev)))

    def describe(self, e: AmalgamElement) -> str:
        """Human-readable normal form: head name, then syllable names."""
        parts = []
        if e.head != self.C.identity or not e.syllables:
            parts.append(self.C.element_names[e.head])
        parts.extend(self._vertex[side].element_names[t] for side, t in e.syllables)
        return " * ".join(parts)

    # -- element orders -------------------------------------------------------

    def order_of(self, e: AmalgamElement) -> int | float:
        """Element order; INFINITE when the cyclically reduced syllable
        length is at least 2, otherwise the order inside a vertex group.

        The head folds into the first syllable, giving a reduced word of
        vertex letters x_lo .. x_hi.  While the two ends lie on one side,
        conjugating by the last letter merges it into the first; the word
        stays reduced unless the merged letter lies in the edge group,
        which then folds into the next letter (Serre, Trees, 1.2)."""
        syll = e.syllables
        if not syll:
            return self.C.element_order(e.head)
        side, t = syll[0]
        first = self._vertex[side].table[self._embed[side][e.head]][t]
        lo, hi = 0, len(syll) - 1
        while hi - lo >= 2 and syll[lo][0] == syll[hi][0]:
            V = self._vertex[side]
            c, t = self._factor[side][V.table[syll[hi][1]][first]]
            if t != V.identity:
                return INFINITE
            lo, hi = lo + 1, hi - 1
            side, x = syll[lo]
            first = self._vertex[side].table[self._embed[side][c]][x]
        if hi > lo:
            return INFINITE
        return self._vertex[side].element_order(first)


def _cyclic_powers(G: FiniteGroup, g: int) -> tuple[int, ...]:
    """g^0, g^1, ..., g^(o-1) for o the order of g: one walk along g's row."""
    powers, x = [G.identity], g
    while x != G.identity:
        powers.append(x)
        x = G.table[g][x]
    return tuple(powers)


# ---------------------------------------------------------------------------
# finite group actions on finite graphs
# ---------------------------------------------------------------------------

class GraphWithAction:
    """A finite group acting on an oriented graph without edge inversions.

    `generator_action` maps the generator labels of the group, and no other
    key, to pairs (vertex permutation, edge permutation).  Each generator
    is checked to be a permutation preserving incidence and reversal;
    products of such permutations are again such, so the action of every
    element, walked along the group's label tree as act(g s) = act(g) o
    act(s) and checked by the generator test, is one too.
    """

    def __init__(self, group: FiniteGroup, num_vertices: int,
                 edge_endpoints: tuple[tuple[int, int], ...],
                 edge_reverse: tuple[int, ...],
                 generator_action: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]):
        self.group = group
        self.num_vertices = num_vertices
        self.edge_endpoints = edge_endpoints
        self.edge_reverse = edge_reverse
        ne = len(edge_endpoints)
        if len(edge_reverse) != ne:
            raise NotAnAction("reversal table length mismatch")
        for e in range(ne):
            r = edge_reverse[e]
            if r == e or edge_reverse[r] != e:
                raise NotAnAction("edge reversal must be a fixed-point-free involution")
            o, t = edge_endpoints[e]
            if edge_endpoints[r] != (t, o):
                raise NotAnAction("reversal must swap endpoints")
        if generator_action.keys() != group.generator_labels.keys():
            lab = min(generator_action.keys() ^ group.generator_labels.keys(), key=repr)
            raise NotAnAction(f"{lab!r} is not a generator label of {group.name}" if lab in
                              generator_action else f"no action given for generator {lab!r}")
        for lab in group.generator_labels:
            self._check_generator(*generator_action[lab])
        labels = sorted(group.generator_labels)
        acts = [_then(*generator_action[lab]) for lab in labels]
        self._perm = _walk(group.label_tree, (tuple(range(num_vertices)), tuple(range(ne))), acts)
        if not _respects(group, self._perm, [group.generator_labels[lab] for lab in labels], acts):
            raise NotAnAction("generator permutations are inconsistent")
        for g, (_, ep) in enumerate(self._perm):
            for e in range(ne):
                if ep[e] == edge_reverse[e]:
                    raise EdgeInversion(f"element {g} maps edge {e} to its own reversal")

    def _check_generator(self, vp, ep) -> None:
        if sorted(vp) != list(range(self.num_vertices)):
            raise NotAnAction(f"{vp} is not a permutation of the vertices")
        if sorted(ep) != list(range(len(self.edge_endpoints))):
            raise NotAnAction(f"{ep} is not a permutation of the edges")
        for e, (o, t) in enumerate(self.edge_endpoints):
            if self.edge_endpoints[ep[e]] != (vp[o], vp[t]):
                raise NotAnAction("action does not preserve incidence")
            if ep[self.edge_reverse[e]] != self.edge_reverse[ep[e]]:
                raise NotAnAction("action does not commute with reversal")

    # -- the quotient graph ----------------------------------------------------

    def stabilizer(self, kind: int, x: int) -> Subgroup:
        """The elements fixing vertex or edge x, as `kind` says."""
        return Subgroup(self.group, tuple(g for g, perm in enumerate(self._perm)
                                          if perm[kind][x] == x))

    def orbit(self, kind: int, x: int) -> tuple[int, ...]:
        return tuple(sorted({perm[kind][x] for perm in self._perm}))

    def orbits(self, kind: int) -> list[tuple[int, tuple[int, ...], Subgroup]]:
        """(representative, orbit, stabilizer) per orbit of the vertices or
        edges, each orbit represented by its least member."""
        out, seen = [], set()
        for x in range((self.num_vertices, len(self.edge_endpoints))[kind]):
            if x not in seen:
                orbit = self.orbit(kind, x)
                seen.update(orbit)
                out.append((x, orbit, self.stabilizer(kind, x)))
        return out

    def is_segment(self) -> bool:
        """Two vertex orbits joined by a single geometric edge orbit."""
        vertices = self.orbits(VERTICES)
        if len(vertices) != 2 or len(self.orbits(EDGES)) != 2:
            return False
        # reversal commutes with every generator, so it permutes the edge
        # orbits, and it fixes none, for an element sending an edge to its
        # own reversal is refused as an EdgeInversion: two edge orbits are
        # each other's reversal, and a loop fails only the endpoint test
        o, t = self.edge_endpoints[0]
        first = set(vertices[0][1])
        return (o in first) != (t in first)

    def segment_amalgam(self) -> Amalgam:
        """The induced amalgam Stab(origin) *_Stab(edge) Stab(target) of
        edge 0, which represents the first edge orbit.  The stabilizers'
        generators are labelled e1, e2, ... (edge), o1, ... (origin) and
        t1, ... (target), so a word reaches each of them by its label."""
        if not self.is_segment():
            raise NotAnAction("quotient graph is not a single segment")
        C, c_elems = _stabilizer_group(self.stabilizer(EDGES, 0), "edge-stabilizer", "e")
        embeddings = []
        for v, name, prefix in zip(self.edge_endpoints[0],
                                   ("origin-stabilizer", "target-stabilizer"), "ot"):
            V, v_elems = _stabilizer_group(self.stabilizer(VERTICES, v), name, prefix)
            index = {g: i for i, g in enumerate(v_elems)}
            embeddings.append(GroupHom(C, V, {lab: index[c_elems[g]]
                                              for lab, g in C.generator_labels.items()}))
        return Amalgam(*embeddings)


def _stabilizer_group(S: Subgroup, name: str, prefix: str) -> tuple[FiniteGroup, tuple[int, ...]]:
    """S as a group whose greedy generators are labelled prefix1, prefix2, ..."""
    gens = _greedy_generators(S.parent, sorted(S.elements))
    return subgroup_as_group(S, name, {f"{prefix}{k}": g for k, g in enumerate(gens, 1)})


def _then(vp, ep):
    """Precomposition with one generator's (vertex, edge) permutations."""
    return lambda f: (tuple(map(f[0].__getitem__, vp)), tuple(map(f[1].__getitem__, ep)))
