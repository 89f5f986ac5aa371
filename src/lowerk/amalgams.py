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
through one table of the vertex groups' labels.  The kernel of a map of
an amalgam onto a finite group that its edge group already covers is
again an amalgam, of the three kernels.

Each non-identity coset representative t of a side is one syllable
object (side, t), built with the amalgam and shared by every normal form
that holds it.  The first factorization of a step depends only on the
vertex element x and the head h, so each side holds an action table of
x * i(h) -> (c, syllable) for every x and h, the syllable None for the
edge coset: |V| * |C| references, no more than the vertex group's own
Cayley table.  With the cyclic powers of each label, also tabled, a
letter of a word costs one read of each and allocates nothing.
"""

from __future__ import annotations

import math

from .errors import NotHomomorphism, NotInjective, UnknownSymbol, UsageError
from .groups import FiniteGroup, GroupHom, Subgroup, _greedy_generators, subgroup_as_group
from .presentations import Word
from .records import Frozen

INFINITE = math.inf

SIDE_A = 0
SIDE_B = 1


class AmalgamElement(Frozen):
    """Normal form: head in C, then alternating transversal syllables.

    Syllables are (side, vertex element index) pairs; no syllable is an
    identity representative and consecutive syllables change sides.  The
    amalgam's operations write each coset's one shared pair.
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
        self._transversal, self._coset = zip(*map(self._cosets, (SIDE_A, SIDE_B)))
        self._act = tuple(tuple(tuple([coset[row[i]] for i in image]) for row in V.table)
                          for V, image, coset in zip(self._vertex, self._embed, self._coset))
        self._symbols = {sym: (SIDE_A, g) for sym, g in self.A.generator_labels.items()}
        for sym, g in self.B.generator_labels.items():
            first = self._symbols.setdefault(sym, (SIDE_B, g))
            if self.embed_vertex(*first) != self.embed_vertex(SIDE_B, g):
                del self._symbols[sym]
        self._powers = {sym: (side, self._vertex[side].cyclic(g))
                        for sym, (side, g) in self._symbols.items()}

    def _cosets(self, side: int) -> tuple[tuple[int, ...], tuple]:
        """Right-coset representatives of the embedded edge group, and for
        each vertex element a the unique (c, t) with a = i(c) * t, as
        (c, syllable): t's one shared (side, t), None when t is the
        identity.  In one ascending pass the first element not yet factored
        is the least of its coset, so the identity (index 0) represents the
        edge coset."""
        V = self._vertex[side]
        image = self._embed[side]
        reps: list[int] = []
        factor: list = [None] * V.order
        for t in range(V.order):
            if factor[t] is None:
                reps.append(t)
                for c in range(self.C.order):
                    factor[V.table[image[c]][t]] = (c, t)
        shared = {t: (side, t) for t in reps[1:]}
        return tuple(reps), tuple((c, shared.get(t)) for c, t in factor)

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
        x's side meets the first syllable.  Both give (c, syllable), so
        `rev` receives a shared syllable and nothing is allocated."""
        c, syllable = self._act[side][x][head]
        if syllable is None:
            return c
        if rev and rev[-1][0] == side:
            c2, syllable = self._coset[side][self._vertex[side].table[syllable[1]][rev[-1][1]]]
            c = self.C.table[c][c2]
            if syllable is None:
                rev.pop()
            else:
                rev[-1] = syllable
        else:
            rev.append(syllable)
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
            c, syllable = self._coset[side][V.table[syll[hi][1]][first]]
            if syllable is not None:
                return INFINITE
            lo, hi = lo + 1, hi - 1
            side, x = syll[lo]
            first = self._vertex[side].table[self._embed[side][c]][x]
        if hi > lo:
            return INFINITE
        return self._vertex[side].element_order(first)


# ---------------------------------------------------------------------------
# kernels of maps onto finite groups
# ---------------------------------------------------------------------------

def kernel_amalgam(am: Amalgam, on_a: GroupHom, on_b: GroupHom) -> Amalgam:
    """The kernel K of the map of A *_C B to T that the vertex maps on_a:
    A -> T and on_b: B -> T define, when C maps onto T.

    K acts on the amalgam's tree with the stabilizers K n A, K n C and
    K n B; as G = K C, it has one orbit of each kind of vertex and one of
    edges, so its quotient graph is a segment and K = (K n A) *_(K n C)
    (K n B) (Serre, Trees, I.4.1, Thm 6).  The three kernels' generators
    are labelled o1, o2, ... (A), t1, ... (B) and e1, ... (C), so a word
    reaches each of them by its label."""
    if on_a.source is not am.A or on_b.source is not am.B:
        raise NotHomomorphism("the vertex maps do not start at the amalgam's vertex groups")
    if on_a.target is not on_b.target:
        raise NotHomomorphism("the two vertex maps have different targets")
    for hom in (on_a, on_b):
        if not hom.is_homomorphism():
            raise NotHomomorphism(f"the map of {hom.source.name} is not a homomorphism")
    on_c = [on_a.full_map()[a] for a in am._embed[SIDE_A]]
    if on_c != [on_b.full_map()[b] for b in am._embed[SIDE_B]]:
        raise NotHomomorphism("the two vertex maps disagree on the edge group")
    T = on_a.target
    if len(set(on_c)) != T.order:
        raise UsageError(f"the edge group maps onto {len(set(on_c))} of the {T.order} "
                         f"elements of {T.name}, so the quotient graph is not a segment")
    C, c_elems = _kernel_group(am.C, on_c, T, "e")
    embeddings = []
    for side, hom, prefix in ((SIDE_A, on_a, "o"), (SIDE_B, on_b, "t")):
        V, v_elems = _kernel_group(hom.source, hom.full_map(), T, prefix)
        index = {g: i for i, g in enumerate(v_elems)}
        embeddings.append(GroupHom(C, V, {lab: index[am._embed[side][c_elems[g]]]
                                          for lab, g in C.generator_labels.items()}))
    return Amalgam(*embeddings)


def _kernel_group(G: FiniteGroup, image, T: FiniteGroup,
                  prefix: str) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The elements of G that `image` sends to T's identity, as a group
    whose greedy generators are labelled prefix1, prefix2, ..."""
    elems = [g for g in range(G.order) if image[g] == T.identity]
    gens = _greedy_generators(G, elems)
    return subgroup_as_group(Subgroup(G, tuple(elems)), f"{G.name} kernel",
                             {f"{prefix}{k}": g for k, g in enumerate(gens, 1)})
