"""Finitely generated abelian groups and exact integer linear algebra.

Groups are kept in invariant-factor form (free rank plus a divisibility
chain of torsion coefficients).  Maps between presented abelian groups
are integer matrices; kernels and cokernels are computed through the
Smith normal form.  One elimination serves every caller and carries only
the transforms that caller reads.  A map eliminates [M | R_T] (its matrix
beside the target relations) at most once for its kernel and cokernel
together, carrying no transform: both read the diagonal alone.  Building a
map whose source has relations eliminates R_T once, carrying its row
transform u, and lifts each source relation r to (r, -y'), where
D' y' = u M r for the nonzero columns D' of the Smith form of R_T.  The
map keeps these lifts in `_lifted`.  Its kernel is Z^(m + rank R_T)
modulo the lifts, with rank [M | R_T] fewer free summands.  All
arithmetic uses Python's arbitrary-precision integers; entry growth during
elimination is harmless.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from .errors import IllFormedMap
from .records import Frozen, Record

Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def eye(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(m: Matrix, v: list[int]) -> list[int]:
    return [sum(row[k] * v[k] for k in range(len(v))) for row in m]


class SmithForm(Record):
    """Decomposition u * m * v = d with u, v unimodular and d diagonal.

    The diagonal is nonnegative and forms a divisibility chain.  u_inv and
    v_inv are the inverses of u and v, kept by the same elimination.  The
    lattice computations below do not build a SmithForm: each runs the
    elimination with only the transform it reads.
    """

    __slots__ = ("u", "d", "v", "u_inv", "v_inv")

    def __init__(self, u: Matrix, d: Matrix, v: Matrix, u_inv: Matrix, v_inv: Matrix):
        self.u, self.d, self.v, self.u_inv, self.v_inv = u, d, v, u_inv, v_inv

    def __eq__(self, other):
        if type(other) is not SmithForm:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    @property
    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))]

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def _eliminate(a: Matrix, u: Matrix | None = None, ui: Matrix | None = None,
               v: Matrix | None = None, vi: Matrix | None = None) -> list[int]:
    """Diagonalize `a` in place into Smith form and return its diagonal.

    Each row operation is applied to u and its inverse to ui, each column
    operation to v and its inverse to vi, for those of the four that are
    given.  The steps depend on `a` alone, so a transform left out changes
    nothing else.
    """
    r = len(a)
    c = len(a[0]) if r else 0
    rowed = [a] if u is None else [a, u]
    coled = [a] if v is None else [a, v]

    def row_swap(i, j):
        for m in rowed:
            m[i], m[j] = m[j], m[i]
        for row in ui or ():
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        for m in rowed:
            m[i] = [-x for x in m[i]]
        for row in ui or ():
            row[i] = -row[i]

    def row_add(i, t, q):
        # row_i += q * row_t
        for m in rowed:
            m[i] = [x + q * y for x, y in zip(m[i], m[t])]
        for row in ui or ():
            row[t] -= q * row[i]

    def col_swap(i, j):
        for m in coled:
            for row in m:
                row[i], row[j] = row[j], row[i]
        if vi is not None:
            vi[i], vi[j] = vi[j], vi[i]

    def col_add(j, t, q):
        # col_j += q * col_t
        for m in coled:
            for row in m:
                row[j] += q * row[t]
        if vi is not None:
            vi[t] = [x - q * y for x, y in zip(vi[t], vi[j])]

    t = 0
    limit = min(r, c)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    pivot, best = (i, j), x
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if a[t][t] < 0:
            row_neg(t)
        dirty = False
        for i in range(t + 1, r):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                if q:
                    row_add(i, t, -q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, c):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                if q:
                    col_add(j, t, -q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1
    return [a[i][i] for i in range(limit)]


def smith_normal_form(mat: Matrix, cols: int | None = None) -> SmithForm:
    """Smith normal form over the integers, with all four transforms.

    `cols` is only needed to fix the width of a matrix with zero rows.
    """
    r = len(mat)
    c = len(mat[0]) if r else (cols or 0)
    a = [list(row) for row in mat]
    for row in a:
        if len(row) != c:
            raise ValueError("ragged matrix")
        if any(type(x) is not int for x in row):
            raise ValueError(f"matrix row {row!r} has an entry that is not an int")
    u, ui, v, vi = eye(r), eye(r), eye(c), eye(c)
    _eliminate(a, u, ui, v, vi)
    return SmithForm(u, a, v, ui, vi)


# ---------------------------------------------------------------------------
# abelian groups in invariant-factor form
# ---------------------------------------------------------------------------

def prime_factors(n: int) -> dict[int, int]:
    """{p: e} with n the product of the p^e, primes in increasing order."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


class FgAbelianGroup(Frozen):
    """A finitely generated abelian group: Z^free_rank + sum of Z/d_i.

    The torsion coefficients form a divisibility chain d_1 | d_2 | ...
    with every d_i >= 2, so equality of values is isomorphism.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        torsion = tuple(torsion)
        for v in (free_rank, *torsion):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"free rank or torsion coefficient {v!r} is not an int")
        if free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in torsion:
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
            if prev is not None and d % prev:
                raise ValueError("torsion coefficients must form a divisibility chain")
            prev = d
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    def __eq__(self, other):
        if type(other) is not FgAbelianGroup:
            return NotImplemented
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    @classmethod
    def from_divisors(cls, free_rank: int, divisors: Iterable[int]) -> "FgAbelianGroup":
        """Canonicalize an arbitrary direct sum of cyclic groups (Z/0 = Z).

        Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), so exchanging every pair
        a_i, a_j (i < j) for their gcd and lcm leaves the group unchanged
        and ends in a divisibility chain with the 0s last; no divisor is
        factored.
        """
        ds = []
        for d in divisors:
            if isinstance(d, bool) or not isinstance(d, int):
                raise ValueError(f"cyclic divisor {d!r} is not an int")
            ds.append(abs(d))
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                ds[i], ds[j] = math.gcd(ds[i], ds[j]), math.lcm(ds[i], ds[j])
        return cls(free_rank + ds.count(0), tuple(d for d in ds if d > 1))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def order(self) -> int | None:
        """Group order, or None when the free rank is positive."""
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def direct_sum(self, *others: "FgAbelianGroup") -> "FgAbelianGroup":
        rank = self.free_rank + sum(g.free_rank for g in others)
        divisors = list(self.torsion)
        for g in others:
            divisors.extend(g.torsion)
        return FgAbelianGroup.from_divisors(rank, divisors)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for d, group in itertools.groupby(self.torsion):
            k = len(list(group))
            parts.append(f"Z/{d}" if k == 1 else f"(Z/{d})^{k}")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"rank": self.free_rank, "torsion": list(self.torsion)}


TRIVIAL_GROUP = FgAbelianGroup()


# ---------------------------------------------------------------------------
# presented abelian groups and maps
# ---------------------------------------------------------------------------

class AbelianPresentation(Frozen):
    """Z^ngens modulo the lattice spanned by the relation vectors."""

    __slots__ = ("ngens", "relations")

    def __init__(self, ngens: int, relations: tuple[tuple[int, ...], ...] = ()):
        for rel in relations:
            if len(rel) != ngens:
                raise ValueError("relation length does not match generator count")
        object.__setattr__(self, "ngens", ngens)
        object.__setattr__(self, "relations", relations)


def presentation_of_sum(groups: list[FgAbelianGroup]) -> AbelianPresentation:
    """Presentation of a direct sum keeping each summand's coordinates.

    Generator order: all torsion generators (summand by summand), then all
    free generators (summand by summand).  Nothing is canonicalized, so
    matrices written against this ordering keep their cited shape; for a
    single group it is the canonical presentation.
    """
    torsion = [d for g in groups for d in g.torsion]
    free = sum(g.free_rank for g in groups)
    n = len(torsion) + free
    rels = []
    for i, d in enumerate(torsion):
        rel = [0] * n
        rel[i] = d
        rels.append(tuple(rel))
    return AbelianPresentation(n, tuple(rels))


def group_of(pres: AbelianPresentation) -> FgAbelianGroup:
    """Invariant-factor form of a presented abelian group."""
    diag = _eliminate([list(rel) for rel in pres.relations])
    return FgAbelianGroup.from_divisors(pres.ngens - len(diag), diag)


class AbelianMap(Frozen):
    """A homomorphism between presented abelian groups.

    `matrix` has one row per target generator and one column per source
    generator; column j is the image of source generator j.  A matrix of
    the wrong shape, or one that sends a source relation outside the
    target relation lattice, is refused when the map is built.  That check
    finds the lifts of the source relations (see `_lifts`), which the
    kernel reads, and keeps them in `_lifted`; a free source has no
    relation to check, so building its map eliminates nothing.  The Smith
    diagonal of [M | R_T], which kernel and cokernel both read, is kept in
    `_diagonal` by the first of them to eliminate it.
    """

    __slots__ = ("source", "target", "matrix", "_diagonal", "_lifted")

    def __init__(self, source: AbelianPresentation, target: AbelianPresentation,
                 matrix: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_diagonal", None)
        object.__setattr__(self, "_lifted", None)
        if len(self.matrix) != self.target.ngens:
            raise IllFormedMap(
                f"matrix has {len(self.matrix)} rows, target has {self.target.ngens} generators")
        for row in self.matrix:
            if len(row) != self.source.ngens:
                raise IllFormedMap(
                    f"matrix row length {len(row)} does not match {self.source.ngens} source generators")
        if self.source.relations:
            _lifts(self)


def _lifts(f: AbelianMap) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """rank R_T and the lift (r, -y') of each source relation r, found
    once per map and kept in `_lifted`.

    With the Smith form u R_T v = D, y' is the first rank R_T entries of
    the y with D y = u M r; a relation with no such y is refused.  The
    row transform u is carried only when there are relations to lift.
    """
    if f._lifted is None:
        rels = f.target.relations
        u = eye(f.target.ngens) if f.source.relations else None
        diag = _eliminate([[rel[i] for rel in rels] for i in range(f.target.ngens)], u=u)
        d = [x for x in diag if x]      # the nonzero entries come first
        lifts = []
        for rel in f.source.relations:
            w = mat_vec(u, mat_vec(f.matrix, rel))
            if any(w[len(d):]) or any(x % di for x, di in zip(w, d)):
                raise IllFormedMap(f"image of source relation {rel} misses the target lattice")
            lifts.append(tuple(rel) + tuple(-(x // di) for x, di in zip(w, d)))
        object.__setattr__(f, "_lifted", (len(d), tuple(lifts)))
    return f._lifted


def _smith_diagonal(f: AbelianMap) -> list[int]:
    """The Smith diagonal of [M | R_T], eliminated once per map."""
    if f._diagonal is None:
        rels = f.target.relations
        g = [list(row) + [rel[i] for rel in rels] for i, row in enumerate(f.matrix)]
        object.__setattr__(f, "_diagonal", _eliminate(g))
    return f._diagonal


def cokernel(f: AbelianMap) -> FgAbelianGroup:
    """Target modulo (image + target relations), in canonical form."""
    diag = _smith_diagonal(f)
    return FgAbelianGroup.from_divisors(f.target.ngens - len(diag), diag)


def kernel(f: AbelianMap) -> FgAbelianGroup:
    """Kernel of the induced map on quotients, in canonical form.

    With the Smith form u R_T v = D and D' its first rank R_T columns, the
    lattice K' = {(x, y') : u M x + D' y' = 0} is saturated in
    Z^(m + rank R_T), of rank m + rank R_T - rank [M | R_T], so it has a
    free complement of rank rank [M | R_T].  D' has full column rank, so
    K' projects isomorphically onto the preimage {x : M x in L(R_T)} of
    the kernel, and the lifts kept in `_lifted` map onto the source
    relations.  So the kernel is K' modulo the lifts: Z^(m + rank R_T)
    modulo the lifts, less rank [M | R_T] free summands.  A free source
    has no lifts, and its kernel is free of rank
    m - rank [M | R_T] + rank R_T.
    """
    rank_t, lifts = _lifts(f)
    rank = sum(1 for x in _smith_diagonal(f) if x)
    quotient = group_of(AbelianPresentation(f.source.ngens + rank_t, lifts))
    return FgAbelianGroup(quotient.free_rank - rank, quotient.torsion)
