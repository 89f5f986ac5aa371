"""Finitely generated abelian groups and exact integer linear algebra.

Groups are kept in invariant-factor form (free rank plus a divisibility
chain of torsion coefficients).  Maps between presented abelian groups
are integer matrices.  Kernels and cokernels are read from a diagonal
form, whose pivots need not divide one another: `_eliminate` makes it
with row operations alone, reducing each pivot row in place, and
`FgAbelianGroup.from_divisors` turns its pivots into invariant factors.
A map eliminates [M | R_T] (its matrix beside the target relations) at
most once for its kernel and cokernel together, carrying no transform.
Building a map whose source has relations eliminates R_T once, carrying
its row transform u, and lifts each source relation r to (r, -y'), where
D y' = u M r for the pivots D of R_T.  The map keeps these lifts in
`_lifted`.  Its kernel is Z^(m + rank R_T) modulo the lifts, with
rank [M | R_T] fewer free summands.  Only `smith_normal_form` keeps the
four transforms of a Smith form, which no library path reads.  It runs
Euclid at each pivot with quotients rounded to the nearest integer and
eliminates along the shorter side: a tall matrix is solved as its
transpose.  It updates u, u_inv and v_inv as it eliminates, reading a
row that is still a unit vector as its one entry, and builds v last from
its log of column operations.  All arithmetic uses Python's
arbitrary-precision integers; entry growth during elimination is
harmless.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable
from .errors import IllFormedMap
from .records import Frozen, Record

Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def eye(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)]


def mat_vec(m: Matrix, v: list[int]) -> list[int]:
    return [sum(map(operator.mul, row, v)) for row in m]


class SmithForm(Record):
    """Decomposition u * m * v = d with u, v unimodular and d diagonal.

    d has the shape of m.  Its diagonal is nonnegative and forms a
    divisibility chain, zeros last, so d is unique; u and v are not.
    u_inv and v_inv are the inverses of u and v.  Only
    `smith_normal_form` builds one: the library reads diagonal forms from
    `_eliminate` instead.
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


def _eliminate(a: Matrix, u: Matrix | None = None) -> list[int]:
    """The rank-many positive pivots of a diagonal form of `a`, which is
    used up; each row operation is mirrored on u when it is given.

    Each pivot p is the smallest nonzero |entry| left.  Euclid row
    operations clear its column.  Then a column operation changes the
    pivot row alone, so that row is reduced modulo p in place and no column
    transform is kept.  A nonzero remainder, in the column or in the row,
    becomes the pivot in turn.  Then the pivot's row and column drop out.
    So u a v = D for a unimodular v never formed, pivot k in row k of D
    (Cohen, GTM 138, section 2.4).
    """
    r = len(a)
    diag = []
    for t in range(r):
        p = 0
        for i in range(t, r):
            for x in a[i]:
                if x and (not p or abs(x) < p):
                    p, k = abs(x), i
            if p == 1:
                break
        if not p:
            break
        while True:
            if k != t:
                a[t], a[k] = a[k], a[t]
                if u is not None:
                    u[t], u[k] = u[k], u[t]
            at = a[t]
            if p in at:
                j = at.index(p)
            else:
                j = at.index(-p)
                a[t] = at = [-x for x in at]
                if u is not None:
                    u[t] = [-x for x in u[t]]
            rem = 0
            for i in range(t + 1, r):
                x = a[i][j]
                if x:
                    q = x // p
                    if q:
                        a[i] = [y - q * z for y, z in zip(a[i], at)]
                        if u is not None:
                            u[i] = [y - q * z for y, z in zip(u[i], u[t])]
                        x -= q * p
                    if x and (not rem or x < rem):
                        rem, k = x, i
            if rem:
                p = rem
                continue
            if p == 1:
                break
            at = [x % p for x in at]
            at[j] = p
            m = min(filter(None, at))
            if m == p:
                break
            a[t], p, k = at, m, t
        diag.append(p)
        for row in a[t + 1:]:
            del row[j]
    return diag


def smith_normal_form(mat: Matrix, cols: int | None = None) -> SmithForm:
    """Smith normal form over the integers, with all four transforms.

    `cols` fixes the width of a matrix with no rows; given with rows, it
    must be their length.  A tall matrix is solved as its transpose, so
    the elimination runs along the shorter side.  Each pivot is the
    smallest nonzero |entry| left, and Euclid runs there: row operations
    clear its column, then column operations, which change the pivot row
    alone, clear its row.  Quotients are rounded to the nearest integer,
    and a remainder becomes the pivot by one swap.  A pivot that misses
    an entry left gets that entry's row added to its own, and Euclid
    resumes (Cohen, GTM 138, section 2.4).

    Each row operation is mirrored on u and on u_inv, kept transposed, and
    each column operation on v_inv, so every update is a row operation.
    A row of u_inv or v_inv that is still a unit vector is read as its one
    entry.  v is built last from the identity and the log of column
    operations, last operation first, so its row w is still e_w, read as
    its one entry, unless column w was the pivot of a later operation.  So
    the row of a kernel column, which is never a pivot, is always read as
    one entry.
    """
    r = len(mat)
    if cols is not None and (type(cols) is not int or cols < 0 or (r and cols != len(mat[0]))):
        raise ValueError(f"cols={cols!r} does not match the matrix width")
    c = len(mat[0]) if r else (cols or 0)
    a = [list(row) for row in mat]
    for row in a:
        if len(row) != c:
            raise ValueError("ragged matrix")
        if any(type(x) is not int for x in row):
            raise ValueError(f"matrix row {row!r} has an entry that is not an int")
    tall = r > c
    if tall:
        a, r, c = _transpose(a), c, r
    u, ui_t, vi = eye(r), eye(r), eye(c)
    unit = list(range(r))   # where each row of ui_t holds its 1, None once it is no unit vector
    bare = [True] * c       # whether row w of vi is still e_w
    log = []                # each column operation (x, w, q): v column w -= q v column x
    live = list(range(c))   # the v column of each column left in a
    order = []              # the v column of each pivot, in turn
    diag = []
    for t in range(r):
        p = 0
        for i in range(t, r):
            for jj, x in enumerate(a[i]):
                if x and (not p or abs(x) < p):
                    p, k, j = abs(x), i, jj
            if p == 1:
                break
        if not p:
            break
        while True:
            if k != t:
                a[t], a[k] = a[k], a[t]
                u[t], u[k] = u[k], u[t]
                ui_t[t], ui_t[k] = ui_t[k], ui_t[t]
                unit[t], unit[k] = unit[k], unit[t]
                k = t
            at, ut, uit = a[t], u[t], ui_t[t]
            p, rem = at[j], 0
            for i in range(t + 1, r):
                x = a[i][j]
                if x:
                    q = (2 * x + p) // (2 * p)
                    if q:
                        a[i] = [y - q * z for y, z in zip(a[i], at)]
                        u[i] = [y - q * z for y, z in zip(u[i], ut)]
                        if unit[i] is None:
                            ui_t[t] = uit = [y + q * z for y, z in zip(uit, ui_t[i])]
                        else:
                            uit[unit[i]] += q
                        unit[t] = None
                        x -= q * p
                    if x and (not rem or abs(x) < rem):
                        rem, k = abs(x), i
            if rem:
                continue
            # column j is clear below the pivot, so column operations
            # against it change row t alone
            vj = live[j]
            for jj, x in enumerate(at):
                if x and jj != j:
                    q = (2 * x + p) // (2 * p)
                    if q:
                        w = live[jj]
                        log.append((vj, w, q))
                        if bare[w]:
                            vi[vj][w] += q
                        else:
                            vi[vj] = [y + q * z for y, z in zip(vi[vj], vi[w])]
                        bare[vj] = False
                        x -= q * p
                        at[jj] = x
                    if x and (not rem or abs(x) < rem):
                        rem, jn = abs(x), jj
            if rem:
                j = jn
                continue
            if p in (1, -1):
                break
            k = next((i for i in range(t + 1, r) if any(x % p for x in a[i])), t)
            if k == t:
                break
            a[t] = [y + z for y, z in zip(at, a[k])]
            u[t] = [y + z for y, z in zip(ut, u[k])]
            ui_t[k] = [y - z for y, z in zip(ui_t[k], uit)]
            unit[k] = None
            k = t
        # row t of ui_t is read no more, so its unit entry is left stale
        if p < 0:
            p, u[t], ui_t[t] = -p, [-x for x in u[t]], [-x for x in ui_t[t]]
        diag.append(p)
        order.append(live.pop(j))
        for row in a[t + 1:]:
            del row[j]
    order += live
    # v = E_1 ... E_N for the logged column operations E_n, built from the
    # right: row x -= q row w, and row w is still e_w unless column w is
    # the pivot of a later operation
    v, bare = eye(c), [True] * c
    for x, w, q in reversed(log):
        if bare[w]:
            v[x][w] -= q
        else:
            v[x] = [y - q * z for y, z in zip(v[x], v[w])]
        bare[x] = False
    v, vi = [[row[w] for w in order] for row in v], [vi[w] for w in order]
    if tall:    # u m^T v = d gives v^T m u^T = d^T
        r, c = c, r
        u, v, ui_t, vi = _transpose(v), _transpose(u), vi, ui_t
    d = [[0] * c for _ in range(r)]
    for i, p in enumerate(diag):
        d[i][i] = p
    return SmithForm(u, d, v, _transpose(ui_t), vi)


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
            if d not in (1, -1):    # Z/1 is no summand
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
    relation to check, so building its map eliminates nothing.  The pivots
    of a diagonal form of [M | R_T], which kernel and cokernel both read,
    are kept in `_diagonal` by the first of them to eliminate it.
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

    With a diagonal form u R_T v = D, pivot k in row k, y' is the first
    rank R_T entries of the y with D y = u M r; a relation with no such y
    is refused.  Any diagonal form will do: the pivots need not divide one
    another.  The row transform u is carried only when there are relations
    to lift.
    """
    if f._lifted is None:
        rels = f.target.relations
        u = eye(f.target.ngens) if f.source.relations else None
        diag = _eliminate([[rel[i] for rel in rels] for i in range(f.target.ngens)], u=u)
        lifts = []
        for rel in f.source.relations:
            w = mat_vec(u, mat_vec(f.matrix, rel))
            if any(w[len(diag):]) or any(x % d for x, d in zip(w, diag)):
                raise IllFormedMap(f"image of source relation {rel} misses the target lattice")
            lifts.append(tuple(rel) + tuple(-(x // d) for x, d in zip(w, diag)))
        object.__setattr__(f, "_lifted", (len(diag), tuple(lifts)))
    return f._lifted


def _diagonal_form(f: AbelianMap) -> list[int]:
    """The pivots of a diagonal form of [M | R_T], eliminated once per map."""
    if f._diagonal is None:
        rels = f.target.relations
        g = [list(row) + [rel[i] for rel in rels] for i, row in enumerate(f.matrix)]
        object.__setattr__(f, "_diagonal", _eliminate(g))
    return f._diagonal


def cokernel(f: AbelianMap) -> FgAbelianGroup:
    """Target modulo (image + target relations), in canonical form: the
    pivots of [M | R_T] are its cyclic summands, and `from_divisors`
    exchanges them for invariant factors."""
    diag = _diagonal_form(f)
    return FgAbelianGroup.from_divisors(f.target.ngens - len(diag), diag)


def kernel(f: AbelianMap) -> FgAbelianGroup:
    """Kernel of the induced map on quotients, in canonical form.

    With a diagonal form u R_T v = D and D' its rank R_T pivot columns, the
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
    rank = len(_diagonal_form(f))
    quotient = group_of(AbelianPresentation(f.source.ngens + rank_t, lifts))
    return FgAbelianGroup(quotient.free_rank - rank, quotient.torsion)
