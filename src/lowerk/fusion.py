"""Counting irreducible representations by Galois fusion of classes.

Over a field K, the number of irreducible K-representations of a finite
group equals the number of K-conjugacy classes: ordinary classes fused
under the Galois action of K's cyclotomic extensions (Witt-Berman).  The
three fields handled here act on an element x of order d through a unit
subgroup of (Z/d)*:

  rationals          all of (Z/d)*,
  p-adic rationals   full units at the p-part of d, Frobenius <p> at the
                     prime-to-p part,
  field with p       <p> mod d on p-regular elements only.

No representation is ever constructed; everything is table fusion.
The ranks built from these counts, Carter's and Bass's, are `ktheory`'s.
"""

from __future__ import annotations

import math

from .errors import NotPrime, UnknownSpec
from .groups import FiniteGroup
from .records import Frozen


# ---------------------------------------------------------------------------
# small number theory helpers
# ---------------------------------------------------------------------------

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson-Webster 2017); the bound itself is a strong pseudoprime to them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; p at or above PRIME_BOUND is refused."""
    if p >= PRIME_BOUND:
        raise UnknownSpec(f"{p} is too large: primes must be below {PRIME_BOUND}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# fusion specifications
# ---------------------------------------------------------------------------

# Rational() keys the same fused-class cache as Padic(p) and ModP(p), so a
# spec equals only a spec of its own class and prime.

class Rational(Frozen):
    __slots__ = ()

    def __eq__(self, other):
        return type(other) is Rational

    def __hash__(self):
        return 0

    def __str__(self):
        return "Q"


class _Local(Frozen):
    """A fusion spec at one prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def __eq__(self, other):
        return type(other) is type(self) and other.p == self.p

    def __hash__(self):
        return hash(self.p)


class Padic(_Local):
    __slots__ = ()

    def __str__(self):
        return f"Q_{self.p}"


class ModP(_Local):
    __slots__ = ()

    def __str__(self):
        return f"F_{self.p}"


FusionSpec = Rational | Padic | ModP


class FusedClasses(Frozen):
    """Conjugacy classes grouped into Galois-fused blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[tuple[tuple[int, ...], ...], ...]):
        object.__setattr__(self, "blocks", blocks)

    @property
    def count(self) -> int:
        return len(self.blocks)


def _unit_exponents(d: int, spec: FusionSpec) -> set[int]:
    """The units k mod d by which `spec` acts on an element of order d: those
    whose residue mod m is a power of p, where m is 1 over Q (every unit),
    the prime-to-p part of d over Q_p and d over F_p."""
    p, m = (1, 1) if isinstance(spec, Rational) else (spec.p, d)
    while isinstance(spec, Padic) and m % p == 0:
        m //= p
    powers, f = {1 % m}, p % m
    while f not in powers:
        powers.add(f)
        f = f * p % m
    return {k for r in powers for k in range(r, d, m) if math.gcd(k, d) == 1}


def fused_classes(G: FiniteGroup, spec: FusionSpec) -> FusedClasses:
    """Fuse conjugacy classes under the Galois action of `spec`.

    For ModP only p-regular classes (element order prime to p) appear.
    The result is kept with the group's invariants.
    """
    cache = G.invariants().fused
    if spec not in cache:
        cache[spec] = _fuse(G, spec)
    return cache[spec]


def _fuse(G: FiniteGroup, spec: FusionSpec) -> FusedClasses:
    """The exponents acting on order d form a subgroup of (Z/d)*, so the
    block of a class with representative g is the classes of g^e over
    those exponents e, read off g's cyclic subgroup, and every class lies
    in the block of its first member."""
    inv = G.invariants()
    units: dict[int, set[int]] = {}
    done = [False] * len(inv.classes)
    blocks = []
    for k, d in enumerate(inv.orders):
        if done[k] or (isinstance(spec, ModP) and d % spec.p == 0):
            continue
        if d not in units:
            units[d] = _unit_exponents(d, spec)
        powers = G.cyclic(inv.classes[k][0])
        members = sorted({inv.class_of[powers[e]] for e in units[d]})
        for m in members:
            done[m] = True
        blocks.append(tuple(inv.classes[m] for m in members))
    return FusedClasses(tuple(blocks))


def p_singular_classes(G: FiniteGroup, p: int) -> list[tuple[int, tuple[int, ...]]]:
    """Conjugacy classes of elements with order divisible by p.

    Returns (common element order, class) pairs sorted by order then by
    minimal member.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    inv = G.invariants()
    out = [(d, cls) for cls, d in zip(inv.classes, inv.orders) if d % p == 0]
    out.sort(key=lambda t: (t[0], t[1][0]))
    return out
