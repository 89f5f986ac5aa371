import math

import pytest

from lowerk.errors import NotPrime, UnknownSpec
from lowerk.fusion import (
    PRIME_BOUND,
    ModP,
    Padic,
    Rational,
    _fuse,
    _unit_exponents,
    fused_classes,
    is_prime,
    p_singular_classes,
)
from lowerk.groups import build_group, conjugacy_classes


# --- independent closed forms for cyclic groups ----------------------------

def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def totient(d):
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def mult_order(p, d):
    if d == 1:
        return 1
    k, x = 1, p % d
    while x != 1:
        x = (x * p) % d
        k += 1
    return k


def cyclic_modp_count(n, p):
    # irreducible factors of x^(n') - 1 over the field with p elements
    n_prime = n
    while n_prime % p == 0:
        n_prime //= p
    return sum(totient(d) // mult_order(p, d) for d in divisors(n_prime))


def cyclic_padic_count(n, p):
    total = 0
    for d in divisors(n):
        pa, rest = 1, d
        while rest % p == 0:
            pa *= p
            rest //= p
        h = totient(pa) * mult_order(p, rest)
        total += totient(d) // h
    return total


# --- oracle comparisons ------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 31))
def test_cyclic_rational_counts_divisors(n):
    G = build_group(f"cyclic:{n}")
    assert fused_classes(G, Rational()).count == len(divisors(n))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", range(1, 31))
def test_cyclic_closed_forms(n, p):
    G = build_group(f"cyclic:{n}")
    assert fused_classes(G, ModP(p)).count == cyclic_modp_count(n, p)
    assert fused_classes(G, Padic(p)).count == cyclic_padic_count(n, p)


def test_fusion_specs_equal_only_their_own_kind_and_prime():
    # Padic(p) and ModP(p) key the same fused-class cache
    specs = [Rational(), Padic(2), ModP(2), Padic(3), ModP(3)]
    assert [Rational(), Padic(2), ModP(2), Padic(3), ModP(3)] == specs
    assert len(set(specs)) == len(specs)
    assert all(a != b for i, a in enumerate(specs) for b in specs[i + 1:])


def test_trivial_group_counts():
    G = build_group("cyclic:1")
    for spec in (Rational(), Padic(2), ModP(3)):
        assert fused_classes(G, spec).count == 1


def test_dicyclic12_rational_fusion():
    G = build_group("dicyclic:12")
    fused = fused_classes(G, Rational())
    assert fused.count == 5
    # the two order-4 classes fuse into a single block
    order4 = [block for block in fused.blocks
              if G.element_order(block[0][0]) == 4]
    assert len(order4) == 1
    assert len(order4[0]) == 2


def test_frozen_rational_counts():
    for name, want in [("quaternion:8", 5), ("dicyclic:24", 8),
                       ("binary-octahedral", 7), ("symmetric:4", 5),
                       ("dihedral:6", 6), ("dihedral:3", 3),
                       ("binary-tetrahedral", 5)]:
        assert fused_classes(build_group(name), Rational()).count == want


def test_singular_class_counts():
    D12 = build_group("dicyclic:12")
    D24 = build_group("dicyclic:24")
    assert len(p_singular_classes(D12, 2)) == 4
    assert len(p_singular_classes(D12, 3)) == 2
    assert len(p_singular_classes(D24, 2)) == 7
    assert len(p_singular_classes(D24, 3)) == 4


def test_singular_classes_tagged_with_order():
    D24 = build_group("dicyclic:24")
    for order, cls in p_singular_classes(D24, 2):
        assert order % 2 == 0
        assert all(D24.element_order(g) == order for g in cls)


def test_singular_empty_when_p_does_not_divide():
    assert p_singular_classes(build_group("cyclic:5"), 2) == []
    assert p_singular_classes(build_group("quaternion:8"), 3) == []


def test_singular_union_is_all_classes():
    for name in ("dicyclic:12", "dicyclic:24", "symmetric:4"):
        G = build_group(name)
        for p in (2, 3):
            singular = {cls for _, cls in p_singular_classes(G, p)}
            regular = {cls for cls in conjugacy_classes(G)
                       if G.element_order(cls[0]) % p}
            assert singular | regular == set(conjugacy_classes(G))
            assert not singular & regular


def test_monotonicity():
    from lowerk.abelian import prime_factors

    for name in ("cyclic:12", "quaternion:8", "dicyclic:12", "dicyclic:24",
                 "symmetric:4", "dihedral:6", "binary-octahedral"):
        G = build_group(name)
        nclasses = len(conjugacy_classes(G))
        r_q = fused_classes(G, Rational()).count
        for p in prime_factors(G.order):
            fp = fused_classes(G, ModP(p)).count
            qp = fused_classes(G, Padic(p)).count
            assert fp <= qp <= nclasses
            assert r_q <= qp


def test_not_prime_rejected():
    G = build_group("cyclic:6")
    with pytest.raises(NotPrime):
        fused_classes(G, ModP(4))
    with pytest.raises(NotPrime):
        fused_classes(G, Padic(1))
    with pytest.raises(NotPrime):
        p_singular_classes(G, 6)


def test_modp_blocks_are_p_regular():
    G = build_group("dicyclic:24")
    fused = fused_classes(G, ModP(2))
    for block in fused.blocks:
        for cls in block:
            assert G.element_order(cls[0]) % 2 == 1


def test_is_prime_against_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]
    assert not is_prime(0) and not is_prime(1)
    assert not is_prime(561)     # Carmichael number
    assert not is_prime(2047)    # strong pseudoprime to base 2
    assert not is_prime(3825123056546413051)    # strong pseudoprime to bases 2..23
    assert is_prime(1000000000000000003)
    assert not is_prime(1000000000000000001)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)


def test_is_prime_refuses_beyond_its_bound():
    assert is_prime(PRIME_BOUND - 1) is False    # even, and still answered
    for p in (PRIME_BOUND, 2 ** 127 - 1):
        with pytest.raises(UnknownSpec):
            is_prime(p)
    with pytest.raises(UnknownSpec):
        ModP(PRIME_BOUND)


def _fuse_by_power(G, spec):
    """The blocks with each g^e computed by square-and-multiply."""
    inv = G.invariants()
    done, blocks = [False] * len(inv.classes), []
    for k, d in enumerate(inv.orders):
        if done[k] or (isinstance(spec, ModP) and d % spec.p == 0):
            continue
        g = inv.classes[k][0]
        members = sorted({inv.class_of[G.power(g, e)] for e in _unit_exponents(d, spec)})
        for m in members:
            done[m] = True
        blocks.append(tuple(inv.classes[m] for m in members))
    return tuple(blocks)


@pytest.mark.parametrize("name", ["cyclic:12", "cyclic:30", "dihedral:6", "dicyclic:24",
                                  "symmetric:4", "binary-octahedral", "binary-icosahedral"])
def test_fuse_reads_the_powers_that_square_and_multiply_gives(name):
    G = build_group(name)
    for spec in (Rational(), Padic(2), Padic(3), Padic(5), ModP(2), ModP(3), ModP(5)):
        assert _fuse(G, spec).blocks == _fuse_by_power(G, spec)
