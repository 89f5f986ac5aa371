import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lowerk import abelian
from lowerk.abelian import (
    AbelianMap,
    AbelianPresentation,
    FgAbelianGroup,
    SmithForm,
    TRIVIAL_GROUP,
    cokernel,
    group_of,
    kernel,
    mat_vec,
    presentation_of_sum,
    prime_factors,
    smith_normal_form,
)
from lowerk.casebook import bundled_spec_json
from lowerk.errors import IllFormedMap
from lowerk.ktheory import DEGREES, _degree_map, assembly_spec_from_json


def mat_mul(a, b):
    if not a:
        return []
    bc = len(b[0]) if b else 0
    return [[sum(ra[k] * b[k][j] for k in range(len(ra))) for j in range(bc)]
            for ra in a]


def determinant(mat):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in mat]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def zero_map(source, target):
    return AbelianMap(source, target,
                      tuple(tuple(0 for _ in range(source.ngens))
                            for _ in range(target.ngens)))


def snf_postconditions(mat, cols=None):
    s = smith_normal_form(mat, cols=cols)
    r = len(mat)
    c = len(mat[0]) if mat else (cols or 0)
    umv = mat_mul(mat_mul(s.u, [list(row) for row in mat]), s.v)
    assert umv == s.d
    assert determinant(s.u) in (1, -1)
    assert determinant(s.v) in (1, -1)
    assert mat_mul(s.u, s.u_inv) == [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    assert mat_mul(s.v, s.v_inv) == [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    for i in range(r):
        for j in range(c):
            if i != j:
                assert s.d[i][j] == 0
    diag = s.diagonal
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a and b:
            assert b % a == 0
        if a == 0:
            assert b == 0
    return s


def test_snf_identity():
    s = snf_postconditions([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert s.diagonal == [1, 1, 1]


def test_snf_hand_example():
    # gcd of entries is 2 and |det| = 8, so the chain is 2, 4
    s = snf_postconditions([[2, 4], [6, 8]])
    assert s.diagonal == [2, 4]


def test_snf_single_column():
    s = snf_postconditions([[0], [0], [1], [1], [0]])
    assert [d for d in s.diagonal if d] == [1]


def test_snf_zero_and_empty():
    assert snf_postconditions([[0, 0], [0, 0]]).diagonal == [0, 0]
    assert smith_normal_form([], cols=3).d == []
    assert smith_normal_form([[], []], cols=0).d == [[], []]


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.data())
def test_snf_hypothesis_postconditions(r, c, data):
    mat = [[data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(c)]
           for _ in range(r)]
    snf_postconditions(mat)


def test_snf_random_postconditions():
    # acceptance: 200 random matrices up to 8x8 with entries in [-20, 20]
    rng = random.Random(20240817)
    for _ in range(200):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        mat = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        snf_postconditions(mat)


def test_determinant_known_values():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert determinant([[1, 1], [1, 1]]) == 0
    assert determinant([]) == 1


@given(st.lists(st.integers(min_value=0, max_value=64), max_size=6),
       st.integers(min_value=0, max_value=3))
def test_from_divisors_canonical(divisors, rank):
    g = FgAbelianGroup.from_divisors(rank, divisors)
    prev = None
    for d in g.torsion:
        assert d >= 2
        if prev is not None:
            assert d % prev == 0
        prev = d
    total = 1
    for d in divisors:
        total *= max(d, 1)
    if g.free_rank == rank and total:
        assert g.order == total or g.free_rank > 0


def test_from_divisors_examples():
    assert FgAbelianGroup.from_divisors(0, [2, 3]) == FgAbelianGroup(0, (6,))
    assert FgAbelianGroup.from_divisors(0, [2, 4]) == FgAbelianGroup(0, (2, 4))
    assert FgAbelianGroup.from_divisors(1, [0, 6, 15]) == FgAbelianGroup(2, (3, 30))
    assert FgAbelianGroup.from_divisors(0, [1, 1]) == TRIVIAL_GROUP


def test_rendering():
    assert str(TRIVIAL_GROUP) == "0"
    assert str(FgAbelianGroup(1)) == "Z"
    assert str(FgAbelianGroup(2, (2, 2))) == "Z^2 + (Z/2)^2"
    assert str(FgAbelianGroup(0, (2, 4))) == "Z/2 + Z/4"


def test_group_of_presentation():
    pres = AbelianPresentation(2, ((2, 0), (0, 3)))
    assert group_of(pres) == FgAbelianGroup(0, (6,))
    assert group_of(AbelianPresentation(0, ())) == TRIVIAL_GROUP
    assert group_of(AbelianPresentation(2, ())) == FgAbelianGroup(2)


def test_cokernel_zero_into_z2():
    f = zero_map(presentation_of_sum([TRIVIAL_GROUP]), presentation_of_sum([FgAbelianGroup(2)]))
    assert cokernel(f) == FgAbelianGroup(2)
    assert kernel(f) == TRIVIAL_GROUP


def test_cokernel_split_injection_of_z2():
    source = presentation_of_sum([FgAbelianGroup(0, (2,))])
    target = presentation_of_sum([FgAbelianGroup(0, (2, 2)), FgAbelianGroup(0, (2, 2, 2))])
    f = AbelianMap(source, target, ((1,), (0,), (0,), (0,), (0,)))
    assert cokernel(f) == FgAbelianGroup(0, (2, 2, 2, 2))
    assert kernel(f) == TRIVIAL_GROUP


def test_cokernel_cited_column():
    source = presentation_of_sum([FgAbelianGroup(1)])
    target = presentation_of_sum([FgAbelianGroup(1, (2,)), FgAbelianGroup(2, (2,))])
    f = AbelianMap(source, target, ((0,), (0,), (1,), (1,), (0,)))
    assert cokernel(f) == FgAbelianGroup(2, (2, 2))
    assert kernel(f) == TRIVIAL_GROUP


def test_cokernel_swap_invariance():
    # either choice of free summand receiving the identity gives the same value
    source = presentation_of_sum([FgAbelianGroup(1)])
    target = presentation_of_sum([FgAbelianGroup(1, (2,)), FgAbelianGroup(2, (2,))])
    for col in (((0,), (0,), (1,), (1,), (0,)), ((0,), (0,), (1,), (0,), (1,))):
        f = AbelianMap(source, target, col)
        assert cokernel(f) == FgAbelianGroup(2, (2, 2))


def test_cokernel_identity_and_kernel_zero_map():
    g = FgAbelianGroup(1, (2, 4))
    pres = presentation_of_sum([g])
    ident = AbelianMap(pres, pres, tuple(tuple(1 if i == j else 0 for j in range(pres.ngens))
                                         for i in range(pres.ngens)))
    assert cokernel(ident) == TRIVIAL_GROUP
    assert kernel(ident) == TRIVIAL_GROUP
    z = zero_map(pres, pres)
    assert kernel(z) == g
    assert cokernel(z) == g


def test_ill_formed_map_rejected():
    # Z/2 -> Z by 1 is not well defined
    source = presentation_of_sum([FgAbelianGroup(0, (2,))])
    target = presentation_of_sum([FgAbelianGroup(1)])
    with pytest.raises(IllFormedMap):
        AbelianMap(source, target, ((1,),))
    with pytest.raises(IllFormedMap):
        AbelianMap(source, target, ((1, 2),))


def _random_finite_map(rng):
    """A well-defined map between random finite abelian groups of order <= 64."""
    def random_group():
        divisors = []
        order = 1
        while True:
            d = rng.choice([2, 2, 3, 4, 5, 8, 9])
            if order * d > 64 or (divisors and rng.random() < 0.4):
                break
            divisors.append(d)
            order *= d
        return FgAbelianGroup.from_divisors(0, divisors)

    src = random_group()
    tgt = random_group()
    import math
    matrix = []
    for e in tgt.torsion:
        row = []
        for d in src.torsion:
            step = e // math.gcd(d, e)
            row.append(step * rng.randint(0, max(1, e // step) - 1) if e else 0)
        matrix.append(tuple(row))
    return src, tgt, AbelianMap(presentation_of_sum([src]), presentation_of_sum([tgt]), tuple(matrix))


def _brute_force_counts(src, tgt, f):
    import itertools
    source_elems = itertools.product(*[range(d) for d in src.torsion])
    kernel_size = 0
    image = set()
    for x in source_elems:
        y = tuple(v % e for v, e in zip(mat_vec(f.matrix, list(x)), tgt.torsion))
        image.add(y)
        if all(v == 0 for v in y):
            kernel_size += 1
    return kernel_size, len(image)


def test_kernel_image_counts_against_brute_force():
    # acceptance: |kernel| * |image| = |source| on finite groups of order <= 64
    rng = random.Random(991)
    for _ in range(60):
        src, tgt, f = _random_finite_map(rng)
        want_ker, want_im = _brute_force_counts(src, tgt, f)
        assert want_ker * want_im == src.order
        got_ker = kernel(f).order
        got_coker = cokernel(f).order
        assert got_ker == want_ker
        assert tgt.order // got_coker == want_im


def test_direct_sum():
    a = FgAbelianGroup(1, (2,))
    b = FgAbelianGroup(2, (2, 6))
    assert a.direct_sum(b) == FgAbelianGroup(3, (2, 2, 6))


def test_kernel_with_free_source():
    # Z^2 -> Z by (x, y) -> x + y has kernel Z
    free2 = presentation_of_sum([FgAbelianGroup(2)])
    free1 = presentation_of_sum([FgAbelianGroup(1)])
    f = AbelianMap(free2, free1, ((1, 1),))
    assert kernel(f) == FgAbelianGroup(1)
    assert cokernel(f) == TRIVIAL_GROUP
    # Z -> Z^2 diagonally is injective with cokernel Z
    g = AbelianMap(free1, free2, ((1,), (1,)))
    assert kernel(g) == TRIVIAL_GROUP
    assert cokernel(g) == FgAbelianGroup(1)


def test_kernel_mixed_free_and_torsion():
    # Z -> Z/4 by 1 has kernel 4Z inside Z, i.e. Z again
    free1 = presentation_of_sum([FgAbelianGroup(1)])
    z4 = presentation_of_sum([FgAbelianGroup(0, (4,))])
    f = AbelianMap(free1, z4, ((1,),))
    assert kernel(f) == FgAbelianGroup(1)
    assert cokernel(f) == TRIVIAL_GROUP
    # Z/4 -> Z/2 surjection has kernel Z/2
    z2 = presentation_of_sum([FgAbelianGroup(0, (2,))])
    g = AbelianMap(z4, z2, ((1,),))
    assert kernel(g) == FgAbelianGroup(0, (2,))
    assert cokernel(g) == TRIVIAL_GROUP


def test_kernel_rank_on_free_maps_matches_snf_rank():
    rng = random.Random(4242)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        f = AbelianMap(presentation_of_sum([FgAbelianGroup(m)]),
                       presentation_of_sum([FgAbelianGroup(n)]),
                       tuple(tuple(r) for r in mat))
        r = smith_normal_form(mat).rank
        ker = kernel(f)
        coker = cokernel(f)
        assert ker.free_rank == m - r
        assert ker.torsion == ()
        assert coker.free_rank == n - r


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
def test_multiplication_map_on_cyclic_group(n, k):
    # multiplication by k on Z/n: kernel and cokernel both Z/gcd(n, k)
    import math as m

    pres = presentation_of_sum([FgAbelianGroup.from_divisors(0, [n])])
    if pres.ngens == 0:
        return
    f = AbelianMap(pres, pres, ((k,),))
    g = m.gcd(n, k)
    want = FgAbelianGroup.from_divisors(0, [g])
    assert kernel(f) == want
    assert cokernel(f) == want


# ---------------------------------------------------------------------------
# the earlier prime-power canonicalization and per-relation lattice solve,
# kept as oracles for the gcd/lcm exchange and the single Smith-form solve
# ---------------------------------------------------------------------------

def _prime_power_divisors(free_rank, divisors):
    exponents = {}
    for d in divisors:
        d = abs(d)
        if d == 0:
            free_rank += 1
            continue
        for p, e in prime_factors(d).items():
            exponents.setdefault(p, []).append(e)
    for p in exponents:
        exponents[p].sort(reverse=True)
    depth = max((len(v) for v in exponents.values()), default=0)
    factors = []
    for k in range(depth):
        f = 1
        for p, es in exponents.items():
            if k < len(es):
                f *= p ** es[k]
        factors.append(f)
    return FgAbelianGroup(free_rank, tuple(reversed(factors)))


def _solve_lattice(cols, v):
    """Integer coefficients z with sum_j z_j * cols[j] = v, or None."""
    n = len(v)
    if not cols:
        return [] if all(x == 0 for x in v) else None
    mat = [[col[i] for col in cols] for i in range(n)]
    s = smith_normal_form(mat, cols=len(cols))
    w = mat_vec(s.u, v)
    diag = s.diagonal
    y = [0] * len(cols)
    for i in range(n):
        di = diag[i] if i < len(diag) else 0
        if di:
            if w[i] % di:
                return None
            y[i] = w[i] // di
        elif w[i]:
            return None
    return mat_vec(s.v, y)


_LARGE_PRIMES = (10007, 10009, 65521, 65537)
_divisor = st.one_of(
    st.integers(min_value=-64, max_value=64),
    st.sampled_from((0, 1)),
    st.tuples(st.sampled_from(_LARGE_PRIMES), st.sampled_from(_LARGE_PRIMES),
              st.integers(min_value=1, max_value=12)).map(lambda t: t[0] * t[1] * t[2]),
)


@given(st.lists(_divisor, max_size=8), st.integers(min_value=0, max_value=3))
def test_from_divisors_matches_prime_power_oracle(divisors, rank):
    assert FgAbelianGroup.from_divisors(rank, divisors) == _prime_power_divisors(rank, divisors)


def test_from_divisors_refuses_non_integers():
    for bad in (2.5, 2.0, True, "2", None):
        with pytest.raises(ValueError):
            FgAbelianGroup.from_divisors(0, [4, bad])


_small = st.integers(min_value=-3, max_value=3)


@st.composite
def _maps(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    m = draw(st.integers(min_value=0, max_value=3))
    vec = lambda k: tuple(draw(st.lists(_small, min_size=k, max_size=k)))
    target = AbelianPresentation(n, tuple(vec(n) for _ in range(draw(st.integers(0, 3)))))
    source = AbelianPresentation(m, tuple(vec(m) for _ in range(draw(st.integers(0, 3)))))
    return source, target, tuple(vec(m) for _ in range(n))


@given(_maps())
def test_check_well_defined_matches_per_relation_oracle(parts):
    source, target, matrix = parts
    target_rels = [list(r) for r in target.relations]
    want = True
    for rel in source.relations:
        img = [sum(row[j] * rel[j] for j in range(len(rel))) for row in matrix]
        z = _solve_lattice(target_rels, img)
        if z is None:
            want = False
        else:
            assert [sum(c * col[i] for c, col in zip(z, target_rels)) for i in range(len(img))] == img
    try:
        AbelianMap(source, target, matrix)
        got = True
    except IllFormedMap:
        got = False
    assert got == want


def test_kernel_and_cokernel_with_no_generators():
    z_2_4 = FgAbelianGroup(1, (2, 4))
    source = presentation_of_sum([z_2_4])
    empty = AbelianPresentation(0, ((), ()))    # no generators, two length-0 relations
    into_nothing = AbelianMap(source, empty, ())
    assert kernel(into_nothing) == z_2_4
    assert cokernel(into_nothing) == TRIVIAL_GROUP
    target = presentation_of_sum([FgAbelianGroup(1, (6,))])
    from_nothing = AbelianMap(empty, target, ((),) * target.ngens)
    assert kernel(from_nothing) == TRIVIAL_GROUP
    assert cokernel(from_nothing) == FgAbelianGroup(1, (6,))
    nothing = AbelianMap(empty, AbelianPresentation(0), ())
    assert kernel(nothing) == TRIVIAL_GROUP
    assert cokernel(nothing) == TRIVIAL_GROUP
    assert group_of(empty) == TRIVIAL_GROUP


def test_kernel_when_no_solution_meets_the_source():
    # Z -> Z (a zero relation) by 1: every solution of x + 0*y = 0 has x = 0
    f = AbelianMap(AbelianPresentation(1), AbelianPresentation(1, ((0,),)), ((1,),))
    assert kernel(f) == TRIVIAL_GROUP
    assert cokernel(f) == TRIVIAL_GROUP


ROOT = Path(__file__).resolve().parent.parent
_DENSE_24 = """
import random
from lowerk.abelian import AbelianMap, AbelianPresentation, FgAbelianGroup, cokernel, kernel
rng = random.Random("dense-24")
mat = [[rng.randint(-9, 9) for _ in range(24)] for _ in range(24)]
f = AbelianMap(AbelianPresentation(24), AbelianPresentation(24), tuple(map(tuple, mat)))
assert kernel(f) == FgAbelianGroup()
print(cokernel(f).order)
"""


def test_dense_24x24_kernel_and_cokernel_finish():
    # a full-rank square map has a cokernel of order |det|, here about 2 * 10^29
    rng = random.Random("dense-24")
    det = abs(determinant([[rng.randint(-9, 9) for _ in range(24)] for _ in range(24)]))
    assert det
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _DENSE_24], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{det}\n"


# ---------------------------------------------------------------------------
# the earlier lattice path, every elimination carrying all four transforms,
# kept as an oracle for the elimination that carries only what is read
# ---------------------------------------------------------------------------

def _seed_smith_normal_form(mat, cols=None):
    r = len(mat)
    c = len(mat[0]) if r else (cols or 0)
    a = [list(map(int, row)) for row in mat]
    eye = lambda n: [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    u, ui = eye(r), eye(r)
    v, vi = eye(c), eye(c)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for row in ui:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for row in ui:
            row[i] = -row[i]

    def row_add(i, t, q):
        a[i] = [x + q * y for x, y in zip(a[i], a[t])]
        u[i] = [x + q * y for x, y in zip(u[i], u[t])]
        for row in ui:
            row[t] -= q * row[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vi[i], vi[j] = vi[j], vi[i]

    def col_add(j, t, q):
        for row in a:
            row[j] += q * row[t]
        for row in v:
            row[j] += q * row[t]
        vi[t] = [x - q * y for x, y in zip(vi[t], vi[j])]

    t = 0
    while t < min(r, c):
        pivot = best = None
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
        offender = next((i for i in range(t + 1, r) for j in range(t + 1, c)
                         if a[i][j] % a[t][t]), None)
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1
    return SmithForm(u, a, v, ui, vi)


def _seed_smith_solve(s, vec):
    diag = s.diagonal
    y = [0] * len(s.v)
    for i, w in enumerate(mat_vec(s.u, vec)):
        di = diag[i] if i < len(diag) else 0
        if di:
            if w % di:
                return None
            y[i] = w // di
        elif w:
            return None
    return y


def _seed_group_of(pres):
    mat = [[rel[i] for rel in pres.relations] for i in range(pres.ngens)]
    diag = _seed_smith_normal_form(mat, cols=len(pres.relations)).diagonal
    return FgAbelianGroup.from_divisors(pres.ngens - len(diag), diag)


def _seed_cokernel(f):
    images = tuple(zip(*f.matrix))
    return _seed_group_of(AbelianPresentation(f.target.ngens, images + f.target.relations))


def _seed_kernel(f):
    m = f.source.ngens
    rels = f.target.relations
    q = m + len(rels)
    g = [list(row) + [rel[i] for rel in rels] for i, row in enumerate(f.matrix)]
    s = _seed_smith_normal_form(g, cols=q)
    proj = [row[s.rank:] for row in s.v[:m]]
    sp = _seed_smith_normal_form(proj, cols=q - s.rank)
    coeff_cols = []
    for rel in f.source.relations:
        y = _seed_smith_solve(sp, list(rel))
        assert y is not None
        coeff_cols.append(tuple(y[:sp.rank]))
    return _seed_group_of(AbelianPresentation(sp.rank, tuple(coeff_cols)))


def _assert_matches_seed(f):
    assert group_of(f.source) == _seed_group_of(f.source)
    assert group_of(f.target) == _seed_group_of(f.target)
    assert cokernel(f) == _seed_cokernel(f)
    assert kernel(f) == _seed_kernel(f)


@st.composite
def _well_defined_maps(draw):
    """A map M with arbitrary source relations S: the target relations are
    arbitrary vectors plus M s + R w for each s in S, and M is shifted by
    target relations, so both sides have free parts, torsion and relations
    that are not diagonal."""
    m = draw(st.integers(min_value=0, max_value=4))
    n = draw(st.integers(min_value=0, max_value=4))
    vec = lambda k, lo=-4, hi=4: [draw(st.integers(lo, hi)) for _ in range(k)]
    src_rels = [vec(m) for _ in range(draw(st.integers(0, 3)))]
    base = [vec(n) for _ in range(draw(st.integers(0, 3)))]
    matrix = [vec(m) for _ in range(n)]
    for rel in base:
        c = vec(m, -2, 2)
        for i in range(n):
            for j in range(m):
                matrix[i][j] += rel[i] * c[j]
    tgt_rels = list(base)
    for s in src_rels:
        w = vec(len(base), -2, 2)
        tgt_rels.append([sum(matrix[i][j] * s[j] for j in range(m))
                         + sum(wk * rel[i] for wk, rel in zip(w, base)) for i in range(n)])
    source = AbelianPresentation(m, tuple(map(tuple, src_rels)))
    target = AbelianPresentation(n, tuple(map(tuple, draw(st.permutations(tgt_rels)))))
    return AbelianMap(source, target, tuple(map(tuple, matrix)))


@given(_well_defined_maps())
def test_lattice_path_matches_seed_oracle(f):
    _assert_matches_seed(f)


def test_lattice_path_matches_seed_oracle_on_finite_maps():
    rng = random.Random(7)
    for _ in range(40):
        _assert_matches_seed(_random_finite_map(rng)[2])


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6), st.data())
def test_snf_matches_seed_oracle(r, c, data):
    mat = [[data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(c)]
           for _ in range(r)]
    assert smith_normal_form(mat, cols=c) == _seed_smith_normal_form(mat, cols=c)


def _b3_degree_maps():
    spec = assembly_spec_from_json(bundled_spec_json("b3rp2"))
    # a map into the trivial group is None: zero, and built from no vector
    return [f for f in (_degree_map(spec, deg) for deg in DEGREES) if f is not None]


def test_lattice_path_runs_without_the_full_smith_form(monkeypatch):
    # group_of, cokernel, kernel and building a map read at most one
    # transform each; none of them may pay for the four-transform form
    rng = random.Random("dense-12")
    dense = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
    assert smith_normal_form(dense) == _seed_smith_normal_form(dense)
    maps = [(AbelianPresentation(12), AbelianPresentation(12), tuple(map(tuple, dense)))]
    maps += [(f.source, f.target, f.matrix) for f in _b3_degree_maps()]

    def refuse(*args, **kwargs):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(abelian, "smith_normal_form", refuse)
    for source, target, matrix in maps:
        f = AbelianMap(source, target, matrix)
        _assert_matches_seed(f)
    with pytest.raises(IllFormedMap):
        AbelianMap(presentation_of_sum([FgAbelianGroup(0, (2,))]),
                   presentation_of_sum([FgAbelianGroup(1)]), ((1,),))
