import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

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


@pytest.mark.parametrize("bad", [2.5, True, "3"])
def test_snf_refuses_an_entry_that_is_not_an_int(bad):
    # int() would floor 2.5, count True as 1 and read "3" as 3
    with pytest.raises(ValueError, match="not an int"):
        smith_normal_form([[bad]])


@pytest.mark.parametrize("mat, cols", [([[1, 2]], 5), ([[1, 2]], 0), ([[], []], 1),
                                       ([], -1), ([], 2.0), ([[1]], True)])
def test_snf_refuses_a_cols_that_disagrees_with_the_rows(mat, cols):
    # cols only fixes the width of a matrix with no rows; given with rows it
    # must be their length, and it is never coerced
    with pytest.raises(ValueError, match="cols"):
        smith_normal_form(mat, cols=cols)
    assert smith_normal_form([[1, 2]], cols=2).diagonal == [1]


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


@pytest.mark.parametrize("rank,torsion", [
    (1.5, ()), (0, (2.0,)), (True, ()), (0, (True,)), (0, (2, 4.0)), ("1", ()),
])
def test_fg_abelian_group_refuses_a_rank_or_coefficient_that_is_not_an_int(rank, torsion):
    # Z^1.5 and Z/2.0 printed, and Z/2.0 compared equal to Z/2
    with pytest.raises(ValueError, match="is not an int"):
        FgAbelianGroup(rank, torsion)


def test_fg_abelian_group_stores_its_torsion_as_a_tuple():
    # equal values are isomorphic groups, however the torsion was passed
    g = FgAbelianGroup(0, [2, 4])
    assert g.torsion == (2, 4) and g == FgAbelianGroup(0, (2, 4))
    assert FgAbelianGroup(1, iter([3])) == FgAbelianGroup(1, (3,))


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


def _with_target_relations(matrix, rels, source_rels=()):
    m = len(matrix[0]) if matrix else 0
    return AbelianMap(AbelianPresentation(m, source_rels), AbelianPresentation(len(matrix), rels),
                      tuple(map(tuple, matrix)))


# target relations (2, 0), (4, 0), (0, 3) span 2Z + 3Z: rank R_T is 2, not 3
_DEPENDENT = ((2, 0), (4, 0), (0, 3))
_DEPENDENT_TARGET_MAPS = [
    # images (2, 0) and (0, 3) lie in the span of R_T, and (1, 1) meets it in 6Z(1, 1)
    _with_target_relations([[2, 0, 1], [0, 3, 1]], _DEPENDENT),
    _with_target_relations([[0], [0]], _DEPENDENT),
    _with_target_relations([[1, 2, 4], [0, 0, 3]], _DEPENDENT),
    # a zero relation and a repeated one: rank R_T is 1 of 3
    _with_target_relations([[1, 3], [0, 1]], ((0, 0), (2, 0), (2, 0))),
    # relations spanning all of Z^2: every source vector is in the kernel
    _with_target_relations([[5, 7], [1, -2]], ((1, 0), (0, 1), (1, 1))),
    # a source with relations: Z/2 into the same target by (1, 0)
    _with_target_relations([[1], [0]], _DEPENDENT, ((2,),)),
]


def test_free_source_kernel_rank_with_dependent_target_relations():
    # the kernel of a map from Z^m is free of rank m - rank [M | R_T] + rank R_T;
    # counting R_T's rank as len(rels) would give a larger kernel on every
    # map here with a free source
    for f in _DEPENDENT_TARGET_MAPS:
        assert kernel(f) == _seed_kernel(f)
        assert cokernel(f) == _seed_cokernel(f)
    assert [kernel(f) for f in _DEPENDENT_TARGET_MAPS] == [
        FgAbelianGroup(3), FgAbelianGroup(1), FgAbelianGroup(3), FgAbelianGroup(1),
        FgAbelianGroup(2), TRIVIAL_GROUP]


@given(_well_defined_maps())
@example(_DEPENDENT_TARGET_MAPS[0])
@example(_DEPENDENT_TARGET_MAPS[3])
@example(_DEPENDENT_TARGET_MAPS[4])
@example(_DEPENDENT_TARGET_MAPS[5])
# a zero and a repeated source relation: kernel 0, cokernel Z/2
@example(_with_target_relations([[2, 0], [0, 1]], ((4, 0),), ((0, 0), (2, 0), (2, 0))))
# Z/2 into a target with no relations: kernel Z/2, cokernel Z
@example(_with_target_relations([[0]], (), ((2,),)))
# Z/4 onto Z/2: kernel Z/2, cokernel 0
@example(_with_target_relations([[1]], ((2,),), ((4,),)))
def test_lattice_path_matches_seed_oracle(f):
    _assert_matches_seed(f)


def test_lattice_path_matches_seed_oracle_on_finite_maps():
    rng = random.Random(7)
    for _ in range(40):
        _assert_matches_seed(_random_finite_map(rng)[2])


@st.composite
def _snf_matrices(draw):
    """Shapes 0 to 8 each way, so tall, wide and square; dense, sparse or of
    low rank, a product of r x k and k x c factors with k <= min(r, c)."""
    r, c = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["dense", "sparse", "low rank"]))
    entry = lambda: draw(st.integers(-9, 9))
    if kind == "low rank":
        k = draw(st.integers(0, min(r, c)))
        left = [[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(r)]
        right = [[draw(st.integers(-3, 3)) for _ in range(c)] for _ in range(k)]
        return [[sum(left[i][l] * right[l][j] for l in range(k)) for j in range(c)]
                for i in range(r)], c
    sparse = kind == "sparse"
    return [[0 if sparse and draw(st.integers(0, 3)) else entry() for _ in range(c)]
            for _ in range(r)], c


@given(_snf_matrices())
@example(([], 3))
@example(([[], []], 0))
@example(([[0] * 3 for _ in range(5)], 3))
@example(([[2, 0], [0, 3]], 2))      # pivots 2 and 3, Smith diagonal 1 and 6
def test_snf_matches_seed_oracle(case):
    # transforms are not unique, so the seed's are not pinned: d is, and
    # the new transforms must satisfy every postcondition on their own
    mat, c = case
    assert snf_postconditions(mat, cols=c).d == _seed_smith_normal_form(mat, cols=c).d


@pytest.mark.parametrize("mat, u, d, v, u_inv, v_inv", [
    # the column phase moves the pivot from 6 to the remainder -2, then to
    # 1, so v_inv rows 0 and 1 are each summed into before they are read
    ([[6, 10, 15]], [[1]], [[1, 0, 0]], [[1, -5, 0], [-2, 3, -3], [1, 0, 2]], [[1]],
     [[6, 10, 15], [1, 2, 3], [-3, -5, -7]]),
    # wide, of rank 2: the kernel columns of v are never pivots
    ([[2, 4, 6, 8, 10], [1, 3, 5, 7, 9], [3, 7, 11, 15, 19]],
     [[0, 1, 0], [-1, 2, 0], [-1, -1, 1]],
     [[1, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 0, 0, 0]],
     [[1, -3, 1, 2, 3], [0, 1, -2, -3, -4], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
     [[2, -1, 0], [1, 0, 0], [3, -1, 1]],
     [[1, 3, 5, 7, 9], [0, 1, 2, 3, 4], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]),
    # tall: solved as its transpose, with the transforms swapped back
    ([[3, 5], [7, 2], [-4, 6], [0, 9], [8, -1]],
     [[0, 0, 0, 0, 1], [1, 2, -2, 0, -3], [-1, -23, 13, 0, 27], [2, 2, -3, 0, -4],
      [-1, -7, 3, 1, 8]],
     [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]],
     [[0, 1], [-1, 8]],
     [[-5, 43, 2, -20, 0], [-2, 23, 1, -11, 0], [-6, 44, 2, -21, 0], [-9, 72, 3, -34, 1],
      [1, 0, 0, 0, 0]],
     [[8, -1], [1, 0]]),
    # pivot 2 misses the 3 below it: the fix-up adds row 1 to row 0, and
    # the u_inv row it changed is read by the next row operation
    ([[2, 0], [0, 3]], [[-1, -1], [3, 4]], [[1, 0], [0, 6]], [[-2, -3], [1, 2]],
     [[-4, -1], [3, 1]], [[-2, -3], [1, 2]]),
])
def test_snf_transforms_are_pinned(mat, u, d, v, u_inv, v_inv):
    # the transforms are not unique, but the order of the operations fixes
    # them.  Pinned from a Smith form that zipped every transform row in
    # full, so reading a unit row as its one entry, and building v from the
    # log, must change no entry
    assert snf_postconditions(mat) == SmithForm(u, d, v, u_inv, v_inv)


def _b3_degree_maps():
    spec = assembly_spec_from_json(bundled_spec_json("b3rp2"))
    # a map into the trivial group is None: zero, and built from no vector
    return [f for f in (_degree_map(spec, deg) for deg in DEGREES) if f is not None]


def test_lattice_path_runs_without_the_full_smith_form(monkeypatch):
    # group_of, cokernel, kernel and building a map read at most one
    # transform each; none of them may pay for the four-transform form
    rng = random.Random("dense-12")
    dense = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
    assert snf_postconditions(dense).d == _seed_smith_normal_form(dense).d
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


def _record_eliminations(monkeypatch):
    """Each matrix _eliminate is given, copied before it is eliminated,
    with the names of the transforms it carries."""
    calls = []
    real = abelian._eliminate

    def recorded(a, **transforms):
        calls.append(([list(row) for row in a],
                      sorted(k for k, t in transforms.items() if t is not None)))
        return real(a, **transforms)

    monkeypatch.setattr(abelian, "_eliminate", recorded)
    return calls


def _m_beside_rt(f):
    rels = f.target.relations
    return [list(row) + [rel[i] for rel in rels] for i, row in enumerate(f.matrix)]


def test_kernel_and_cokernel_eliminate_m_beside_rt_once(monkeypatch):
    calls = _record_eliminations(monkeypatch)
    target = presentation_of_sum([FgAbelianGroup(1, (2, 4))])
    free = (AbelianPresentation(3), target, ((1, 2, 0), (3, 1, 1), (0, 4, 2)))
    for first, second in ((kernel, cokernel), (cokernel, kernel)):
        calls.clear()
        f = AbelianMap(*free)
        g = _m_beside_rt(f)
        assert all(mat != g for mat, _ in calls)    # building a map eliminates R_T alone
        assert calls == []      # and a free source has no relation to check against R_T
        calls.clear()
        got = {first: first(f)}
        got[second] = second(f)
        assert got == {kernel: _seed_kernel(f), cokernel: _seed_cokernel(f)}
        # a free source's kernel reads the shared diagonal, with no transform
        # and no projected lattice
        assert [mat for mat, _ in calls].count(g) == 1
        assert all(not transforms for _, transforms in calls)

    # Z/2 + Z into Z/4 + Z: building the map eliminates R_T once, carrying
    # u to lift the source relation; kernel and cokernel then eliminate
    # [M | R_T] once between them, carry no transform and leave R_T alone
    source = presentation_of_sum([FgAbelianGroup(1, (2,))])
    calls.clear()
    f = AbelianMap(source, presentation_of_sum([FgAbelianGroup(1, (4,))]), ((2, 1), (0, 3)))
    g = _m_beside_rt(f)
    rt = [[rel[i] for rel in f.target.relations] for i in range(f.target.ngens)]
    assert calls == [(rt, ["u"])]
    calls.clear()
    assert kernel(f) == _seed_kernel(f)
    done = len(calls)
    assert cokernel(f) == _seed_cokernel(f)
    assert len(calls) == done
    assert [mat for mat, _ in calls].count(g) == 1
    assert all(not transforms for _, transforms in calls)
    assert rt not in [mat for mat, _ in calls]


# ---------------------------------------------------------------------------
# the library's elimination: a diagonal form whose pivots need not divide
# one another, against the seed's Smith form
# ---------------------------------------------------------------------------

def _check_eliminated(mat, cols):
    """_eliminate gives rank-many positive pivots presenting the seed's
    group; with u, u is unimodular and u * mat has the diagonal form's
    rows: row k divisible by pivot k, and zero past the rank."""
    want = [x for x in _seed_smith_normal_form(mat, cols=cols).diagonal if x]
    diag = abelian._eliminate([list(row) for row in mat])
    assert len(diag) == len(want) and all(d > 0 for d in diag)
    assert (FgAbelianGroup.from_divisors(cols - len(diag), diag)
            == FgAbelianGroup.from_divisors(cols - len(want), want))
    u = abelian.eye(len(mat))
    assert abelian._eliminate([list(row) for row in mat], u=u) == diag
    assert determinant(u) in (1, -1)
    ua = mat_mul(u, [list(row) for row in mat])
    assert not any(any(row) for row in ua[len(diag):])
    assert all(x % d == 0 for row, d in zip(ua, diag) for x in row)


@st.composite
def _eliminated_matrices(draw):
    """Shapes 0 to 9, sparse or dense, entries up to 10^6 in size, with
    some rows and columns zeroed."""
    r, c = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    bound = draw(st.sampled_from([1, 9, 10 ** 6]))
    sparse = draw(st.booleans())
    zero_rows = draw(st.sets(st.integers(0, 8), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 8), max_size=2))
    entry = lambda i, j: (0 if i in zero_rows or j in zero_cols
                          or (sparse and draw(st.integers(0, 3))) else draw(st.integers(-bound, bound)))
    return [[entry(i, j) for j in range(c)] for i in range(r)], c


@given(_eliminated_matrices())
@example(([], 0))
@example(([[], []], 0))
@example(([[0, 0], [0, 0]], 2))
@example(([[2, 0], [0, 3]], 2))      # pivots 2 and 3, invariant factors 1 and 6
@example(([[6, 4], [4, 6]], 2))
def test_eliminate_gives_a_diagonal_form_of_the_seed_group(case):
    _check_eliminated(*case)


@pytest.mark.parametrize("rows, cols", [(16, 32), (32, 16), (24, 24)])
def test_eliminate_on_large_dense_draws(rows, cols):
    rng = random.Random(f"eliminate-{rows}x{cols}")
    _check_eliminated([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols)


def test_eliminate_row_operation_count(monkeypatch):
    # each row operation zips two rows; none is a column operation, and a
    # dropped pivot column narrows every later one.  The seed's elimination
    # made 170 row operations over 2040 entries here, and a column sweep
    # after each pivot.
    rng = random.Random("dense-12")
    dense = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
    ops = []

    def counting_zip(row, pivot_row):
        ops.append(len(row))
        return zip(row, pivot_row)

    monkeypatch.setattr(abelian, "zip", counting_zip, raising=False)
    diag = abelian._eliminate(dense)
    assert diag == [1] * 10 + [3, 575770694972]
    assert (len(ops), sum(ops)) == (172, 1092)


@pytest.mark.parametrize("rows, cols, ops_entries, bits", [
    (16, 32, (1214, 27746), 205),
    (32, 16, (1147, 26159), 268),
])
def test_snf_row_operation_count(monkeypatch, rows, cols, ops_entries, bits):
    # a tall map is eliminated as its transpose, so the two shapes cost
    # about the same.  Every row operation zips a row of a and a row of u.
    # A row of u_inv (kept transposed), of v_inv or of v is zipped only when
    # it is no longer a unit vector; otherwise it is read as its one entry.
    # On the wide draw that is 335 row operations (670 zips) and 208 full
    # u_inv rows; of the 535 column operations, 50 read a v_inv row and 286
    # a v row in full.  The seed's Smith form made 299 row additions and
    # 1316 column operations, each walking all 48 rows of a and v, on the
    # wide draw; 1293 and 281 on the tall one; and its largest transform
    # entries had 300 and 205 bits.
    rng = random.Random(f"snf-{rows}x{cols}")
    dense = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    ops = []

    def counting_zip(*args):
        if len(args) == 2:      # a row update; a transpose zips every row
            ops.append(len(args[0]))
        return zip(*args)

    monkeypatch.setattr(abelian, "zip", counting_zip, raising=False)
    s = smith_normal_form(dense)
    monkeypatch.undo()
    assert (len(ops), sum(ops)) == ops_entries
    assert max(abs(x).bit_length() for m in (s.u, s.d, s.v, s.u_inv, s.v_inv)
               for row in m for x in row) == bits
    assert snf_postconditions(dense).d == _seed_smith_normal_form(dense).d
