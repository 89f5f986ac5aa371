"""Output checks for every benchmark op.

Each check recomputes what it can without the code path under test: closed
forms for class numbers and representation counts, its own coset tracing,
its own normal-form evaluator for the amalgam, and its own lattice
arithmetic (rank, determinant, diagonalization).  Checks compare semantic
values (numbers, groups as invariant factors, elements as normal forms),
never rendered tables, so a report that gains a row still passes.

``check`` returns None for a good output and a one-line reason otherwise.
The CLI checks at the bottom need nothing but the JSON a command printed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# number theory
# ---------------------------------------------------------------------------


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def mult_order(p: int, m: int) -> int:
    """Order of p in (Z/m)*; 1 for m = 1."""
    if m == 1:
        return 1
    k, x = 1, p % m
    while x != 1:
        x = x * p % m
        k += 1
    return k


def prime_part_free(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


def primes_of(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def partitions(n: int, banned: int = 0) -> int:
    """Partitions of n, omitting parts divisible by `banned` when nonzero."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        if banned and part % banned == 0:
            continue
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


# ---------------------------------------------------------------------------
# groups: closed forms
# ---------------------------------------------------------------------------

def closed_form(name: str) -> dict:
    """Order, class number and r_Q of a named group; for cyclic and
    symmetric groups also r_{Q_p}, r_{F_p} per prime and Carter's rank."""
    if name == "binary-octahedral":
        return {"order": 48, "classes": 8, "r_Q": 7, "carter_rank": 1}   # K_-1 = Z + Z/2 (GJM 2018)
    if name == "binary-tetrahedral":
        return {"order": 24, "classes": 7, "r_Q": 5}
    family, _, arg = name.partition(":")
    n = int(arg)
    if family == "cyclic":
        # characters of order d are permuted by the Galois group of Q_p(zeta_d):
        # all units at the p-part, Frobenius <p> on the prime-to-p part m
        per_prime = {}
        for p in primes_of(n):
            m_of = [prime_part_free(d, p) for d in divisors(n)]
            r_qp = sum(phi(m) // mult_order(p, m) for m in m_of)
            r_fp = sum(phi(d) // mult_order(p, d) for d in divisors(prime_part_free(n, p)))
            per_prime[p] = (r_qp, r_fp)
        tau = len(divisors(n))
        rank = 1 - tau + sum(a - b for a, b in per_prime.values())
        return {"order": n, "classes": n, "r_Q": tau, "per_prime": per_prime, "carter_rank": rank}
    if family == "dihedral":        # order 2n
        return {"order": 2 * n, "classes": (n + 3) // 2 if n % 2 else n // 2 + 3,
                "r_Q": len(divisors(n)) + (1 if n % 2 else 2)}
    if family in ("dicyclic", "quaternion"):   # order 4m
        m = n // 4
        return {"order": n, "classes": m + 3, "r_Q": len(divisors(2 * m)) + (1 if m % 2 else 2)}
    if family == "symmetric":       # every representation is rational; F_p splits
        order = math.factorial(n)
        pn = partitions(n)
        per_prime = {p: (pn, partitions(n, p)) for p in primes_of(order)}
        rank = 1 - pn + sum(a - b for a, b in per_prime.values())
        return {"order": order, "classes": pn, "r_Q": pn, "per_prime": per_prime,
                "carter_rank": rank}
    raise ValueError(f"no closed form for {name}")


def check_ksheet(out: dict) -> str | None:
    expect = closed_form(out["group"])
    classes = out["classes"]
    members = sorted(g for cls in classes for g in cls)
    if members != list(range(out["order"])):
        return "conjugacy classes do not partition the group (class equation fails)"
    got = {"order": out["order"], "classes": len(classes), "r_Q": out["r_Q"],
           "per_prime": out["per_prime"], "carter_rank": out["carter_rank"]}
    for key, value in expect.items():
        if got[key] != value:
            return f"{out['group']}: {key} is {got[key]}, expected {value}"
    stages = 1 - out["r_Q"] + sum(a - b for a, b in out["per_prime"].values())
    if stages != out["carter_rank"]:
        return f"carter_rank {out['carter_rank']} disagrees with its stages ({stages})"
    return None


def check_coset_table(ct, pres, index: int) -> str | None:
    if ct.index != index:
        return f"coset enumeration closed at index {ct.index}, expected {index}"
    gens = list(pres.generators)
    rows = ct.table       # column 2k: generator k, column 2k+1: its inverse
    for c, row in enumerate(rows):
        for x, d in enumerate(row):
            if rows[d][x ^ 1] != c:
                return f"coset {c}: column {x} is not inverted by column {x ^ 1}"
    for rel in pres.relators:
        cols = [2 * gens.index(s) + (0 if e > 0 else 1) for s, e in rel.entries for _ in range(abs(e))]
        for c in range(len(rows)):
            d = c
            for x in cols:
                d = rows[d][x]
            if d != c:
                return f"relator {rel} does not close at coset {c}"
    return None


# ---------------------------------------------------------------------------
# words: an independent normal-form evaluator for the amalgam
# ---------------------------------------------------------------------------

class RefAmalgam:
    """Normal forms in A *_C B from the vertex tables and the embeddings
    alone.  Right-coset representatives are the identity for the edge
    coset and the smallest index elsewhere; an element is (head in C,
    tuple of (side, representative)).  Elements of lowerk are compared by
    feeding their own (head, syllables) back through this evaluator, so
    the check holds for any transversal the program picks."""

    def __init__(self, am):
        self.C = am.C
        self.V = (am.A, am.B)
        self.emb = (am.iA.full_map(), am.iB.full_map())
        self.factor = []
        for side in (0, 1):
            V, image = self.V[side], self.emb[side]
            rep = {}
            for g in range(V.order):
                coset = [V.table[image[c]][g] for c in range(am.C.order)]
                rep[g] = V.identity if V.identity in coset else min(coset)
            fac = [None] * V.order
            for c in range(am.C.order):
                for t in set(rep.values()):
                    fac[V.table[image[c]][t]] = (c, t)
            self.factor.append(fac)
        self.labels = [dict(V.generator_labels) for V in self.V]
        self.edge = [set(image) for image in self.emb]
        self.transversal = [set(am.transversal(side)) for side in (0, 1)]

    def letter(self, sym: str, exp: int) -> tuple[int, int]:
        side = 0 if sym in self.labels[0] else 1
        V = self.V[side]
        g = self.labels[side][sym]
        if exp < 0:
            g, exp = V.inverses[g], -exp
        x = V.identity
        for _ in range(exp):
            x = V.table[x][g]
        return side, x

    def normal_form(self, seq) -> tuple[int, tuple]:
        """Normal form of a product of vertex elements [(side, x), ...]."""
        head, out = self.C.identity, []          # out holds syllables reversed
        for side, x in reversed(seq):
            V, fac = self.V[side], self.factor[side]
            c1, s1 = fac[V.table[x][self.emb[side][head]]]
            if s1 == V.identity:
                head = c1
            elif not out or out[-1][0] != side:
                head = c1
                out.append((side, s1))
            else:
                c2, s2 = fac[V.table[s1][out.pop()[1]]]
                head = self.C.table[c1][c2]
                if s2 != V.identity:
                    out.append((side, s2))
        return head, tuple(reversed(out))

    def of_word(self, entries) -> tuple[int, tuple]:
        return self.normal_form([self.letter(s, e) for s, e in entries])

    def of_element(self, e) -> tuple[int, tuple]:
        seq = [(0, self.emb[0][e.head])] + [tuple(s) for s in e.syllables]
        return self.normal_form(seq)

    def vertex_order(self, side: int, x: int) -> int:
        V, k, y = self.V[side], 1, x
        while y != V.identity:
            y = V.table[y][x]
            k += 1
        return k


def _same(ref: RefAmalgam, element, entries, what: str) -> str | None:
    """`element` has the value of the word `entries` and is itself a normal
    form: as many syllables as the reference, sides alternating, no syllable
    in the edge group, and every syllable one of the program's own coset
    representatives (fixed when the amalgam was built)."""
    want = ref.of_word(entries)
    if ref.of_element(element) != want:
        return f"{what}: normal form differs from the reference evaluation"
    syllables = [tuple(s) for s in element.syllables]
    if len(syllables) != len(want[1]):
        return f"{what}: {len(syllables)} syllables where the normal form has {len(want[1])}"
    if any(a[0] == b[0] for a, b in zip(syllables, syllables[1:])):
        return f"{what}: neighbouring syllables on the same side"
    for side, x in syllables:
        if x in ref.edge[side]:
            return f"{what}: syllable {x} on side {side} lies in the edge group"
        if x not in ref.transversal[side]:
            return f"{what}: syllable {x} on side {side} is not a coset representative"
    return None


def check_words(ref: RefAmalgam, op: dict, out) -> str | None:
    kind = op["kind"]
    inverse = lambda w: [[s, -e] for s, e in reversed(w)]
    if kind in ("evaluate", "sweep_evaluate"):
        if len(out.syllables) != len(op["word"]):
            return f"evaluate kept {len(out.syllables)} of {len(op['word'])} syllables"
        return _same(ref, out, op["word"], "evaluate")
    if kind == "mul":                      # evaluate(u v) = mul(evaluate u, evaluate v)
        return _same(ref, out, op["left"] + op["right"], "mul")
    if kind == "inv":                      # w w^-1 = 1
        problem = _same(ref, out, inverse(op["word"]), "inv")
        seq = [ref.letter(s, e) for s, e in op["word"]]
        seq += [(0, ref.emb[0][out.head])] + [tuple(s) for s in out.syllables]
        if not problem and ref.normal_form(seq) != (ref.C.identity, ()):
            problem = "inv: w * inv(w) is not the identity"
        return problem
    if kind in ("power", "sweep_power"):   # power(e, n) = evaluate(word^n)
        n = op.get("n", op.get("size"))
        return _same(ref, out, op["word"] * n, "power")
    if kind == "order_of":
        (sym, exp), = op["core"]
        want = ref.vertex_order(*ref.letter(sym, exp))
        if out != want:
            return f"order_of gave {out}, expected {want} (order of the conjugated letter)"
        return None
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# lattices: independent integer linear algebra
# ---------------------------------------------------------------------------

def mat_mul(a, b):
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def rank_q(mat) -> int:
    rows = [[Fraction(x) for x in row] for row in mat]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for j in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                q = rows[i][j] / rows[rank][j]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def det_bareiss(mat) -> int:
    a = [row[:] for row in mat]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def invariant_factors(values) -> tuple[int, ...]:
    """Nonzero |values| of a diagonal as a divisibility chain (gcd/lcm
    exchange), units dropped."""
    vals = sorted(abs(v) for v in values if v)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            g = math.gcd(vals[i], vals[j])
            vals[i], vals[j] = g, vals[i] * vals[j] // g
    return tuple(v for v in vals if v > 1)


def diagonalize(mat, ncols: int) -> list[int]:
    """Diagonal of an integer matrix under row and column operations
    (not necessarily a divisibility chain)."""
    a = [row[:] for row in mat]
    diag = []
    while a and ncols:
        cells = [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not cells:
            break
        _, i, j = min(cells)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        clean = True
        for r in range(1, len(a)):
            q = a[r][0] // p
            a[r] = [x - q * y for x, y in zip(a[r], a[0])]
            clean = clean and a[r][0] == 0
        for c in range(1, ncols):
            q = a[0][c] // p
            for row in a:
                row[c] -= q * row[0]
            clean = clean and a[0][c] == 0
        if clean:
            diag.append(p)
            a = [row[1:] for row in a[1:]]
            ncols -= 1
    return diag


def group_key(g) -> tuple[int, tuple[int, ...]]:
    return g.free_rank, tuple(g.torsion)


def ref_cokernel(matrix, t_rows: tuple[int, ...], n: int) -> tuple[int, tuple[int, ...]]:
    """Z^n modulo the columns of `matrix` and d_i e_i for the torsion rows."""
    cols = [list(col) for col in zip(*matrix)] if matrix and matrix[0] else []
    cols += [[d if k == i else 0 for k in range(n)] for i, d in enumerate(t_rows)]
    if n == 0:
        return 0, ()
    if not cols:
        return n, ()
    mat = [[col[i] for col in cols] for i in range(n)]
    diag = diagonalize(mat, len(cols))
    return n - len(diag), invariant_factors(diag)


def ref_kernel(matrix, src_torsion, src_free: int, tgt_torsion) -> tuple[int, tuple[int, ...]]:
    """Kernel of a map whose torsion is all of order 2: free rank from the
    rational rank of the free block, torsion by enumerating the 2-torsion."""
    t_s, t_t = len(src_torsion), len(tgt_torsion)
    block = [row[t_s:] for row in matrix[t_t:]]
    free = src_free - (rank_q(block) if block and src_free else 0)
    hits = 0
    for mask in range(1 << t_s):
        x = [(mask >> j) & 1 for j in range(t_s)]
        img = [sum(row[j] * x[j] for j in range(t_s)) for row in matrix]
        if all(v % d == 0 for v, d in zip(img, tgt_torsion)) and not any(img[t_t:]):
            hits += 1
    return free, (2,) * (hits.bit_length() - 1)


NIL_LEDGER = {
    ("product", "cyclic:2"): "Zero",
    ("product", "cyclic:4"): "CountableSumZ2",
    ("amalgam", "cyclic:4", "cyclic:2", "cyclic:4"): "Zero",
    ("amalgam", "quaternion:8", "cyclic:4", "quaternion:8"): "CountableSumZ2",
    ("amalgam", "cyclic:2", "cyclic:1", "cyclic:2"): "Zero",
    ("amalgam", "dihedral:2", "cyclic:2", "dihedral:2"): "Zero",
}


def expected_nil(raw_nils: list) -> str:
    tags = {NIL_LEDGER[tuple(v for k, v in n["vc"].items())] for n in raw_nils}
    return "CountableSumZ2" if "CountableSumZ2" in tags else "Zero"


def check_assembly(op: dict, out) -> str | None:
    raw = op["spec"]
    spec, stages, assembled = out
    sheets = {s["group"]: s for s in raw["sheets"]}
    maps = {m["degree"]: m["matrix"] for m in raw["maps"]}
    degrees = ("Wh", "K0t", "Km1", "Km2")
    want_coker, want_ker = {}, {}
    for deg in degrees:
        a, b, c = (sheets[raw[k]][deg] for k in ("A", "B", "C"))
        t_rows = tuple(a["torsion"] + b["torsion"])
        n = len(t_rows) + a["rank"] + b["rank"]
        want_coker[deg] = ref_cokernel(maps[deg], t_rows, n)
        want_ker[deg] = ref_kernel(maps[deg], c["torsion"], c["rank"], t_rows)
        _, ker, coker = stages[deg]
        if group_key(coker) != want_coker[deg]:
            return f"{deg}: cokernel {coker} != reference {want_coker[deg]}"
        if group_key(ker) != want_ker[deg]:
            return f"{deg}: kernel {ker} != reference {want_ker[deg]}"
    nil = expected_nil(raw["nils"])
    for k, deg in enumerate(degrees):
        got = assembled[deg]
        shift = want_ker[degrees[k + 1]] if k + 1 < len(degrees) else (0, ())
        if group_key(got.coker) != want_coker[deg] or group_key(got.ker_shift) != shift:
            return f"{deg}: assembled degree disagrees with its kernel and cokernel stages"
        want_nil = nil if deg in ("Wh", "K0t") else "Zero"
        if got.nil.tag != want_nil:
            return f"{deg}: Nil tag {got.nil.tag}, expected {want_nil}"
    return None


def check_smith(m, s) -> str | None:
    r, c = len(m), len(m[0])
    if mat_mul(mat_mul(s.u, m), s.v) != s.d:
        return "u * m * v != d"
    if mat_mul(s.u, s.u_inv) != identity(r) or mat_mul(s.v, s.v_inv) != identity(c):
        return "u or v is not inverted by u_inv or v_inv"
    diag = [s.d[i][i] for i in range(min(r, c))]
    if any(s.d[i][j] for i in range(r) for j in range(c) if i != j) or min(diag, default=0) < 0:
        return "d is not a nonnegative diagonal"
    nonzero = [x for x in diag if x]
    if diag[:len(nonzero)] != nonzero or any(b % a for a, b in zip(nonzero, nonzero[1:])):
        return "diagonal of d is not a divisibility chain"
    if len(nonzero) != rank_q(m):
        return f"Smith rank {len(nonzero)} != rational rank {rank_q(m)}"
    return None


def check_dense(op: dict, out) -> str | None:
    m = op["matrix"]
    s, ker, coker = out
    problem = check_smith(m, s)
    if problem:
        return problem
    r, c = len(m), len(m[0])
    nonzero = [s.d[i][i] for i in range(min(r, c)) if s.d[i][i]]
    rank = len(nonzero)
    if group_key(ker) != (c - rank, ()):
        return f"kernel {ker} of a map of free groups should be Z^{c - rank}"
    if group_key(coker) != (r - rank, invariant_factors(nonzero)):
        return f"cokernel {coker} disagrees with the Smith diagonal"
    if r == c and rank == r:
        det = abs(det_bareiss(m))
        if math.prod(coker.torsion) != det:
            return f"|coker| = {math.prod(coker.torsion)} but |det| = {det}"
    return None


# ---------------------------------------------------------------------------
# the paper path: values cited in the README and the bundled sheets
# ---------------------------------------------------------------------------

# K_-1 of every group with a bundled K-sheet (Guaschi-Juan-Pineda-Millan 2018,
# Table 2.1; Lafont-Ortiz for the reflection groups), as (rank, torsion)
EXPECTED_KM1 = {
    "cyclic:1": (0, ()), "cyclic:2": (0, ()), "cyclic:4": (0, ()), "quaternion:8": (0, ()),
    "dicyclic:12": (1, ()), "dicyclic:24": (2, (2,)), "binary-octahedral": (1, (2,)),
    "symmetric:4": (0, ()), "dihedral:3": (0, ()), "dihedral:6": (1, ()),
}
# assembled degree -> (rank, torsion, Nil tag), as listed in the README
EXPECTED_ASSEMBLY = {
    "pb3rp2": {"Wh": (0, (), "Zero"), "K0t": (0, (2,), "Zero"),
               "Km1": (0, (), "Zero"), "Km2": (0, (), "Zero")},
    "b3rp2": {"Wh": (2, (), "CountableSumZ2"), "K0t": (0, (2, 2, 2, 2), "CountableSumZ2"),
              "Km1": (2, (2, 2), "Zero"), "Km2": (0, (), "Zero")},
    "mcg_rp2_3": {"Wh": (0, (), "Zero"), "K0t": (0, (), "Zero"),
                  "Km1": (1, (), "Zero"), "Km2": (0, (), "Zero")},
}
DIC24 = closed_form("dicyclic:24")
DIC24_ORDERS = {1: 1, 2: 1, 3: 2, 4: 14, 6: 2, 12: 4}    # x of order 12, y x^i of order 4
SINGULAR_COUNTS = {("dicyclic:12", 2): 4, ("dicyclic:12", 3): 2,
                   ("dicyclic:24", 2): 7, ("dicyclic:24", 3): 4}


def _sum_groups(a: tuple, b: tuple) -> tuple[int, tuple[int, ...]]:
    return a[0] + b[0], invariant_factors(list(a[1]) + list(b[1]))


def check_assembled_paper(name: str, degrees: dict) -> str | None:
    """`degrees` maps degree -> ((rank, torsion) of coker, of ker shift, nil tag)."""
    for deg, (rank, torsion, nil) in EXPECTED_ASSEMBLY[name].items():
        coker, shift, tag = degrees[deg]
        total = _sum_groups(coker, shift)
        if total != (rank, torsion) or tag != nil:
            return f"{name} {deg}: {total} + {tag}, expected {(rank, torsion)} + {nil}"
    return None


def check_paper(op: dict, out) -> str | None:
    """In-process form of the cases mix."""
    argv = op["argv"]
    cmd = argv[0]
    if cmd == "verify":
        return None if all(r.passed for r in out) else "a bundled case failed"
    if cmd == "assemble":
        degrees = {d: (group_key(e.coker), group_key(e.ker_shift), e.nil.tag) for d, e in out.items()}
        return check_assembled_paper(argv[1], degrees)
    if cmd == "ksheet":
        problem = check_ksheet(out)
        km1 = out["K_-1"]
        want = EXPECTED_KM1.get(argv[1])
        if problem is None and (None if km1 is None else group_key(km1)) != want:
            problem = f"K_-1 of {argv[1]} is {km1}, expected {want}"
        return problem
    if cmd == "classes":
        members = sorted(g for block in out.blocks for cls in block for g in cls)
        if out.count != DIC24["r_Q"] or members != list(range(24)):
            return "rational fusion of dicyclic:24 is wrong"
        return None
    sizes = sum(len(c) for c in out["classes"])
    if (out["order"], len(out["classes"]), sizes, out["center"]) != (24, DIC24["classes"], 24, 2):
        return "group info of dicyclic:24 is wrong"
    return None


def check_case_stages(out: dict) -> str | None:
    if not out["hom_ok"]:
        return "braid relations do not hold in the b3 amalgam"
    if out["singular"] != SINGULAR_COUNTS:
        return f"p-singular class counts {out['singular']}"
    if not all(out["iso"].values()):
        return f"quotient isomorphisms failed: {out['iso']}"
    return None


def check_cli(argv: list[str], code: int, stdout: str) -> str | None:
    """A `lowerk --format json ...` process: exit code and JSON fields."""
    cmd = argv[0]
    want_code = 3 if argv[:2] == ["ksheet", "binary-tetrahedral"] else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    try:
        data = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if cmd == "verify":
        reports = data if argv[1] == "all" else [data]
        names = ["pb3", "b3", "mcg-rp2-3", "words"] if argv[1] == "all" else [argv[1]]
        if [r["case"] for r in reports] != names:
            return f"reports for {[r['case'] for r in reports]}, expected {names}"
        for r in reports:
            if r["pass"] is not True or not r["checks"] or not all(c["pass"] is True for c in r["checks"]):
                return f"case {r['case']} did not pass every check"
        return None
    if cmd == "assemble":
        key = lambda g: (g["rank"], tuple(g["torsion"]))
        degrees = {d: (key(e["coker"]), key(e["ker_shift"]), e["nil"])
                   for d, e in data["degrees"].items()}
        return check_assembled_paper(argv[1], degrees)
    if cmd == "ksheet":
        name = argv[1]
        expect = closed_form(name)
        if data["r_Q"] != expect["r_Q"]:
            return f"r_Q of {name} is {data['r_Q']}, expected {expect['r_Q']}"
        if name in EXPECTED_KM1:
            km1 = data["K_-1"]
            got = (km1["rank"], tuple(km1["torsion"])) if isinstance(km1, dict) else km1
            if got != EXPECTED_KM1[name] or data["carter_rank"] != EXPECTED_KM1[name][0]:
                return f"K_-1 of {name} is {got}, expected {EXPECTED_KM1[name]}"
        elif "unknown" not in str(data["K_-1"]):
            return f"{name} has no bundled Schur data, yet K_-1 = {data['K_-1']}"
        return None
    if cmd == "classes":
        members = [e for b in data["blocks"] for cls in b["classes"] for e in cls]
        if data["count"] != DIC24["r_Q"] or len(data["blocks"]) != data["count"] \
                or len(members) != 24 or len(set(members)) != 24:
            return "rational fusion of dicyclic:24 is wrong"
        return None
    hist = {int(k): v for k, v in data["order_histogram"].items()}
    if (data["order"], data["center_order"], sum(data["class_sizes"]),
            len(data["class_sizes"]), hist) != (24, 2, 24, DIC24["classes"], DIC24_ORDERS):
        return "group info of dicyclic:24 is wrong"
    return None


# ---------------------------------------------------------------------------
# dispatch for in-process ops
# ---------------------------------------------------------------------------

class Context:
    """Lazily built references shared by the checks of one pass."""

    def __init__(self, state):
        self.state = state
        self._ref = None

    @property
    def ref(self) -> RefAmalgam:
        if self._ref is None:
            self._ref = RefAmalgam(self.state.am)
        return self._ref


WORD_KINDS = ("evaluate", "sweep_evaluate", "mul", "inv", "power", "sweep_power", "order_of")


def check(ctx: Context, op: dict, prep, out) -> str | None:
    kind = op["kind"]
    if kind in ("ksheet", "sweep_ksheet"):
        return check_ksheet(out)
    if kind in ("todd_coxeter", "sweep_todd_coxeter"):
        n = op.get("n", op.get("size"))
        return check_coset_table(out, prep, 4 * n)
    if kind in WORD_KINDS:
        return check_words(ctx.ref, op, out)
    if kind == "dense":
        return check_dense(op, out)
    if kind == "sweep_snf":
        return check_smith(op["matrix"], out)
    if kind == "assembly":
        return check_assembly(op, out)
    if kind == "paper":
        return check_paper(op, out)
    if kind == "case_stages":
        return check_case_stages(out)
    if kind == "sweep_build_group":
        return None if out.order == op["size"] else f"order {out.order} != {op['size']}"
    raise ValueError(f"no check for op kind {kind!r}")
