"""Seeded inputs for the four benchmark workloads.

Standard library only: the program under test receives nothing but what
these functions return.  A run's op list comes from the stream
``random.Random(f"{workload}:{seed}")`` and every pass of the run executes
the same ops in its own seeded order, so the same seed gives the same
inputs on every machine, and each op is timed once per pass.
"""

from __future__ import annotations

import random

# ---------------------------------------------------------------------------
# cases: the paper-path CLI mix
# ---------------------------------------------------------------------------

VERIFY_CASES = ("pb3", "b3", "mcg-rp2-3", "words")
BUNDLED_SPECS = ("pb3rp2", "b3rp2", "mcg_rp2_3")
# every group with a bundled K-sheet, plus binary-tetrahedral, which has no
# bundled Schur data and exits 3 by design
KSHEET_GROUPS = ("cyclic:1", "cyclic:2", "cyclic:4", "quaternion:8", "dicyclic:12",
                 "dicyclic:24", "binary-octahedral", "symmetric:4", "dihedral:3",
                 "dihedral:6", "binary-tetrahedral")

CASES_MIX = (
    tuple(("verify", c) for c in VERIFY_CASES)
    + (("verify", "all"),)
    + tuple(("assemble", s) for s in BUNDLED_SPECS)
    + tuple(("ksheet", g) for g in KSHEET_GROUPS)
    + (("classes", "dicyclic:24", "--fusion", "q"), ("group", "info", "dicyclic:24"))
)


def stream(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def pass_order(workload: str, seed: int, pass_no: int, n: int) -> list[int]:
    """The order in which pass `pass_no` runs the n ops of a run."""
    order = list(range(n))
    random.Random(f"{workload}:{seed}:pass{pass_no}").shuffle(order)
    return order


def cases_ops(seed: int) -> list[dict]:
    """The mix; `argv` is run as `lowerk --format json <argv>`."""
    return [{"kind": "paper", "argv": list(argv)} for argv in CASES_MIX]


# ---------------------------------------------------------------------------
# groups: the ksheet pipeline over a doubling sweep, plus coset enumeration
# ---------------------------------------------------------------------------

# Orders double from 64 to 512.  The sizes are fixed rather than drawn:
# near-equal orders with other factorizations cost up to 40% more or less in
# this pipeline, which would swamp run-to-run comparisons.  Ops of half a
# second or more (symmetric:6 0.7 s, cyclic:512 1.3 s, order 1024 about
# 2 s) would leave too few passes in a run for steady figures; the traced
# run's sweep takes the ksheet stages to cyclic:512 and table builds to
# order 2048.
GROUP_SWEEP = (
    "cyclic:128", "cyclic:256",
    "dihedral:32", "dihedral:64", "dihedral:128", "dihedral:256",
    "dicyclic:64", "dicyclic:128", "dicyclic:256", "dicyclic:512",
    "symmetric:5", "binary-octahedral",
)
# dicyclic presentations <x, y | x^2n, y^2 x^-n, y x y^-1 x> of index 4n
TC_SWEEP = (50, 100, 200)


def _tokens(letters: list[tuple[str, int]]) -> str:
    """Letters (symbol, +-1) as a parse_word string with run-length powers."""
    out: list[list] = []
    for sym, sgn in letters:
        if out and out[-1][0] == sym and (out[-1][1] > 0) == (sgn > 0):
            out[-1][1] += sgn
        else:
            out.append([sym, sgn])
    return " ".join(s if e == 1 else f"{s}^{e}" for s, e in out)


def _letters(word: list[tuple[str, int]]) -> list[tuple[str, int]]:
    return [(s, 1 if e > 0 else -1) for s, e in word for _ in range(abs(e))]


def dicyclic_relators(n: int, rng: random.Random) -> list[str]:
    """The dicyclic relators, each cyclically rotated and possibly inverted
    (a conjugate of a relator or its inverse has the same normal closure),
    in shuffled order."""
    base = ([("x", 2 * n)], [("y", 2), ("x", -n)], [("y", 1), ("x", 1), ("y", -1), ("x", 1)])
    out = []
    for word in base:
        letters = _letters(word)
        if rng.random() < 0.5:
            letters = [(s, -e) for s, e in reversed(letters)]
        k = rng.randrange(len(letters))
        out.append(_tokens(letters[k:] + letters[:k]))
    rng.shuffle(out)
    return out


def groups_ops(seed: int) -> list[dict]:
    rng = stream("groups", seed)
    ops = [{"kind": "ksheet", "group": g} for g in GROUP_SWEEP]
    ops += [{"kind": "todd_coxeter", "n": n, "relators": dicyclic_relators(n, rng)}
            for n in TC_SWEEP]
    return ops


# ---------------------------------------------------------------------------
# words: normal-form arithmetic in the b3 amalgam
# ---------------------------------------------------------------------------

# Generator powers outside the embedded edge group, per side: odd powers of
# P and Q in the binary octahedral group (side 0) and odd powers of Y in the
# dicyclic group of order 24 (side 1).  A word that alternates sides with
# these letters keeps one normal-form syllable per letter; the oracle checks
# that, so a wrong entry here shows up as a failed op.
VOCAB = {
    0: tuple((s, e) for s in ("P", "Q") for e in (-3, -1, 1, 3)),
    1: tuple(("Y", e) for e in (-5, -3, -1, 1, 3, 5)),
}
READ_LENGTHS = (100, 200, 400, 800)
READS_PER_LENGTH = 24
WRITE_LENGTHS = (100, 200, 400, 800)
WRITES_PER_LENGTH = 2
CONJUGATOR_LENGTHS = (25, 50, 100, 200)
POWER_EXPONENTS = (25, 50, 100, 200)
POWER_BASE_LENGTH = 8


def alternating_word(rng: random.Random, length: int, side: int = 0) -> list[list]:
    out = []
    for _ in range(length):
        sym, exp = rng.choice(VOCAB[side])
        out.append([sym, exp])
        side ^= 1
    return out


def words_ops(seed: int) -> list[dict]:
    """Reads (evaluate) and writes (mul, inv, order_of, power), 4:1.

    Every word starts on side 0 and has even length, so products and
    powers of the words stay alternating and cyclically reduced.
    """
    rng = stream("words", seed)
    ops = [{"kind": "evaluate", "word": alternating_word(rng, n)}
           for n in READ_LENGTHS for _ in range(READS_PER_LENGTH)]
    for n in WRITE_LENGTHS:
        for _ in range(WRITES_PER_LENGTH):
            ops.append({"kind": "mul", "left": alternating_word(rng, n),
                        "right": alternating_word(rng, n)})
            ops.append({"kind": "inv", "word": alternating_word(rng, n)})
    for n in CONJUGATOR_LENGTHS:
        # u v u^-1 with v one letter from u's first side: order_of must
        # peel the whole conjugator to reach v
        side = rng.randrange(2)
        u = alternating_word(rng, n, side)
        v = alternating_word(rng, 1, side)
        ops.append({"kind": "order_of", "conjugator": u, "core": v})
    for n in POWER_EXPONENTS:
        ops.append({"kind": "power", "word": alternating_word(rng, POWER_BASE_LENGTH),
                    "n": n})
    return ops


# ---------------------------------------------------------------------------
# lattice: kernels and cokernels through the Smith normal form
# ---------------------------------------------------------------------------

# (rows, cols) of the dense integer maps; rows = target generators.  On a
# full-rank square map the cokernel is cyclic of order |det|, and
# FgAbelianGroup.from_divisors factors it by trial division, up to sqrt|det|
# steps.  At 10 x 10 that already costs as much as the Smith form; from
# 12 x 12 on the cost depends on the largest prime factor of the determinant
# and swings by orders of magnitude between inputs, and from 16 x 16 many
# maps do not finish in seconds (NOTES.md).  Drawn square maps stop at 10 so
# that no op fails and a run's figures do not hinge on a few draws; the
# blow-up is carried by DEFECT_MAP instead.
DENSE_SHAPES = ((8, 8), (10, 10), (8, 16), (16, 8), (16, 32), (32, 16))
# One fixed 18 x 18 map, the same in every run: its Smith form takes
# milliseconds and its cokernel about 0.3 s at the reference speed
# (speed.py), nearly all of it trial division of |det|, a fifth of lattice
# wall_s.  A fix of that defect shows there.
DEFECT_MAP = ("lattice-defect:18:3", 18)
DENSE_PER_SHAPE = 12
ASSEMBLY_PER_RUN = 120
DEGREES = ("Wh", "K0t", "Km1", "Km2")
SHEET_GROUPS = ("binary-octahedral", "dicyclic:24", "dicyclic:12", "quaternion:8",
                "cyclic:4", "cyclic:2", "symmetric:4", "dihedral:6", "dihedral:3")
NIL_POOL = (
    {"type": "product", "finite": "cyclic:2"},
    {"type": "product", "finite": "cyclic:4"},
    {"type": "amalgam", "left": "cyclic:4", "edge": "cyclic:2", "right": "cyclic:4"},
    {"type": "amalgam", "left": "quaternion:8", "edge": "cyclic:4", "right": "quaternion:8"},
    {"type": "amalgam", "left": "cyclic:2", "edge": "cyclic:1", "right": "cyclic:2"},
    {"type": "amalgam", "left": "dihedral:2", "edge": "cyclic:2", "right": "dihedral:2"},
)


def dense_matrix(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


class Deck:
    """Draws from `values` in shuffled rounds, so that every value comes up
    equally often: a run's specs mix sizes in the same proportions whatever
    the seed, which keeps the cost of the run's median op from drifting
    with the seed."""

    def __init__(self, rng: random.Random, values):
        self.rng, self.values, self.left = rng, list(values), []

    def draw(self):
        if not self.left:
            self.left = self.values[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def spec_decks(rng: random.Random) -> dict[str, Deck]:
    return {"rank": Deck(rng, range(3)), "torsion": Deck(rng, range(4)), "nils": Deck(rng, range(3))}


def _degree_block(decks: dict[str, Deck]) -> dict:
    return {"rank": decks["rank"].draw(), "torsion": [2] * decks["torsion"].draw()}


def _well_defined_map(rng: random.Random, src: dict, tgt_a: dict, tgt_b: dict) -> list[list[int]]:
    """Matrix against canonical coordinates: target rows are (torsion of A,
    torsion of B, free of A, free of B), source columns torsion first.
    Torsion sources (order 2) may hit only the Z/2 target rows, which keeps
    the map well defined."""
    t_rows = len(tgt_a["torsion"]) + len(tgt_b["torsion"])
    f_rows = tgt_a["rank"] + tgt_b["rank"]
    t_cols, f_cols = len(src["torsion"]), src["rank"]
    matrix = []
    for i in range(t_rows + f_rows):
        row = []
        for j in range(t_cols + f_cols):
            if i < t_rows:
                row.append(rng.randint(0, 1))
            else:
                row.append(0 if j < t_cols else rng.randint(-2, 2))
        matrix.append(row)
    return matrix


def assembly_spec(rng: random.Random, decks: dict[str, Deck], name: str) -> dict:
    """A synthetic spec shaped like the bundled ones: small free ranks,
    (Z/2)^k torsion, nothing below degree -1."""
    a, b, c = rng.sample(SHEET_GROUPS, 3)
    sheets = {}
    for g in (a, b, c):
        sheet = {"group": g, "cite": "synthetic benchmark sheet"}
        for deg in DEGREES[:3]:
            sheet[deg] = _degree_block(decks)
        sheet["Km2"] = {"rank": 0, "torsion": []}
        sheets[g] = sheet
    maps = [{"degree": deg,
             "matrix": _well_defined_map(rng, sheets[c][deg], sheets[a][deg], sheets[b][deg]),
             "source": c, "cite": "synthetic benchmark map"}
            for deg in DEGREES]
    nils = [{"vc": vc, "cite": "synthetic benchmark nil"}
            for vc in rng.sample(NIL_POOL, decks["nils"].draw())]
    return {"name": name, "A": a, "B": b, "C": c,
            "sheets": list(sheets.values()), "maps": maps, "nils": nils}


def lattice_ops(seed: int) -> list[dict]:
    rng = stream("lattice", seed)
    ops = [{"kind": "dense", "matrix": dense_matrix(rng, r, c)}
           for r, c in DENSE_SHAPES for _ in range(DENSE_PER_SHAPE)]
    stream_name, n = DEFECT_MAP
    ops.append({"kind": "dense", "matrix": dense_matrix(random.Random(stream_name), n, n)})
    decks = spec_decks(rng)
    ops += [{"kind": "assembly", "spec": assembly_spec(rng, decks, f"synthetic-{seed}-{k}")}
            for k in range(ASSEMBLY_PER_RUN)]
    return ops


# ---------------------------------------------------------------------------
# the traced run's sweeps
# ---------------------------------------------------------------------------

SWEEP_REPEATS = 5
BUILD_SWEEP = (256, 512, 1024, 2048)     # dicyclic orders
CARTER_SWEEP = (128, 256, 512)           # cyclic orders
SNF_SWEEP = (8, 16, 32)                  # square sizes, Smith form only


def sweep_ops(seed: int) -> list[dict]:
    """Doubling sweeps over the scaled inputs of the layers: coset index,
    group order, word length, power exponent and matrix size; and the
    ksheet stages on symmetric:6, too slow for the timed groups list.  Kept
    in order: each sweep runs small to large so a doubling ratio compares
    neighbours measured close together."""
    rng = stream("sweep", seed)
    ops = [{"kind": "sweep_todd_coxeter", "size": n, "relators": dicyclic_relators(n, rng)}
           for n in TC_SWEEP]
    ops += [{"kind": "sweep_build_group", "size": n} for n in BUILD_SWEEP]
    ops += [{"kind": "sweep_ksheet", "size": n} for n in CARTER_SWEEP]
    ops.append({"kind": "ksheet", "group": "symmetric:6"})
    ops += [{"kind": "sweep_evaluate", "size": n, "word": alternating_word(rng, n)}
            for n in READ_LENGTHS for _ in range(SWEEP_REPEATS)]
    base = alternating_word(rng, POWER_BASE_LENGTH)
    ops += [{"kind": "sweep_power", "size": n, "word": base} for n in POWER_EXPONENTS]
    ops += [{"kind": "sweep_snf", "size": n, "matrix": dense_matrix(rng, n, n)}
            for n in SNF_SWEEP for _ in range(SWEEP_REPEATS)]
    return ops


OPS = {"cases": cases_ops, "groups": groups_ops, "words": words_ops,
       "lattice": lattice_ops, "sweep": sweep_ops}


def traced_ops(workload: str, seed: int) -> list[dict]:
    """A traced run's op list: the workload's, and for cases also the layer
    calls the bundled cases make (homomorphism check, p-singular classes,
    quotients, isomorphism tests), one span each."""
    ops = OPS[workload](seed)
    if workload == "cases":
        ops.append({"kind": "case_stages"})
    return ops
