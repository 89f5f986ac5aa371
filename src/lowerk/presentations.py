"""Finitely presented groups: words, coset enumeration, hom verification.

Words are freely reduced sequences of (symbol, exponent) pairs.  Relators
are stored in "left side times inverted right side" shape so failure
diagnostics keep the shape of the defining equations.
"""

from __future__ import annotations

from collections import deque

from .errors import LimitExceeded, UnknownSymbol
from .records import Frozen, Record


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def _reduce(entries) -> tuple[tuple[str, int], ...]:
    out: list[list] = []
    for sym, exp in entries:
        exp = int(exp)
        if exp == 0:
            continue
        if out and out[-1][0] == sym:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([sym, exp])
    return tuple((s, e) for s, e in out)


class Word(Frozen):
    """Freely reduced word over symbolic generators."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[str, int], ...] = ()):
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other):
        if type(other) is not Word:
            return NotImplemented
        return self.entries == other.entries

    @staticmethod
    def of(*entries) -> "Word":
        return Word(_reduce(entries))

    @property
    def length(self) -> int:
        return sum(abs(e) for _, e in self.entries)

    def symbols(self) -> set[str]:
        return {s for s, _ in self.entries}

    def letters(self):
        """Yield (symbol, +1/-1) with exponents expanded."""
        for sym, exp in self.entries:
            sgn = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield sym, sgn

    def inverse(self) -> "Word":
        return Word(tuple((s, -e) for s, e in reversed(self.entries)))

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduce(self.entries + other.entries))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def __str__(self) -> str:
        if not self.entries:
            return "1"
        return " ".join(s if e == 1 else f"{s}^{e}" for s, e in self.entries)


def parse_word(text: str) -> Word:
    """Parse whitespace-separated signed powers, e.g. "a^2 b^-1 a".

    The bare token "1" denotes the empty word, matching the printer.
    """
    entries = []
    for token in text.split():
        if token == "1":
            continue
        if "^" in token:
            sym, _, exp = token.partition("^")
            entries.append((sym, int(exp)))
        else:
            entries.append((token, 1))
    return Word.of(*entries)


def commutator(a: Word, b: Word) -> Word:
    return a * b * a.inverse() * b.inverse()


class Presentation(Frozen):
    __slots__ = ("generators", "relators")

    def __init__(self, generators: tuple[str, ...], relators: tuple[Word, ...]):
        declared = set(generators)
        for rel in relators:
            extra = rel.symbols() - declared
            if extra:
                raise UnknownSymbol(f"relator {rel} uses undeclared symbols {sorted(extra)}")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)


# ---------------------------------------------------------------------------
# the braid presentation family for the projective plane
# ---------------------------------------------------------------------------

def van_buskirk(n: int) -> Presentation:
    """Surface braid presentation on n strands: sigma_i mapped to "si",
    rho_j to "rj".

    Relator families, each stated as LHS * RHS^-1:
      - distant sigma generators commute,
      - adjacent sigma generators braid,
      - sigma_i commutes with rho_j for j not in {i, i+1},
      - rho_{i+1} = sigma_i^-1 rho_i sigma_i^-1,
      - rho_{i+1}^-1 rho_i^-1 rho_{i+1} rho_i = sigma_i^2,
      - rho_1^2 equals the full chain sigma_1 ... sigma_{n-1}^2 ... sigma_1.
    """
    if n < 1:
        raise ValueError("need at least one strand")
    sig = [Word.of((f"s{i}", 1)) for i in range(1, n)]
    rho = [Word.of((f"r{j}", 1)) for j in range(1, n + 1)]
    gens = tuple(f"s{i}" for i in range(1, n)) + tuple(f"r{j}" for j in range(1, n + 1))
    rels: list[Word] = []
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append(commutator(sig[i - 1], sig[j - 1]))
    for i in range(1, n - 1):
        lhs = sig[i - 1] * sig[i] * sig[i - 1]
        rhs = sig[i] * sig[i - 1] * sig[i]
        rels.append(lhs * rhs.inverse())
    for i in range(1, n):
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                rels.append(commutator(sig[i - 1], rho[j - 1]))
    for i in range(1, n):
        rhs = sig[i - 1].inverse() * rho[i - 1] * sig[i - 1].inverse()
        rels.append(rho[i] * rhs.inverse())
    for i in range(1, n):
        lhs = rho[i].inverse() * rho[i - 1].inverse() * rho[i] * rho[i - 1]
        rels.append(lhs * (sig[i - 1] ** -2))
    chain = Word()
    for i in range(1, n - 1):
        chain = chain * sig[i - 1]
    if n >= 2:
        chain = chain * (sig[n - 2] ** 2)
    for i in range(n - 2, 0, -1):
        chain = chain * sig[i - 1]
    rels.append((rho[0] ** 2) * chain.inverse())
    return Presentation(gens, tuple(rels))


# ---------------------------------------------------------------------------
# coset enumeration
# ---------------------------------------------------------------------------

DEFAULT_COSET_LIMIT = 1_000_000


class CosetTable(Record):
    """Complete closed coset table.

    Column layout: generator k acts through column 2k, its inverse through
    column 2k+1.  Rows are live cosets, row 0 is the subgroup itself.
    """

    __slots__ = ("generators", "table")

    def __init__(self, generators: tuple[str, ...], table: tuple[tuple[int, ...], ...]):
        self.generators, self.table = generators, table

    @property
    def index(self) -> int:
        return len(self.table)

    def column(self, sym: str, sgn: int) -> int:
        k = self.generators.index(sym)
        return 2 * k if sgn > 0 else 2 * k + 1


def todd_coxeter(pres: Presentation, subgroup_gens: tuple[Word, ...] = (),
                 coset_limit: int = DEFAULT_COSET_LIMIT) -> CosetTable:
    """Enumerate cosets of the subgroup generated by `subgroup_gens`.

    Relator-scanning strategy with coincidence handling; raises
    LimitExceeded when more than `coset_limit` cosets get defined, which
    is the expected outcome for infinite groups.
    """
    if coset_limit < 1:
        raise ValueError("coset_limit must be positive")
    gens = pres.generators
    ncols = 2 * len(gens)
    colof = {}
    for k, g in enumerate(gens):
        colof[(g, 1)] = 2 * k
        colof[(g, -1)] = 2 * k + 1

    def word_cols(w: Word) -> list[int]:
        out = []
        for sym, sgn in w.letters():
            if (sym, sgn) not in colof:
                raise UnknownSymbol(f"symbol {sym!r} not in presentation")
            out.append(colof[(sym, sgn)])
        return out

    rel_cols = [word_cols(w) for w in pres.relators]
    sub_cols = [word_cols(w) for w in subgroup_gens]

    table: list[list[int | None]] = [[None] * ncols]
    parent = [0]

    def rep(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(a: int, x: int) -> int:
        if len(table) >= coset_limit:
            raise LimitExceeded(coset_limit, sum(1 for c, p in enumerate(parent) if c == p))
        b = len(table)
        table.append([None] * ncols)
        parent.append(b)
        table[a][x] = b
        table[b][x ^ 1] = a
        return b

    def merge(a: int, b: int, queue: deque) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            parent[b] = a
            queue.append(b)

    def coincidence(a: int, b: int) -> None:
        queue: deque = deque()
        merge(a, b, queue)
        while queue:
            y = queue.popleft()
            for x in range(ncols):
                d = table[y][x]
                if d is None:
                    continue
                table[d][x ^ 1] = None
                mu, nu = rep(y), rep(d)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def scan_and_fill(a: int, cols: list[int]) -> None:
        f, i = a, 0
        b, j = a, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][cols[j] ^ 1] is not None:
                b = table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][cols[i]] = b
                table[b][cols[i] ^ 1] = f
                return
            define(f, cols[i])

    for cols in sub_cols:
        scan_and_fill(0, cols)
    a = 0
    while a < len(table):
        if rep(a) != a:
            a += 1
            continue
        for cols in rel_cols:
            if rep(a) != a:
                break
            scan_and_fill(a, cols)
        if rep(a) == a:
            for x in range(ncols):
                if table[a][x] is None:
                    define(a, x)
        a += 1

    live = [c for c in range(len(table)) if rep(c) == c]
    index_of = {c: i for i, c in enumerate(live)}
    rows = tuple(tuple(index_of[rep(table[c][x])] for x in range(ncols)) for c in live)
    return CosetTable(tuple(gens), rows)


# ---------------------------------------------------------------------------
# homomorphism verification
# ---------------------------------------------------------------------------

class HomReport(Record):
    """The relators a generator assignment fails to kill; ok when none."""

    __slots__ = ("failing_relators",)

    def __init__(self, failing_relators: list[Word]):
        self.failing_relators = failing_relators

    @property
    def ok(self) -> bool:
        return not self.failing_relators


def verify_homomorphism(pres: Presentation, target, images: dict) -> HomReport:
    """Check that generator images kill every relator of `pres`.

    `target` is any word-evaluable group: it must expose `evaluate(word)`,
    `mul` and `power`, and evaluates the empty word to its identity.  Image
    values may be Words over the target's own generator labels or raw
    target elements.
    """
    resolved = {}
    for sym in pres.generators:
        if sym not in images:
            raise UnknownSymbol(f"no image given for generator {sym!r}")
        img = images[sym]
        resolved[sym] = target.evaluate(img) if isinstance(img, Word) else img
    identity = target.evaluate(Word())
    failing = []
    for rel in pres.relators:
        acc = identity
        for sym, exp in rel.entries:
            acc = target.mul(acc, target.power(resolved[sym], exp))
        if acc != identity:
            failing.append(rel)
    return HomReport(failing)
