"""Finitely presented groups: words, coset enumeration, hom verification.

A `Word` is freely reduced when it is built: its constructor merges and
cancels adjacent (symbol, exponent) pairs.  Relators are stored in "left
side times inverted right side" shape so failure diagnostics keep the
shape of the defining equations.
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
        if isinstance(exp, bool) or not isinstance(exp, int):
            raise ValueError(f"exponent {exp!r} of {sym!r} is not an int")
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
    """Word over symbolic generators, freely reduced by its constructor,
    which refuses an exponent that is not an int; equal words compare equal."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        object.__setattr__(self, "entries", _reduce(entries))

    def __eq__(self, other):
        if type(other) is not Word:
            return NotImplemented
        return self.entries == other.entries

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
        return Word(self.entries + other.entries)

    def __pow__(self, n: int) -> "Word":
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"exponent {n!r} is not an int")
        return Word((self if n > 0 else self.inverse()).entries * abs(n))

    def __str__(self) -> str:
        if not self.entries:
            return "1"
        return " ".join(s if e == 1 else f"{s}^{e}" for s, e in self.entries)


def parse_word(text: str) -> Word:
    """Parse whitespace-separated signed powers, e.g. "a^2 b^-1 a".

    The bare token "1" denotes the empty word, matching the printer.  An
    exponent is what the printer emits: an optional "-" and ASCII digits.
    """
    entries = []
    for token in text.split():
        if token == "1":
            continue
        if "^" in token:
            sym, _, exp = token.partition("^")
            if not sym:
                raise ValueError(f"token {token!r} has no symbol")
            digits = exp.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"token {token!r} has no integer exponent")
            entries.append((sym, int(exp)))
        else:
            entries.append((token, 1))
    return Word(entries)


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
    sig = [Word(((f"s{i}", 1),)) for i in range(1, n)]
    rho = [Word(((f"r{j}", 1),)) for j in range(1, n + 1)]
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


def _period(cols: list[int]) -> int:
    """Least p dividing len(cols) with cols the (len/p)-th power of cols[:p]."""
    n = len(cols)
    for p in range(1, n):
        if n % p == 0 and cols == cols[:p] * (n // p):
            return p
    return n


def _runs(word: Word, symbols: set[str]) -> list[int]:
    """For each letter of `word`, how many equal letters start there when
    its symbol is in `symbols`, else 1."""
    return [k if s in symbols else 1 for s, e in word.entries for k in range(abs(e), 0, -1)]


def todd_coxeter(pres: Presentation, subgroup_gens: tuple[Word, ...] = (),
                 coset_limit: int = DEFAULT_COSET_LIMIT) -> CosetTable:
    """Enumerate cosets of the subgroup generated by `subgroup_gens`.

    Relator-scanning (HLT) strategy with Holt's coincidence routine
    (Holt-Eick-O'Brien, Handbook of Computational Group Theory, 5.1);
    raises LimitExceeded when more than `coset_limit` cosets get defined,
    which is the expected outcome for infinite groups.

    A relator that is a proper power R = w^k (period p = |w| < |R|) is
    scanned once per cycle: when a scan of R from a coset a closes with a
    still live, R holds at each a w^j, and those cosets are not scanned
    for R again.  A coincidence keeps the rows of live cosets consistent,
    so a closed path stays closed through later merges and a skipped scan
    would have changed nothing: the definitions, coincidences, limit
    point and table are those of scanning every relator from every live
    coset.

    A run g^k (k >= 2) of a generator with a pure power relator g^L is
    jumped in the other relators.  When g^L closes at a live coset a, the
    walk a, a g, ..., a g^(L-1) is kept with each coset's position; a scan
    first follows its relator from both ends, crossing a run from a listed
    coset walk[i] straight to rep(walk[(i +- k) mod L]).  The cycle is
    closed, so the skipped letters would have defined nothing, and live
    rows stay consistent, so it lands where they would: the outcome is
    that of the letter walk.  Other relators (all of the bundled
    binary-octahedral ones) keep the letter walk.  For <x, y | x^400,
    y^2 x^-200, y x y^-1 x> the scans read 8,399 table entries and jump
    800 runs, where the letter walk reads 167,601 entries.
    """
    if isinstance(coset_limit, bool) or not isinstance(coset_limit, int):
        raise ValueError(f"coset_limit {coset_limit!r} is not an int")
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
    # each relator's period, and the cosets where it is known to close
    periods = [_period(cols) for cols in rel_cols]
    closed: list[set[int]] = [set() for _ in rel_cols]
    # the generators with a pure power relator and a run in another; each
    # jumping relator's runs, inverse and inverse's runs; and the closed
    # cycles: cycles[k][c] = (walk, m), c g_k^e = rep(walk[(m + e) % len(walk)])
    jumped = ({gens[cols[0] >> 1] for cols, p in zip(rel_cols, periods) if p == 1 < len(cols)}
              & {s for w, p in zip(pres.relators, periods) if p > 1
                 for s, e in w.entries if e * e > 1})
    jumpers = [(_runs(w, jumped), word_cols(w.inverse()), _runs(w.inverse(), jumped))
               if jumped and p > 1 and any(s in jumped and e * e > 1 for s, e in w.entries)
               else None for w, p in zip(pres.relators, periods)]
    cycles: list[dict[int, tuple[list[int], int]]] = [{} for _ in gens]

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

    def along(c: int, i: int, stop: int, cols: list[int], run: list[int]) -> tuple[int, int]:
        """Follow c along cols[i..stop] while defined, a run on a closed cycle in one jump."""
        while i <= stop:
            x = cols[i]
            hit = run[i] > 1 and cycles[x >> 1].get(c)
            if hit:
                walk, m = hit
                k = min(run[i], stop - i + 1)
                g = rep(walk[(m - k if x & 1 else m + k) % len(walk)])
            else:
                k = 1
                g = table[c][x]
                if g is None:
                    break
            c, i = g, i + k
        return c, i

    def scan_and_fill(a: int, cols: list[int], runs=None) -> None:
        f, i = a, 0
        b, j = a, len(cols) - 1
        if runs:  # the jumps; the letter walk below goes on where they stop
            f, i = along(a, 0, j, cols, runs[0])
            b, j = along(a, 0, j - i, runs[1], runs[2])
            j = len(cols) - 1 - j
        while True:
            while i <= j:
                g = table[f][cols[i]]
                if g is None:
                    break
                f = g
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                g = table[b][cols[j] ^ 1]
                if g is None:
                    break
                b = g
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
    relators = list(zip(rel_cols, periods, closed, jumpers))
    a = 0
    while a < len(table):
        if rep(a) != a:
            a += 1
            continue
        for cols, p, done, runs in relators:
            if rep(a) != a:
                break
            if a in done:
                continue
            scan_and_fill(a, cols, runs)
            if p < len(cols) and rep(a) == a:
                c, walk = a, [a]
                for i, x in enumerate(cols[:-p], 1):
                    c = table[c][x]
                    if i % p == 0:
                        done.add(c)
                        walk.append(c)
                if p == 1 and gens[cols[0] >> 1] in jumped:
                    walk = walk[:1] + walk[:0:-1] if cols[0] & 1 else walk
                    cycles[cols[0] >> 1].update({c: (walk, m) for m, c in enumerate(walk)})
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
    `mul` and `power`, and evaluates the empty word to its identity.
    `images` maps each generator of `pres`, and no other key, to a Word
    over the target's own generator labels; an image that is not a Word
    raises ValueError.
    """
    if images.keys() != set(pres.generators):
        sym = min(images.keys() ^ set(pres.generators), key=repr)
        raise UnknownSymbol(f"{sym!r} is not a generator of the presentation" if sym in images
                            else f"no image given for generator {sym!r}")
    resolved = {}
    for sym, img in images.items():
        if not isinstance(img, Word):
            raise ValueError(f"image {img!r} of {sym!r} is not a Word")
        resolved[sym] = target.evaluate(img)
    identity = target.evaluate(Word())
    failing = []
    for rel in pres.relators:
        acc = identity
        for sym, exp in rel.entries:
            acc = target.mul(acc, target.power(resolved[sym], exp))
        if acc != identity:
            failing.append(rel)
    return HomReport(failing)
