import inspect
import re
import sys
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from lowerk.errors import LimitExceeded, UnknownSymbol
from lowerk.groups import (
    _BINARY_OCTAHEDRAL_PRESENTATION,
    build_group,
    group_from_coset_table,
    is_isomorphic,
)
from lowerk.presentations import (
    DEFAULT_COSET_LIMIT,
    CosetTable,
    Presentation,
    Word,
    parse_word,
    todd_coxeter,
    van_buskirk,
    verify_homomorphism,
)

entries = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(min_value=-4, max_value=4)),
    max_size=8)


@given(entries)
def test_free_reduction_idempotent_and_shrinking(raw):
    w = Word(raw)
    assert Word(w.entries) == w
    assert w.length <= sum(abs(e) for _, e in raw)
    for (s1, _), (s2, _) in zip(w.entries, w.entries[1:]):
        assert s1 != s2
    assert all(e != 0 for _, e in w.entries)


@given(entries, entries)
def test_word_algebra(raw1, raw2):
    w1, w2 = Word(raw1), Word(raw2)
    assert (w1 * w2) * (w2.inverse() * w1.inverse()) == Word()
    assert w1 ** 0 == Word()
    assert w1 ** -2 == (w1.inverse()) * (w1.inverse())
    assert w1 ** 3 == w1 * w1 * w1


@given(entries)
def test_word_parser_round_trip(raw):
    w = Word(raw)
    assert parse_word(str(w)) == w


def test_presentation_rejects_undeclared_symbols():
    with pytest.raises(UnknownSymbol):
        Presentation(("a",), (parse_word("a b"),))


def test_van_buskirk_counts():
    p1 = van_buskirk(1)
    assert p1.generators == ("r1",)
    assert p1.relators == (parse_word("r1^2"),)

    p2 = van_buskirk(2)
    assert len(p2.generators) == 3
    assert len(p2.relators) == 3

    p3 = van_buskirk(3)
    assert len(p3.generators) == 5
    assert len(p3.relators) == 8

    p4 = van_buskirk(4)
    assert len(p4.generators) == 7
    assert len(p4.relators) == 16


def test_coset_enumeration_cyclic():
    for n in range(1, 51):
        pres = Presentation(("g",), (Word((("g", n),)),))
        assert todd_coxeter(pres).index == n


def test_coset_enumeration_triangle_groups():
    # von Dyck style presentations with heavy coincidence traffic
    cases = [
        ("a^2 ; b^2 ; a b a b a b", 6),        # dihedral of order 6
        ("a^3 ; b^3 ; a b a b", 12),           # alternating on four letters
        ("a^2 ; b^3 ; a b a b a b a b a b", 60),  # alternating on five letters
        ("a^4 ; b^2 ; a b a b a b", 24),       # rotation group of the cube
    ]
    for rels, order in cases:
        relators = tuple(parse_word(r) for r in rels.split(";"))
        pres = Presentation(("a", "b"), relators)
        assert todd_coxeter(pres).index == order
    cube = Presentation(("a", "b"),
                        (parse_word("a^4"), parse_word("b^2"), parse_word("a b a b a b")))
    G = group_from_coset_table(todd_coxeter(cube), "cube-rotations")
    assert is_isomorphic(G, build_group("symmetric:4"))


def test_triangle_group_converts_to_group():
    pres = Presentation(("a", "b"),
                        (parse_word("a^3"), parse_word("b^3"), parse_word("a b a b")))
    G = group_from_coset_table(todd_coxeter(pres), "alt4")
    from lowerk.groups import center, conjugacy_classes
    assert G.order == 12
    assert center(G).order == 1
    assert sorted(len(c) for c in conjugacy_classes(G)) == [1, 3, 4, 4]


def test_coset_enumeration_with_subgroup():
    pres = Presentation(("g",), (Word((("g", 5),)),))
    assert todd_coxeter(pres, (Word((("g", 1),)),)).index == 1


def test_braid_group_indexes():
    assert todd_coxeter(van_buskirk(1)).index == 2
    assert todd_coxeter(van_buskirk(2)).index == 16
    # the pure subgroup of the 2-strand group has index 2
    subgroup = (parse_word("r1"), parse_word("r2"), parse_word("s1^2"))
    assert todd_coxeter(van_buskirk(2), subgroup).index == 2


def test_braid_group_on_three_strands_is_infinite():
    with pytest.raises(LimitExceeded) as info:
        todd_coxeter(van_buskirk(3), coset_limit=2000)
    # coincidences have merged some of the 2000 defined cosets away
    exc = info.value
    assert (exc.limit, exc.live) == (2000, 1833)
    assert str(exc) == "coset enumeration exceeded limit 2000 (1833 cosets live)"


def test_two_strand_group_is_generalized_quaternion():
    ct = todd_coxeter(van_buskirk(2))
    G = group_from_coset_table(ct, "braid2")
    assert is_isomorphic(G, build_group("dicyclic:16"))


def _trace(ct, coset, word):
    for sym, sgn in word.letters():
        coset = ct.table[coset][ct.column(sym, sgn)]
    return coset


def test_coset_table_self_consistency():
    for pres in (van_buskirk(1), van_buskirk(2),
                 Presentation(("g",), (Word((("g", 12),)),))):
        ct = todd_coxeter(pres)
        for rel in pres.relators:
            for c in range(ct.index):
                assert _trace(ct, c, rel) == c


def test_verify_homomorphism_identity_images():
    pres = van_buskirk(3)
    target = build_group("cyclic:1")
    images = {g: Word() for g in pres.generators}
    assert verify_homomorphism(pres, target, images).ok


def test_verify_homomorphism_with_quotient_projection():
    from lowerk.groups import center, quotient

    pres = Presentation(("x", "y"), (parse_word("x^6 y^-2"), parse_word("y x y^-1 x")))
    D24 = build_group("dicyclic:24")
    images = {g: parse_word(g) for g in ("x", "y")}
    assert verify_homomorphism(pres, D24, images).ok
    # the quotient keeps D24's labels, so the same words name the projections
    assert verify_homomorphism(pres, quotient(D24, center(D24)), images).ok


def test_verify_homomorphism_reports_failures():
    pres = Presentation(("x",), (parse_word("x^5"),))
    Z4 = build_group("cyclic:4")
    report = verify_homomorphism(pres, Z4, {"x": parse_word("g")})
    assert not report.ok
    assert report.failing_relators == [parse_word("x^5")]


class _EvaluateOnly:
    """A target that exposes `evaluate` and nothing else."""

    __slots__ = ("evaluate",)

    def __init__(self, group):
        self.evaluate = group.evaluate


def test_verify_homomorphism_needs_only_evaluate_in_the_b3_amalgam():
    from lowerk.casebook import PHI_IMAGES, full_braid_amalgam

    target = _EvaluateOnly(full_braid_amalgam())
    assert verify_homomorphism(van_buskirk(3), target, PHI_IMAGES).ok
    images = dict(PHI_IMAGES, s1=PHI_IMAGES["s2"])
    assert not verify_homomorphism(van_buskirk(3), target, images).ok


def test_verify_homomorphism_needs_only_evaluate_in_a_finite_group():
    pres = Presentation(("x", "y"), (parse_word("x^6 y^-2"), parse_word("y x y^-1 x")))
    D24 = _EvaluateOnly(build_group("dicyclic:24"))
    assert verify_homomorphism(pres, D24, {g: parse_word(g) for g in ("x", "y")}).ok
    report = verify_homomorphism(pres, D24, {"x": parse_word("x"), "y": parse_word("x")})
    assert report.failing_relators == list(pres.relators)


def test_verify_homomorphism_reads_an_image_that_no_relator_uses():
    pres = Presentation(("x", "z"), (parse_word("x^4"),))
    with pytest.raises(UnknownSymbol):
        verify_homomorphism(pres, build_group("cyclic:4"), {"x": parse_word("g"),
                                                            "z": parse_word("nope")})


image_words = st.lists(st.tuples(st.sampled_from("xy"), st.integers(-3, 3)), max_size=4).map(Word)


@given(entries, entries, st.fixed_dictionaries({s: image_words for s in "abc"}))
def test_substitute_respects_products_and_inverses(raw1, raw2, images):
    w1, w2 = Word(raw1), Word(raw2)
    assert (w1 * w2).substitute(images) == w1.substitute(images) * w2.substitute(images)
    assert w1.inverse().substitute(images) == w1.substitute(images).inverse()
    assert Word().substitute(images) == Word()
    for sym in "abc":
        assert parse_word(sym).substitute(images) == images[sym]
    assert w1.substitute({s: parse_word(s) for s in "abc"}) == w1


@pytest.mark.parametrize("image", [-1, 9, 3, True, "x"])
def test_verify_homomorphism_refuses_an_image_that_is_not_a_word(image):
    # -1 would read as element 3 of Z/4 and 9 would index past the table
    pres = Presentation(("x",), (parse_word("x^4"),))
    with pytest.raises(ValueError, match="not a Word"):
        verify_homomorphism(pres, build_group("cyclic:4"), {"x": image})


def test_verify_homomorphism_refuses_a_key_that_is_not_a_generator():
    pres = Presentation(("x",), (parse_word("x^4"),))
    with pytest.raises(UnknownSymbol, match="'zz' is not a generator"):
        verify_homomorphism(pres, build_group("cyclic:4"), {"x": parse_word("g"), "zz": Word()})


def test_verify_homomorphism_missing_image():
    pres = Presentation(("x",), ())
    with pytest.raises(UnknownSymbol):
        verify_homomorphism(pres, build_group("cyclic:2"), {})


@pytest.mark.parametrize("exp", [2.5, "3", True, False, None])
def test_word_refuses_an_exponent_that_is_not_an_int(exp):
    # 2.5 would floor to a^2, "3" would read as a^3 and True would count as 1
    with pytest.raises(ValueError, match="not an int"):
        Word((("a", exp),))


@pytest.mark.parametrize("text", ["^2", "a ^-1", "^"])
def test_parse_word_refuses_a_power_of_no_symbol(text):
    with pytest.raises(ValueError):
        parse_word(text)


@pytest.mark.parametrize("n", [True, False, 2.0, "2", None])
def test_word_power_refuses_an_exponent_that_is_not_an_int(n):
    # True would return the word itself and 2.0 raised a bare TypeError
    with pytest.raises(ValueError, match="not an int"):
        parse_word("a b") ** n


@pytest.mark.parametrize("text", ["a^1_0", "a^٣", "a^²", "a^", "a^+3", "a^--1", "a^ 2"])
def test_parse_word_refuses_an_exponent_the_printer_never_emits(text):
    # int() would read "1_0" as 10 and the Arabic-Indic digit three as 3
    token = text.split()[0]
    with pytest.raises(ValueError, match=re.escape(f"token {token!r}")):
        parse_word(text)


def test_parse_word_reads_signed_ascii_exponents():
    assert parse_word("a^10 b^-3 a^0") == Word((("a", 10), ("b", -3)))


@pytest.mark.parametrize("limit", [True, False, 2.5, "3", None])
def test_todd_coxeter_refuses_a_limit_that_is_not_an_int(limit):
    # True read as a limit of 1 and 2.5 as a limit between 2 and 3
    pres = Presentation(("g",), (Word((("g", 3),)),))
    with pytest.raises(ValueError, match="not an int"):
        todd_coxeter(pres, coset_limit=limit)


@pytest.mark.parametrize("limit", [0, -1])
def test_todd_coxeter_refuses_a_limit_below_one(limit):
    pres = Presentation(("g",), (Word((("g", 3),)),))
    with pytest.raises(ValueError, match="must be positive"):
        todd_coxeter(pres, coset_limit=limit)


def _seed_todd_coxeter(pres, subgroup_gens=(), coset_limit=DEFAULT_COSET_LIMIT):
    """The enumerator that scans every relator from every live coset, kept
    as an oracle for the one that scans a power relator once per cycle."""
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


def _enumerate(enumerator, pres, subgroup, limit):
    """The table, or the (limit, live) of the LimitExceeded raised."""
    try:
        return enumerator(pres, subgroup, coset_limit=limit).table
    except LimitExceeded as exc:
        return (exc.limit, exc.live)


def _dicyclic_relators(n, rotations, inverted):
    """x^2n, y^2 x^-n and y x y^-1 x, each cyclically rotated and possibly
    inverted: conjugates of relators or their inverses, so the same group."""
    out = []
    for word, k, inv in zip((f"x^{2 * n}", f"y^2 x^-{n}", "y x y^-1 x"), rotations, inverted):
        letters = list(parse_word(word).letters())
        if inv:
            letters = [(s, -e) for s, e in reversed(letters)]
        k %= len(letters)
        out.append(Word(letters[k:] + letters[:k]))
    return out


def _run_relators(draw):
    """x^+-2n; half the time a second pure power x^+-b, b != 2n, so that the
    x-cycles recorded first collapse when the other power is scanned; a
    rotation of y^c x^-n or its inverse, the rotation splitting the x-run
    in two; and y x y^-1 x^s, which collapses the group for most s.  The
    subgroup is generated by a power of x or is trivial, and the limit
    often falls inside the enumeration."""
    n = draw(st.integers(2, 40))
    rels = [Word((("x", draw(st.sampled_from((2 * n, -2 * n)))),))]
    if draw(st.booleans()):
        b = draw(st.integers(2, 4 * n).filter(lambda b: b != 2 * n))
        rels.append(Word((("x", draw(st.sampled_from((b, -b)))),)))
    letters = list(parse_word(f"y^{draw(st.integers(1, 3))} x^-{n}").letters())
    if draw(st.booleans()):
        letters = [(s, -e) for s, e in reversed(letters)]
    k = draw(st.integers(0, len(letters) - 1))
    rels.append(Word(letters[k:] + letters[:k]))
    rels.append(parse_word(f"y x y^-1 x^{draw(st.sampled_from((1, -1, 2, -2, 3)))}"))
    subgroup = (Word((("x", draw(st.integers(1, 2 * n))),)),) if draw(st.booleans()) else ()
    return rels, subgroup, draw(st.integers(8, 12 * n))


@st.composite
def power_presentations(draw):
    """2- and 3-generator presentations full of proper powers: generator
    powers, powers (w)^k of short words such as (ab)^k, the rotated or
    inverted dicyclic relators, and long x-runs beside one or two pure
    powers of x, which the enumerator jumps."""
    kind = draw(st.sampled_from(("dicyclic", "powers", "runs")))
    if kind == "runs":
        gens, (rels, subgroup, limit) = ("x", "y"), _run_relators(draw)
        order = draw(st.permutations(range(len(rels))))
        return Presentation(gens, tuple(rels[i] for i in order)), subgroup, limit
    if kind == "dicyclic":
        n = draw(st.integers(1, 12))
        rotations = draw(st.lists(st.integers(0, 40), min_size=3, max_size=3))
        inverted = draw(st.lists(st.booleans(), min_size=3, max_size=3))
        gens, rels = ("x", "y"), _dicyclic_relators(n, rotations, inverted)
    else:
        gens = ("a", "b", "c")[:draw(st.integers(2, 3))]
        rels = [Word(((g, draw(st.integers(1, 6))),)) for g in gens
                if draw(st.booleans())]
        letters = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
        for _ in range(draw(st.integers(1, 3))):
            base = draw(st.lists(letters, min_size=1, max_size=3))
            rels.append(Word(base) ** draw(st.integers(1, 6)))
    order = draw(st.permutations(range(len(rels))))
    subgroup = tuple(Word(((g, 1),)) for g in gens[:draw(st.integers(0, 1))])
    limit = draw(st.sampled_from((16, 64, 400)))
    return Presentation(gens, tuple(rels[i] for i in order)), subgroup, limit


@settings(max_examples=300, deadline=None)
@given(power_presentations())
def test_todd_coxeter_matches_the_scan_every_relator_oracle(case):
    pres, subgroup, limit = case
    assert _enumerate(todd_coxeter, pres, subgroup, limit) == \
        _enumerate(_seed_todd_coxeter, pres, subgroup, limit)


def _scans_of(cols_length, enumerator, pres):
    """Count the calls of scan_and_fill on a relator of `cols_length` letters."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if (event == "call" and frame.f_code.co_name == "scan_and_fill"
                and len(frame.f_locals["cols"]) == cols_length):
            count += 1

    sys.setprofile(hook)
    try:
        table = enumerator(pres).table
    finally:
        sys.setprofile(None)
    return count, table


def test_a_power_relator_is_scanned_once_per_cycle():
    # <x, y | x^400, y^2 x^-200, y x y^-1 x> is dicyclic of order 800: the
    # cosets fall into two x-cycles, and x^400 closes once on each
    pres = Presentation(("x", "y"), tuple(parse_word(r) for r in
                                          ("x^400", "y^2 x^-200", "y x y^-1 x")))
    scans, table = _scans_of(400, todd_coxeter, pres)
    seed_scans, seed_table = _scans_of(400, _seed_todd_coxeter, pres)
    assert (scans, seed_scans) == (2, 800)
    assert table == seed_table and len(table) == 800


@pytest.mark.parametrize("gens,relators,subgroup,limit", [
    # a walk recorded before the other power of x collapses it; a jump that
    # skipped rep() would land on a merged coset
    ("xy", ("x^40", "y x^-20", "y x y^-1 x^3"), (), 41),
    # a power of x^-1 walks its cycle backwards
    ("xy", ("x^-42", "y x^-21", "y x y^-1 x^2"), ("x^3",), 8),
    # the backward jump must stop at the letter the forward walk reached
    ("xy", ("x^6", "y x y^-1 x", "x^-1 y x^-2"), ("x^2",), 8),
    ("xy", ("y^2 x^-2", "x^4", "y x y^-1 x^2"), (), 8),
    # only a pure power records a cycle of its generator, not (c a)^3
    ("abc", ("c^2", "c a c a c a", "a c^2"), (), 16),
    # no cycle is recorded from a coset its own scan merged away
    ("ab", ("b^3", "a^3", "a^4", "a b a b"), (), 16),
])
def test_todd_coxeter_matches_the_oracle_where_a_jump_could_go_wrong(gens, relators, subgroup,
                                                                      limit):
    pres = Presentation(tuple(gens), tuple(parse_word(r) for r in relators))
    subgroup = tuple(parse_word(w) for w in subgroup)
    assert _enumerate(todd_coxeter, pres, subgroup, limit) == \
        _enumerate(_seed_todd_coxeter, pres, subgroup, limit)


def _letters_and_jumps(pres):
    """Count the table entries todd_coxeter's scans read and the runs they
    jump, by the lines that do each."""
    lines, first = inspect.getsourcelines(todd_coxeter)
    kind = {}
    for number, line in enumerate(lines, first):
        if line.strip().startswith("g = table["):
            kind[number] = "letters"
        elif line.strip().startswith("g = rep("):
            kind[number] = "jumps"
    # two reads in the letter walk, one read and one jump in the jump walk
    assert sorted(kind.values()) == ["jumps", "letters", "letters", "letters"]
    count = {"letters": 0, "jumps": 0}

    def line_hook(frame, event, arg):
        if event == "line" and frame.f_lineno in kind:
            count[kind[frame.f_lineno]] += 1
        return line_hook

    def call_hook(frame, event, arg):
        return line_hook if frame.f_code.co_filename == todd_coxeter.__code__.co_filename else None

    sys.settrace(call_hook)
    try:
        table = todd_coxeter(pres).table
    finally:
        sys.settrace(None)
    return count, table


def test_a_run_along_a_closed_cycle_is_jumped():
    # the letter walk reads 167,601 table entries here, nearly all of them
    # along the x-run of y^2 x^-200 from each of the 800 cosets
    pres = Presentation(("x", "y"), tuple(parse_word(r) for r in
                                          ("x^400", "y^2 x^-200", "y x y^-1 x")))
    count, table = _letters_and_jumps(pres)
    assert count["letters"] <= 10_000 and count["jumps"] > 0
    assert table == _seed_todd_coxeter(pres).table


def test_the_binary_octahedral_relators_keep_the_letter_walk():
    # X^3 is its only pure power and no relator has a run of X
    count, _ = _letters_and_jumps(_BINARY_OCTAHEDRAL_PRESENTATION)
    assert count == {"letters": 2000, "jumps": 0}
