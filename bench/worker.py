"""One benchmark pass in a fresh process.

Usage: python bench/worker.py <workload> <plain|trace>

The worker imports lowerk, does the workload's fixed set-up and prints
``ready``.  It then reads ``{"ops": [...], "deadline_s": x, "check": b,
"scale": b}`` from stdin, decodes every op's input, runs the ops one at a
time, each under a SIGALRM deadline, and prints one JSON reply with every
op's seconds, a digest of every output and the peak resident set over the
ops.  With ``scale`` the reference loop of speed.py runs between the ops
and every op also gets its scaled seconds.  With ``check`` every output is
checked against the oracles; a run checks its first pass that way, without
the reference loop, whose table would add to the resident set, and
compares the digests of later passes, which repeat the same ops, with the
first.

With ``trace`` every call into a lowerk layer is recorded as a span (name,
start, end, parent span, op id) together with deterministic counts taken at
the same boundary.  Spans stay in memory until the reply is written; the
plain mode goes through the same stage functions with a tracer that does
nothing, so the two modes differ only by the recording.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import speed
from lowerk import abelian, casebook, fusion, groups, ktheory, presentations
from lowerk.errors import UnknownSchurData

perf = time.perf_counter


class Deadline(BaseException):
    """Raised by SIGALRM in a running op; BaseException so that no handler
    in the program under test can swallow it."""


_armed = [False]


def _on_alarm(signum, frame):
    if _armed[0]:
        _armed[0] = False
        raise Deadline()


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class NullTracer:
    op = -1

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def count(name, value):
        pass

    @staticmethod
    def high(name, value):
        pass


class Tracer:
    def __init__(self):
        self.op = -1
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.highs: dict[str, int] = {}

    def call(self, name, fn, *args):
        sid = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(span)
        self._stack.append(sid)
        span[1] = perf()
        try:
            return fn(*args)
        finally:
            span[2] = perf()
            self._stack.pop()

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def high(self, name, value):
        if value > self.highs.get(name, -1):
            self.highs[name] = value

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op id, the self time of every span name: its duration minus
        the part covered by its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            per = out.setdefault(op, {})
            per[name] = per.get(name, 0.0) + (end - start) - child[sid]
        return out


# ---------------------------------------------------------------------------
# set-up, input decoding and the ops themselves
# ---------------------------------------------------------------------------

class State:
    """What a workload builds once: the b3 amalgam for words and the sweep."""

    def __init__(self, am=None):
        self.am = am


def setup(workload: str, t) -> State:
    """For words and the sweep, the b3 amalgam.  Its octahedral vertex group
    is built first through build_group, which caches it, so that the table
    build and the amalgam construction each get their own span."""
    if workload in ("words", "sweep"):
        run_build(t, None, "binary-octahedral")
        return State(t.call("amalgams.construct", casebook.full_braid_amalgam))
    return State()


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def word_of(entries):
    return presentations.Word(tuple((s, e) for s, e in entries))


def prepare(st: State, op: dict):
    """Decode an op's input outside the timed region.  Write ops get their
    operands as normal forms here, so only the write itself is timed."""
    kind = op["kind"]
    if kind in ("todd_coxeter", "sweep_todd_coxeter"):
        return presentations.Presentation(("x", "y"), tuple(presentations.parse_word(r) for r in op["relators"]))
    if kind in ("evaluate", "sweep_evaluate"):
        return word_of(op["word"])
    if kind in ("inv", "power", "sweep_power"):
        return st.am.evaluate(word_of(op["word"]))
    if kind == "mul":
        return st.am.evaluate(word_of(op["left"])), st.am.evaluate(word_of(op["right"]))
    if kind == "order_of":
        u = op["conjugator"]
        return st.am.evaluate(word_of(u + op["core"] + [[s, -e] for s, e in reversed(u)]))
    if kind == "dense":
        m = op["matrix"]
        fmap = abelian.AbelianMap(abelian.AbelianPresentation(len(m[0])), abelian.AbelianPresentation(len(m)),
                            tuple(tuple(r) for r in m))
        return m, fmap
    if kind == "sweep_snf":
        return op["matrix"]
    return None


def run_build(t, st: State, name: str):
    G = t.call("groups.build_group", groups.build_group, name)
    t.count("groups.table_entries", G.order * G.order)
    return G


def run_ksheet(t, st: State, name: str) -> dict:
    """The stages of `lowerk ksheet`, called one by one."""
    G = run_build(t, st, name)
    classes = t.call("groups.conjugacy_classes", groups.conjugacy_classes, G)
    t.count("groups.classes", len(classes))
    fused = t.call("fusion.fused_classes", fusion.fused_classes, G, fusion.Rational())
    t.count("fusion.blocks", fused.count)
    per_prime = {}
    for p in prime_factors(G.order):
        qp = t.call("fusion.fused_classes", fusion.fused_classes, G, fusion.Padic(p))
        fp = t.call("fusion.fused_classes", fusion.fused_classes, G, fusion.ModP(p))
        t.count("fusion.blocks", qp.count + fp.count)
        per_prime[p] = (qp.count, fp.count)
    rank = t.call("ktheory.carter_rank", ktheory.carter_rank, G)
    return {"group": name, "G": G, "order": G.order, "classes": classes, "r_Q": fused.count,
            "per_prime": per_prime, "carter_rank": rank}


def run_todd_coxeter(t, st: State, pres):
    ct = t.call("presentations.todd_coxeter", presentations.todd_coxeter, pres)
    t.count("presentations.cosets", ct.index)
    return ct


def run_snf(t, st: State, m):
    s = t.call("abelian.snf", abelian.smith_normal_form, m)
    t.high("abelian.max_entry_bits",
           max((abs(x).bit_length() for mat in (s.u, s.d, s.v, s.u_inv, s.v_inv)
                for row in mat for x in row), default=0))
    return s


def run_dense(t, st: State, prep):
    m, fmap = prep
    s = run_snf(t, st, m)
    ker = t.call("abelian.kernel", abelian.kernel, fmap)
    coker = t.call("abelian.cokernel", abelian.cokernel, fmap)
    return s, ker, coker


def degree_map(spec, degree: str):
    """The induced map of one degree against the canonical coordinates:
    source (torsion, free) of C, target (torsion of A, torsion of B, free
    of A, free of B)."""
    a, b, c = (spec.sheet(g).entries[degree] for g in (spec.group_a, spec.group_b, spec.group_c))

    def pres(torsion, free):
        n = len(torsion) + free
        return abelian.AbelianPresentation(n, tuple(tuple(d if j == i else 0 for j in range(n))
                                              for i, d in enumerate(torsion)))

    source = pres(c.torsion, c.free_rank)
    target = pres(a.torsion + b.torsion, a.free_rank + b.free_rank)
    return abelian.AbelianMap(source, target, spec.maps[degree].matrix)


def run_assembly(t, st: State, raw: dict):
    """Parse, then kernel and cokernel of every degree map, then assemble."""
    spec = t.call("ktheory.spec_parse", ktheory.assembly_spec_from_json, raw)
    stages = {}
    for deg in ktheory.DEGREES:
        f = degree_map(spec, deg)
        stages[deg] = (f, t.call("abelian.kernel", abelian.kernel, f),
                       t.call("abelian.cokernel", abelian.cokernel, f))
    assembled = t.call("ktheory.assemble", ktheory.amalgam_k_assemble, spec)
    return spec, stages, assembled


def run_case(t, st: State, name: str):
    return t.call(f"casebook.{name}", casebook.run_case, name)


def run_case_stages(t, st: State) -> dict:
    """The layer calls the bundled cases make, one span each."""
    am = t.call("amalgams.construct", casebook.full_braid_amalgam)
    hom = t.call("presentations.verify_homomorphism", presentations.verify_homomorphism,
                 presentations.van_buskirk(3), am, casebook.PHI_IMAGES)
    singular = {}
    for name in ("dicyclic:12", "dicyclic:24"):
        H = run_build(t, st, name)
        for p in (2, 3):
            singular[(name, p)] = len(t.call("fusion.p_singular_classes", fusion.p_singular_classes, H, p))
    iso = {}
    q8 = run_build(t, st, "quaternion:8")
    for V, target in ((am.A, "symmetric:4"), (am.B, "dihedral:6"), (am.C, "dihedral:3"),
                      (q8, "dihedral:2")):
        Q = t.call("groups.quotient", groups.quotient, V, t.call("groups.center", groups.center, V))
        T = run_build(t, st, target)
        iso[target] = t.call("groups.is_isomorphic", groups.is_isomorphic, Q, T)
    return {"hom_ok": hom.ok, "singular": singular, "iso": iso}


def run_paper(t, st: State, argv: list):
    """In-process stages of one paper-path CLI command."""
    cmd = argv[0]
    if cmd == "verify":
        names = list(casebook.CASES) if argv[1] == "all" else [argv[1]]
        return [run_case(t, st, n) for n in names]
    if cmd == "assemble":
        raw = casebook.bundled_spec_json(argv[1])
        spec = t.call("ktheory.spec_parse", ktheory.assembly_spec_from_json, raw)
        return t.call("ktheory.assemble", ktheory.amalgam_k_assemble, spec)
    if cmd == "ksheet":
        out = run_ksheet(t, st, argv[1])
        try:
            out["K_-1"] = t.call("ktheory.k_minus1", ktheory.k_minus1, out["G"])
        except UnknownSchurData:
            out["K_-1"] = None
        return out
    if cmd == "classes":
        G = run_build(t, st, argv[1])
        return t.call("fusion.fused_classes", fusion.fused_classes, G, fusion.Rational())
    G = run_build(t, st, argv[2])   # group info <name>
    classes = t.call("groups.conjugacy_classes", groups.conjugacy_classes, G)
    return {"order": G.order, "classes": classes,
            "center": t.call("groups.center", groups.center, G).order}


def run_amalgam(t, st: State, name: str, *args):
    e = t.call(f"amalgams.{name}", getattr(st.am, name), *args)
    t.count("amalgams.syllables", len(e.syllables))
    return e


def run_evaluate(t, st: State, word):
    t.count("amalgams.letters", word.length)
    return run_amalgam(t, st, "evaluate", word)


def run_order_of(t, st: State, e):
    t.count("amalgams.syllables", len(e.syllables))
    return t.call("amalgams.order_of", st.am.order_of, e)


RUN = {
    "ksheet": lambda t, st, prep, op: run_ksheet(t, st, op["group"]),
    "todd_coxeter": lambda t, st, prep, op: run_todd_coxeter(t, st, prep),
    "evaluate": lambda t, st, prep, op: run_evaluate(t, st, prep),
    "mul": lambda t, st, prep, op: run_amalgam(t, st, "mul", *prep),
    "inv": lambda t, st, prep, op: run_amalgam(t, st, "inv", prep),
    "order_of": lambda t, st, prep, op: run_order_of(t, st, prep),
    "power": lambda t, st, prep, op: run_amalgam(t, st, "power", prep, op["n"]),
    "dense": lambda t, st, prep, op: run_dense(t, st, prep),
    "assembly": lambda t, st, prep, op: run_assembly(t, st, op["spec"]),
    "paper": lambda t, st, prep, op: run_paper(t, st, op["argv"]),
    "case_stages": lambda t, st, prep, op: run_case_stages(t, st),
    "sweep_todd_coxeter": lambda t, st, prep, op: run_todd_coxeter(t, st, prep),
    "sweep_build_group": lambda t, st, prep, op: run_build(t, st, f"dicyclic:{op['size']}"),
    "sweep_ksheet": lambda t, st, prep, op: run_ksheet(t, st, f"cyclic:{op['size']}"),
    "sweep_evaluate": lambda t, st, prep, op: run_evaluate(t, st, prep),
    "sweep_power": lambda t, st, prep, op: run_amalgam(t, st, "power", prep, op["size"]),
    "sweep_snf": lambda t, st, prep, op: run_snf(t, st, prep),
}


def own_peak_kb() -> int:
    """Peak resident set of this process since its exec (VmHWM).  Its
    ru_maxrss would also count the resident set of the harness that
    spawned it, which Linux carries over."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def check_all(st: State, ops, prepared, outputs, records) -> None:
    import oracle
    ctx = oracle.Context(st)
    for op, prep, out, rec in zip(ops, prepared, outputs, records):
        if rec["status"] != "ok":
            continue
        try:
            problem = oracle.check(ctx, op, prep, out)
        except Exception as exc:  # a checker that cannot digest the output rejects it
            problem = f"oracle raised {exc!r}"
        if problem:
            rec["status"], rec["detail"] = "wrong", problem


def main() -> int:
    workload, mode = sys.argv[1], sys.argv[2]
    signal.signal(signal.SIGALRM, _on_alarm)
    t = Tracer() if mode == "trace" else NullTracer()
    st = setup(workload, t)
    print("ready", flush=True)
    request = json.loads(sys.stdin.read())
    ops, deadline = request["ops"], request["deadline_s"]
    prepared = [prepare(st, op) for op in ops]

    outputs, records = [], []
    scale = request["scale"]
    ref = speed.reference() if scale else None
    for i, (op, prep) in enumerate(zip(ops, prepared)):
        t.op = i
        status, detail, out = "ok", "", None
        t0 = perf()
        _armed[0] = True
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            out = RUN[op["kind"]](t, st, prep, op)
        except Deadline:
            status, detail = "deadline", f"stopped after {deadline} s"
        except Exception as exc:  # an op that raises is a failed op, not a crashed pass
            status, detail = "error", repr(exc)
        finally:
            _armed[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf() - t0
        rec = {"kind": op["kind"], "size": op.get("size"), "seconds": seconds,
               "status": status, "detail": detail}
        if scale:
            ref, before = speed.reference(), ref
            rec["scaled"] = speed.scaled(seconds, before, ref)
        records.append(rec)
        outputs.append(out)
    peak_kb = own_peak_kb()   # before digests and checks

    import hashlib   # after the RSS reading: it maps libcrypto
    for out, rec in zip(outputs, records):
        if rec["status"] == "ok":
            rec["digest"] = hashlib.sha1(repr(out).encode()).hexdigest()
    if request["check"]:
        check_all(st, ops, prepared, outputs, records)
    if workload == "words" and ops and request["check"]:
        ledger = casebook.run_case("words")
        if not ledger.passed:
            records.append({"kind": "ledger", "size": None, "seconds": 0.0,
                            "status": "wrong", "detail": "bundled word ledger failed"})

    reply = {"peak_kb": peak_kb, "ops": records}
    if mode == "trace":
        selfs = t.self_times()
        for i, rec in enumerate(records[:len(ops)]):
            rec["spans"] = selfs.get(i, {})
        reply["setup_spans"] = selfs.get(-1, {})
        reply["counts"] = {**t.counts, **t.highs}
        reply["spans"] = t.spans
    sys.stdout.write(json.dumps(reply))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
