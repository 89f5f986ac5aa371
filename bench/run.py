#!/usr/bin/env python3
"""lowerk benchmark: closed-loop runs, checks, traced layer timings.

    python3 bench/run.py --workload <cases|groups|words|lattice|all>
                         --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere; it works on the checkout it lives in, with the
program imported from ``src/``.  Each workload is a closed loop with one
operation in flight (see NOTES.md for why each exists):

  cases    one ``python -m lowerk --format json ...`` process per op, from a
           seeded shuffle of the paper-path commands;
  groups   the ksheet pipeline over a doubling sweep of group orders, plus
           Todd-Coxeter on dicyclic presentations;
  words    normal-form reads and writes in the b3 amalgam;
  lattice  kernels and cokernels of synthetic assembly specs and of dense
           integer maps.

Every pass of groups, words and lattice starts in a fresh worker process, so
each pass pays what a CLI user pays.  Passes repeat until ``--seconds`` is
spent.  Every op runs under a deadline and every output is checked.  Times
are scaled to a fixed host speed with the reference loop of speed.py.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the layers
stage by stage in process, with and without span recording, and prints the
per-layer metrics, and runs the doubling sweeps once as a part of their
own.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Spans of a traced run are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import gen
import oracle
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PY = sys.executable
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("cases", "groups", "words", "lattice")
# per-op deadlines, ten times or more the slowest op measured on the seed
DEADLINE_S = {"cases": 20.0, "groups": 30.0, "words": 10.0, "lattice": 10.0, "sweep": 30.0}
SETUP_PROBES = 9
IMPORT_PROBES = 11
RUN_BUDGET_S = 170.0    # a run must end within 180 s

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}
LAYER_TIMES = (
    "casebook.pb3", "casebook.b3", "casebook.mcg-rp2-3", "casebook.words",
    "presentations.todd_coxeter", "presentations.verify_homomorphism",
    "groups.build_group", "groups.conjugacy_classes", "groups.is_isomorphic", "groups.quotient",
    "fusion.fused_classes", "fusion.p_singular_classes",
    "ktheory.carter_rank", "ktheory.spec_parse", "ktheory.assemble",
    "amalgams.construct", "amalgams.evaluate", "amalgams.mul", "amalgams.inv",
    "amalgams.order_of", "amalgams.power",
    "abelian.snf", "abelian.kernel", "abelian.cokernel",
)
LAYER_COUNTS = ("presentations.cosets", "groups.table_entries", "groups.classes", "fusion.blocks",
                "amalgams.letters", "amalgams.syllables", "abelian.max_entry_bits")
# doubling ratio name -> (sweep op kind, span whose time is compared)
DOUBLING = {
    "presentations.todd_coxeter": ("sweep_todd_coxeter", "presentations.todd_coxeter"),
    "groups.build_group": ("sweep_build_group", "groups.build_group"),
    "ktheory.carter_rank": ("sweep_ksheet", "ktheory.carter_rank"),
    "amalgams.evaluate": ("sweep_evaluate", "amalgams.evaluate"),
    "amalgams.power": ("sweep_power", "amalgams.power"),
    "abelian.snf": ("sweep_snf", "abelian.snf"),
}


class Deadline(Exception):
    pass


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


@contextmanager
def alarm(seconds: float):
    def fire(signum, frame):
        raise Deadline()
    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()


def kill(p: subprocess.Popen) -> None:
    if p.returncode is None:
        p.kill()
        p.wait()


# ---------------------------------------------------------------------------
# one process
# ---------------------------------------------------------------------------

# `python -m lowerk`, which prints the process's own peak resident set
# (VmHWM) to stderr at exit.  The ru_maxrss of os.wait4 would not do: Linux
# carries the resident set of the spawning process, this harness, into it.
CLI_MAIN = """
import atexit, runpy, sys
def peak():
    for line in open("/proc/self/status"):
        if line.startswith("VmHWM:"):
            print("peak_kb", line.split()[1], file=sys.stderr)
atexit.register(peak)
runpy.run_module("lowerk", run_name="__main__", alter_sys=True)
"""


def run_cli(argv: list[str], deadline: float) -> dict:
    """One `lowerk --format json` process, timed from spawn to reaping."""
    t0 = time.perf_counter()
    p = subprocess.Popen([PY, "-c", CLI_MAIN, "--format", "json", *argv], cwd=ROOT, env=ENV,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        with alarm(deadline):
            out = p.stdout.read()
            err = p.stderr.read().decode(errors="replace")
            code = p.wait()
    except Deadline:
        kill(p)
        return {"seconds": time.perf_counter() - t0, "status": "deadline", "rss": 0.0,
                "detail": f"stopped after {deadline} s"}
    finally:
        p.stdout.close()
        p.stderr.close()
    seconds = time.perf_counter() - t0
    peaks = [line.split()[1] for line in err.splitlines() if line.startswith("peak_kb ")]
    if not peaks:
        raise BenchError(f"lowerk {' '.join(argv)} did not report its peak resident set:\n{err}")
    rss = int(peaks[-1]) / 1024.0
    problem = oracle.check_cli(argv, code, out.decode())
    return {"seconds": seconds, "rss": rss, "status": "wrong" if problem else "ok",
            "detail": problem or ""}


def spawn_timed(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([PY, "-c", code], cwd=ROOT, env=ENV, check=True, timeout=60)
    return time.perf_counter() - t0


def spawn_scaled(code: str) -> float:
    before = speed.reference()
    seconds = spawn_timed(code)
    return speed.scaled(seconds, before, speed.reference())


def run_worker(workload: str, mode: str, ops: list, budget: float, check: bool = True,
               scale: bool = True) -> dict:
    """One fresh worker pass: scaled set-up time (the reference loop runs
    before the spawn and while the ready worker waits for its ops), the
    worker's reply, and the worker's peak RSS over the timed ops (read in
    the worker, so that the digests and checks after them do not count)."""
    before = speed.reference()
    t0 = time.perf_counter()
    p = subprocess.Popen([PY, WORKER, workload, mode], cwd=ROOT, env=ENV,
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        with alarm(budget):
            ready = p.stdout.readline()
            setup = speed.scaled(time.perf_counter() - t0, before, speed.reference())
            if ready.strip() != b"ready":
                p.stdin.close()
                err = p.stderr.read().decode(errors="replace")
                p.wait()
                raise BenchError(f"{workload} worker did not start:\n{err}")
            request = {"ops": ops, "deadline_s": DEADLINE_S[workload], "check": check,
                       "scale": scale}
            p.stdin.write(json.dumps(request).encode())
            p.stdin.close()
            raw = p.stdout.read()
            err = p.stderr.read().decode(errors="replace")
            code = p.wait()
    except Deadline:
        kill(p)
        return {"setup": time.perf_counter() - t0, "rss": 0.0,
                "ops": [{"kind": op["kind"], "size": op.get("size"), "seconds": budget,
                         "scaled": budget, "status": "deadline",
                         "detail": "pass stopped by the run budget"} for op in ops]}
    finally:
        for f in (p.stdin, p.stdout, p.stderr):
            f.close()
    if code != 0:
        raise BenchError(f"{workload} worker exited with {code}:\n{err}")
    reply = json.loads(raw)
    reply["setup"], reply["rss"] = setup, reply["peak_kb"] / 1024.0
    return reply


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def cases_pass(ops: list[dict], budget: float) -> dict:
    start = time.perf_counter()
    recs = []
    ref = speed.reference()
    for op in ops:
        rec = run_cli(op["argv"], min(DEADLINE_S["cases"], max(budget - (time.perf_counter() - start), 1)))
        ref, before = speed.reference(), ref
        rec.update(kind=op["kind"], argv=op["argv"], scaled=speed.scaled(rec["seconds"], before, ref))
        recs.append(rec)
    return {"ops": recs, "rss": max(rec["rss"] for rec in recs), "setup": None}


def setup_probe(workload: str, budget: float) -> float:
    if workload == "cases":
        return spawn_scaled("import lowerk.cli")
    return run_worker(workload, "plain", [], budget)["setup"]


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Passes over the run's op list, each in its own order, until
    `seconds` have passed (three passes at least).  The first pass is
    checked against the oracles and gives the peak resident set; the later
    passes must reproduce its outputs and are timed.  An op's latency is the
    low mean (speed.py) of its scaled times over the timed passes, and
    wall_s, the time to run the list back to back, sums those."""
    start = time.perf_counter()
    remaining = lambda: RUN_BUDGET_S - (time.perf_counter() - start)
    ops = gen.OPS[workload](seed)
    setups, passes, reference = [], [], {}
    samples: list[list[float]] = [[] for _ in ops]
    while len(passes) < 3 or time.perf_counter() - start < seconds:
        first = not passes
        order = gen.pass_order(workload, seed, len(passes), len(ops))
        batch = [ops[i] for i in order]
        if workload == "cases":
            setups.append(setup_probe(workload, remaining()))
            result = cases_pass(batch, remaining())
        else:
            result = run_worker(workload, "plain", batch, remaining(), check=first, scale=not first)
            setups.append(result["setup"])
        for i, rec in zip(order, result["ops"]):
            if not first:
                samples[i].append(rec["scaled"])
            if rec["status"] == "ok" and "digest" in rec:
                if first:
                    reference[i] = rec["digest"]
                elif reference.get(i, rec["digest"]) != rec["digest"]:
                    rec["status"], rec["detail"] = "wrong", "output differs from the checked first pass"
        passes.append(result)
        if remaining() < 30:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload, remaining()))
    per_op = [speed.low_mean(s) for s in samples]
    metrics = {
        "wall_s": math.fsum(per_op),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_p90_ms": 1000 * percentile(per_op, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": passes[0]["rss"],
    }
    recs = [rec for p in passes for rec in p["ops"]]
    timed = [rec for p in passes[1:] for rec in p["ops"]]
    extra = {"passes": len(passes),
             "host_slowdown": math.fsum(r["seconds"] for r in timed) / math.fsum(r["scaled"] for r in timed)}
    if workload == "cases":
        extra["verify_all_ms"] = 1000 * next(
            m for m, op in zip(per_op, ops) if op["argv"] == ["verify", "all"])
    return summarize(recs, metrics, END_TO_END, extra=extra)


def summarize(ops: list[dict], metrics: dict, units: dict, extra: dict | None = None,
              correct: bool = True) -> dict:
    failed = [op for op in ops if op["status"] != "ok"]
    correct = correct and not any(op["status"] in ("wrong", "error") for op in ops)
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
        "failures": [{k: op.get(k) for k in ("kind", "argv", "size", "status", "detail") if op.get(k)}
                     for op in failed[:20]],
        **(extra or {}),
    }


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------

def import_cost_ms() -> float:
    """`import lowerk.cli` minus a bare interpreter, median of paired
    scaled runs."""
    diffs = [spawn_scaled("import lowerk.cli") - spawn_scaled("pass") for _ in range(IMPORT_PROBES)]
    return 1000 * statistics.median(diffs)


def factor(op: dict) -> float:
    """Scaled over raw seconds of one op, which its span times are
    multiplied by, so that layer times are scaled like op times."""
    return op["scaled"] / op["seconds"] if op["seconds"] > 0 else 1.0


def doubling_ratio(ops: list[dict], kind: str, span: str) -> float:
    """Geometric mean over neighbouring sizes of time(2x) / time(x)."""
    by_size: dict[int, list[float]] = {}
    for op in ops:
        if op["kind"] == kind and op["status"] == "ok":
            by_size.setdefault(op["size"], []).append(op["spans"][span] * factor(op))
    sizes = sorted(by_size)
    times = [statistics.median(by_size[s]) for s in sizes]
    logs = [math.log(b / a) / math.log(y / x)
            for (x, a), (y, b) in zip(zip(sizes, times), zip(sizes[1:], times[1:]))]
    return 2 ** statistics.fmean(logs)


def span_totals(reply: dict) -> dict[str, float]:
    """Scaled self time per span name over one traced pass, set-up
    included; set-up spans take the pass's median op factor."""
    ops = [op for op in reply["ops"] if "spans" in op]
    setup = statistics.median(map(factor, ops)) if ops else 1.0
    out: dict[str, float] = {}
    for per_op, f in [(reply["setup_spans"], setup)] + [(op["spans"], factor(op)) for op in ops]:
        for name, seconds in per_op.items():
            out[name] = out.get(name, 0.0) + seconds * f
    return out


def median_totals(replies: list[dict]) -> dict[str, float]:
    totals = [span_totals(r) for r in replies]
    return {name: statistics.median(t.get(name, 0.0) for t in totals)
            for name in set().union(*totals)}


def layer_metrics(traced: list[dict]) -> dict:
    """Per-layer seconds of the workload: the median over its traced passes
    of each layer's summed self time, set-up included.  A layer the
    workload never calls reads 0."""
    own = median_totals(traced)
    return {name + "_s": own.get(name, 0.0) for name in LAYER_TIMES}


def sweep_ratios(sweeps: list[dict]) -> dict:
    """The ratios that only the sweep measures: the doubling ratios, and
    carter_rank time over the fused_classes stages it repeats, summed over
    the sweep's ksheet ops."""
    ops = [op for r in sweeps for op in r["ops"]]
    out = {name + ".doubling_ratio": doubling_ratio(ops, kind, span)
           for name, (kind, span) in DOUBLING.items()}
    ksheets = [op["spans"] for op in ops if op["kind"] == "sweep_ksheet" and op["status"] == "ok"]
    out["ktheory.carter_over_stages"] = (math.fsum(s["ktheory.carter_rank"] for s in ksheets)
                                         / math.fsum(s["fusion.fused_classes"] for s in ksheets))
    return out


def repeats(replies: list[dict]) -> bool:
    return all(r["counts"] == replies[0]["counts"] for r in replies)


def write_spans(workload: str, seed: int, traced: list[dict], sweeps: list[dict]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    dump = [{"pass": name, "rep": r, "spans": reply["spans"]}
            for name, replies in ((workload, traced), ("sweep", sweeps))
            for r, reply in enumerate(replies)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "passes": dump}, fh)


def run_sweep(seed: int, budget: float) -> dict:
    """Two traced passes of the doubling sweeps, in one worker each.  Their
    ratios go into every workload's per-layer metrics; their layer seconds
    are reported apart, as `sweep.<layer>_s`, and added to no workload."""
    start = time.perf_counter()
    ops = gen.sweep_ops(seed)
    replies = [run_worker("sweep", "trace", ops, budget - (time.perf_counter() - start))
               for _ in range(2)]
    totals = median_totals(replies)
    seconds = {f"{name}_s": totals[name] for name in LAYER_TIMES if name in totals}
    result = summarize([op for r in replies for op in r["ops"]], seconds,
                       {name: "s" for name in seconds}, correct=repeats(replies))
    result["replies"], result["seconds"] = replies, time.perf_counter() - start
    return result


def run_traced(workload: str, seed: int, seconds: float, sweep: dict) -> dict:
    """Workload passes in process, alternating plain and traced, for half
    of `seconds` (two pairs at least), after the sweep."""
    start = time.perf_counter()
    remaining = lambda: RUN_BUDGET_S - sweep["seconds"] - (time.perf_counter() - start)
    import_ms = import_cost_ms()
    ops = gen.traced_ops(workload, seed)
    plain, traced = [], []
    while len(plain) < 2 or (time.perf_counter() - start < seconds / 2 and remaining() > 60):
        order = ("plain", "trace") if len(plain) % 2 == 0 else ("trace", "plain")
        for mode in order:
            (plain if mode == "plain" else traced).append(run_worker(workload, mode, ops, remaining()))
    write_spans(workload, seed, traced, sweep["replies"])

    metrics = layer_metrics(traced)
    metrics.update(sweep_ratios(sweep["replies"]))
    counts = {**traced[0]["counts"]}
    metrics.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    metrics["cli.import_ms"] = import_ms
    scaled_wall = lambda r: math.fsum(op.get("scaled", 0.0) for op in r["ops"])
    metrics["trace_overhead_ratio"] = (statistics.median(map(scaled_wall, traced))
                                       / statistics.median(map(scaled_wall, plain)))
    units = {"cli.import_ms": "ms", "trace_overhead_ratio": "ratio",
             "ktheory.carter_over_stages": "ratio"}
    units.update({name + "_s": "s" for name in LAYER_TIMES})
    units.update({name + ".doubling_ratio": "ratio" for name in DOUBLING})
    units.update({name: "count" for name in LAYER_COUNTS})
    extra = {"pairs": len(plain)}
    if not repeats(traced):
        extra["count_mismatch"] = [r["counts"] for r in traced]
    return summarize([op for r in plain + traced for op in r["ops"]], metrics, units,
                     extra=extra, correct=repeats(traced))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def show(workload: str, result: dict) -> None:
    ratio = result["failed"] / result["attempted"]
    print(f"# {workload}: {result['attempted']} ops, fail_ratio {ratio:.4f}, "
          f"correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"{workload}.{name} = {m['value']:.6g} {m['unit']}")
    if "verify_all_ms" in result:
        print(f"{workload}.verify_all_ms = {result['verify_all_ms']:.6g} ms")
    if "host_slowdown" in result:
        print(f"# raw times were {result['host_slowdown']:.3f} x the scaled ones")
    for f in result["failures"]:
        print(f"  failed: {f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "lowerk", "__init__.py")):
        print(f"error: no lowerk sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        spawn_timed("import lowerk.cli")      # compiles bytecode on a fresh checkout
        if args.trace:
            sweep = run_sweep(args.seed, RUN_BUDGET_S / 2)
            results = {w: run_traced(w, args.seed, args.seconds, sweep) for w in workloads}
        else:
            results = {w: run_end_to_end(w, args.seed, args.seconds) for w in workloads}
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        del sweep["replies"]
        results["sweep"] = sweep
    for w, result in results.items():
        show(w, result)
    if args.workload == "all":
        print(json.dumps(results))
        return 0
    # the sweep is part of the run: its ops count and must be correct
    parts = results.values()
    print(json.dumps({"correct": all(r["correct"] for r in parts),
                      "attempted": sum(r["attempted"] for r in parts),
                      "failed": sum(r["failed"] for r in parts),
                      "metrics": results[args.workload]["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
