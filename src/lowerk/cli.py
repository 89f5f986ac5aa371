"""Command-line surface: group inspection, fusion tables, K-sheets,
assembly of amalgam specs, and one-shot case verification.

Exit codes: 0 pass, 1 verification failure, 2 usage or parse error,
3 data gap (missing bundled data, ill-formed map).  Only `verify` imports
the casebook, and with it the amalgams layer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from .abelian import FgAbelianGroup, prime_factors
from .errors import (
    AssemblySpecError,
    IllFormedMap,
    LowerKError,
    MissingDegree,
    NotPrime,
    OrderLimitExceeded,
    UnknownSchurData,
    UnknownSpec,
)
from .fusion import (
    ModP,
    Padic,
    Rational,
    fused_classes,
    p_singular_classes,
    sc_rank,
)
from .groups import build_group, center
from .ktheory import (
    amalgam_k_assemble,
    assembly_spec_from_json,
    bundled_ksheets,
    bundled_spec_json,
    carter_rank,
    k_minus1,
    DEGREES,
)


def rows_to_table(rows: list[tuple[str, ...]]) -> str:
    """Left-aligned columns two spaces apart, trailing blanks stripped."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
                     for r in rows)


def case_table(report) -> str:
    """A verification report as its status line and a table of checks."""
    rows = [("check", "expected", "computed", "cite", "pass")]
    rows += [(c.name, c.expected, c.computed, c.cite, "ok" if c.passed else "FAIL")
             for c in report.checks]
    return f"case {report.case}: {'pass' if report.passed else 'FAIL'}\n" + rows_to_table(rows)


def _emit(data: dict, fmt: str, table: str) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2))
    else:
        print(table)


def cmd_group_info(args) -> int:
    G = build_group(args.name)
    inv = G.invariants()
    classes = inv.classes
    histogram = Counter()
    for cls, d in zip(classes, inv.orders):
        histogram[d] += len(cls)
    data = {
        "name": G.name,
        "order": G.order,
        "center_order": center(G).order,
        "class_sizes": sorted(len(c) for c in classes),
        "order_histogram": {str(k): v for k, v in sorted(histogram.items())},
    }
    rows = [("group", G.name),
            ("order", str(G.order)),
            ("center order", str(data["center_order"])),
            ("conjugacy classes", str(len(classes))),
            ("class sizes", " ".join(map(str, data["class_sizes"]))),
            ("element orders", " ".join(f"{k}:{v}" for k, v in sorted(histogram.items())))]
    _emit(data, args.format, rows_to_table(rows))
    return 0


def _parse_fusion(flag: str):
    if flag == "q":
        return Rational()
    kind, _, p = flag.partition(":")
    # ASCII only: str.isdigit() also holds for superscripts, which int()
    # refuses, and for other scripts' digits, which int() reads
    if kind in ("qp", "fp", "singular") and p.isascii() and p.isdigit():
        try:
            p = int(p)
        except ValueError:          # more digits than int() converts
            raise UnknownSpec("fusion prime has too many digits") from None
        return Padic(p) if kind == "qp" else (ModP(p) if kind == "fp" else ("singular", p))
    raise UnknownSpec(f"cannot parse fusion flag {flag!r}")


def cmd_classes(args) -> int:
    G = build_group(args.name)
    spec = _parse_fusion(args.fusion)
    if isinstance(spec, tuple):
        _, p = spec
        rows = [("order", "class")]
        data_rows = []
        for order, cls in p_singular_classes(G, p):
            labels = [G.element_names[i] for i in cls]
            rows.append((str(order), " ".join(labels)))
            data_rows.append({"order": order, "elements": labels})
        data = {"group": G.name, "p_singular": p, "classes": data_rows}
    else:
        fused = fused_classes(G, spec)
        rows = [("block", "classes")]
        data_rows = []
        for k, block in enumerate(fused.blocks):
            parts = ["{" + " ".join(G.element_names[i] for i in cls) + "}" for cls in block]
            rows.append((str(k), " ".join(parts)))
            data_rows.append({"block": k,
                              "classes": [[G.element_names[i] for i in cls] for cls in block]})
        data = {"group": G.name, "fusion": str(spec), "count": fused.count,
                "blocks": data_rows}
    _emit(data, args.format, rows_to_table(rows))
    return 0


def cmd_ksheet(args) -> int:
    G = build_group(args.name)
    r_q = fused_classes(G, Rational()).count
    per_prime = {}
    for p in prime_factors(G.order):
        per_prime[p] = (fused_classes(G, Padic(p)).count, fused_classes(G, ModP(p)).count)
    rank = carter_rank(G)
    sheet = bundled_ksheets().get(G.name)
    try:
        km1 = k_minus1(G)
    except UnknownSchurData:
        km1 = None
    data = {
        "group": G.name,
        "r_Q": r_q,
        "per_prime": {str(p): {"r_Qp": a, "r_Fp": b} for p, (a, b) in per_prime.items()},
        "sc_rank": sc_rank(G),
        "carter_rank": rank,
        # a bundled sheet must cite the K_-1 that Carter's formula computes
        "negk_consistent": sheet is None or km1 is None or sheet.entries["Km1"] == km1,
    }
    rows = [("group", G.name), ("r_Q", str(r_q))]
    for p, (a, b) in sorted(per_prime.items()):
        rows.append((f"p = {p}", f"r_Qp = {a}  r_Fp = {b}"))
    rows.append(("sc rank", str(data["sc_rank"])))
    rows.append(("carter rank", str(rank)))
    exit_code = 0
    if km1 is not None:
        data["K_-1"] = km1.to_json()
        data["K_-1_pretty"] = str(km1)
        rows.append(("K_-1", str(km1)))
    else:
        free = str(FgAbelianGroup(rank))
        data["K_-1"] = "unknown torsion (no bundled Schur data)"
        rows.append(("K_-1", f"{free} + unknown torsion (no bundled Schur data)"))
        exit_code = 3
    if sheet is not None:
        data["bundled"] = sheet.to_json()
        for deg in ("Wh", "K0t"):
            rows.append((f"bundled {deg}", str(sheet.entries[deg])))
    rows.append(("negk consistent", "yes" if data["negk_consistent"] else "NO"))
    _emit(data, args.format, rows_to_table(rows))
    return exit_code


def _resolve_spec(path: str) -> dict:
    if os.path.isfile(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except OSError as exc:
            raise AssemblySpecError(f"cannot read {path}: {exc.strerror or exc}") from None
        except ValueError as exc:
            raise AssemblySpecError(f"{path} is not valid JSON: {exc}") from None
        except RecursionError:
            raise AssemblySpecError(f"{path} nests too deeply to read") from None
    if os.path.dirname(path):
        raise AssemblySpecError(f"no such spec file: {path}")
    try:
        return bundled_spec_json(path)
    except (OSError, ValueError):   # no bundled spec, or a name no file can have
        raise AssemblySpecError(f"no such spec file or bundled spec: {path!r}") from None


def cmd_assemble(args) -> int:
    raw = _resolve_spec(args.spec)
    spec = assembly_spec_from_json(raw)
    assembled = amalgam_k_assemble(spec)
    data = {"name": spec.name,
            "amalgam": {"A": spec.group_a, "B": spec.group_b, "C": spec.group_c},
            "degrees": {}}
    rows = [("degree", "cokernel", "kernel shift", "nil", "total")]
    for deg in DEGREES:
        e = assembled[deg]
        data["degrees"][deg] = {
            "coker": e.coker.to_json(),
            "ker_shift": e.ker_shift.to_json(),
            "nil": e.nil.tag,
            "pretty": str(e),
        }
        rows.append((deg, str(e.coker), str(e.ker_shift), str(e.nil), str(e)))
    _emit(data, args.format, rows_to_table(rows))
    return 0


def cmd_verify(args) -> int:
    from . import casebook

    if args.case != "all" and args.case not in casebook.CASES:
        choices = ", ".join(casebook.CASES + ("all",))
        print(f"error: unknown case {args.case!r}; choose from {choices}", file=sys.stderr)
        return 2
    names = list(casebook.CASES) if args.case == "all" else [args.case]
    reports = [casebook.run_case(name) for name in names]
    if args.format == "json":
        payload = reports[0].to_dict() if len(reports) == 1 else [r.to_dict() for r in reports]
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            print(case_table(r))
            print()
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    # common flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"),
                        default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="lowerk",
        description="Lower K-theory of integral group rings of amalgams of finite groups.")
    parser.add_argument("--format", choices=("table", "json"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="group inspection", parents=[common])
    group_sub = group.add_subparsers(dest="subcommand", required=True)
    info = group_sub.add_parser("info", help="order, center, classes, element orders",
                                parents=[common])
    info.add_argument("name")
    info.set_defaults(func=cmd_group_info)

    classes = sub.add_parser("classes", help="fused or p-singular class tables",
                             parents=[common])
    classes.add_argument("name")
    classes.add_argument("--fusion", required=True,
                         help="q | qp:<p> | fp:<p> | singular:<p>")
    classes.set_defaults(func=cmd_classes)

    ksheet = sub.add_parser("ksheet", help="representation counts and K_-1 data",
                            parents=[common])
    ksheet.add_argument("name")
    ksheet.set_defaults(func=cmd_ksheet)

    assemble = sub.add_parser("assemble", help="assemble K-theory from a spec file",
                              parents=[common])
    assemble.add_argument("spec")
    assemble.set_defaults(func=cmd_assemble)

    verify = sub.add_parser("verify", help="run a bundled verification case",
                            parents=[common])
    verify.add_argument("case", help="a bundled case name, or all")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UnknownSpec, NotPrime, AssemblySpecError, MissingDegree,
            OrderLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnknownSchurData, IllFormedMap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except LowerKError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    """main() as a process.  When the reader closes stdout early, as `head`
    does, the output is cut short: exit 1 without a traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; give it a sink
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
