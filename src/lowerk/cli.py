"""Command-line surface: group inspection, fusion tables, K-sheets,
assembly of amalgam specs, and one-shot case verification.

Exit codes: 0 pass, 1 verification failure, 2 usage or parse error,
3 data gap (missing bundled data, ill-formed map, or a K-sheet, of a
spec or bundled for `ksheet`, that `ktheory.check_sheet` refuses).  A
command refuses by raising: `main` prints one `error:` line and takes
the code from the error's family in `errors` (`UsageError` 2, `DataGap`
3, any other `LowerKError` 1).  `parse_args` reads argv by hand, so a
misused command line is one `error:` line too, an abbreviated option is
refused, and no process imports argparse.  Only `verify` imports the
casebook, and with it the amalgams layer.
"""

from __future__ import annotations

from .abelian import FgAbelianGroup
from .errors import (
    AssemblySpecError,
    DataGap,
    LowerKError,
    UnknownSchurData,
    UnknownSpec,
    UsageError,
)
from .fusion import ModP, Padic, Rational, fused_classes, p_singular_classes
from .groups import build_group, center
from .ktheory import (
    amalgam_k_assemble,
    assembly_spec_from_json,
    bass_rank,
    bundled_ksheets,
    bundled_spec_json,
    carter_rank,
    carter_stages,
    check_sheet,
    k_minus1,
    spec_object,
    DEGREES,
)

# after the library, whose import peak then has less beneath it (lower peak RSS)
import json
import os
import sys
from collections import Counter
from types import SimpleNamespace


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


def _emit(data: dict | list, fmt: str, table: str) -> None:
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
    r_q, per_prime, sc = carter_stages(G)
    rank = carter_rank(G)
    sheet = bundled_ksheets().get(G.name)
    try:    # a bundled sheet that the engine contradicts is refused here
        km1 = k_minus1(G) if sheet is None else check_sheet(sheet)
    except UnknownSchurData:
        km1 = None
    data = {
        "group": G.name,
        "r_Q": r_q,
        "per_prime": {str(p): {"r_Qp": a, "r_Fp": b} for p, (a, b) in per_prime.items()},
        "sc_rank": sc,
        "carter_rank": rank,
        "wh_rank": bass_rank(G),
    }
    rows = [("group", G.name), ("r_Q", str(r_q))]
    rows += [(f"p = {p}", f"r_Qp = {a}  r_Fp = {b}") for p, (a, b) in sorted(per_prime.items())]
    rows += [("sc rank", str(sc)), ("carter rank", str(rank)), ("wh rank", str(data["wh_rank"]))]
    if km1 is None:
        data["K_-1"] = "unknown torsion (no bundled Schur data)"
        rows.append(("K_-1", f"{FgAbelianGroup(rank)} + {data['K_-1']}"))
    else:
        data["K_-1"], data["K_-1_pretty"] = km1.to_json(), str(km1)
        rows.append(("K_-1", str(km1)))
    if sheet is not None:
        data["bundled"] = sheet.to_json()
        rows += [(f"bundled {deg}", str(sheet.entries[deg])) for deg in ("Wh", "K0t")]
    _emit(data, args.format, rows_to_table(rows))
    return 3 if km1 is None else 0


def _resolve_spec(path: str) -> dict:
    if os.path.isfile(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh, object_pairs_hook=spec_object)
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
    spec = assembly_spec_from_json(_resolve_spec(args.spec))
    for sheet in spec.sheets.values():
        check_sheet(sheet)
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
        raise UsageError(f"unknown case {args.case!r}; choose from {choices}")
    names = list(casebook.CASES) if args.case == "all" else [args.case]
    reports = [casebook.run_case(name) for name in names]
    payload = reports[0].to_dict() if len(reports) == 1 else [r.to_dict() for r in reports]
    _emit(payload, args.format, "\n\n".join(map(case_table, reports)) + "\n")
    return 0 if all(r.passed for r in reports) else 1


# each command's words, and the name of the one argument that follows them
_COMMANDS = {("group", "info"): "name", ("classes",): "name", ("ksheet",): "name",
             ("assemble",): "spec", ("verify",): "case"}
_USAGE = """usage: lowerk [--format table|json] COMMAND, where COMMAND is one of
  group info NAME          order, center, classes, element orders
  classes NAME --fusion F  fused or p-singular classes; F is q, qp:p, fp:p or singular:p
  ksheet NAME              representation counts and K_-1 data
  assemble SPEC            K-theory of a spec file or a bundled spec
  verify CASE              run a bundled verification case, or all
--format may also follow the command; options are not abbreviated."""


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """argv as `command` (its words), its one argument by name, `format` and
    `fusion`, the last of each option winning; None when -h or --help asks
    for the usage.  Any misuse raises UsageError."""
    if "-h" in argv or "--help" in argv:
        return None
    words, opts = [], {"format": "table", "fusion": None}
    for word in (rest := iter(argv)):
        if word[:1] != "-" or word == "-":
            words.append(word)
            continue
        opt, eq, value = word.partition("=")
        if opt != "--format" and (opt != "--fusion" or words[:1] != ["classes"]):
            raise UsageError(f"unknown option {opt!r} here (see lowerk --help)")
        if not eq:
            value = next(rest, "--")    # the end of argv reads as an option word
            if value[:1] == "-" and value != "-":
                raise UsageError(f"{opt} takes a value")
        if opt == "--format" and value not in ("table", "json"):
            raise UsageError(f"--format is table or json, not {value!r}")
        opts[opt[2:]] = value
    head = next((h for h in _COMMANDS if tuple(words[:len(h)]) == h), None)
    if head is None:
        raise UsageError("expected a command: group info, classes, ksheet, assemble or verify")
    if len(words) != len(head) + 1:
        raise UsageError(f"{' '.join(head)} takes one {_COMMANDS[head].upper()}")
    if head == ("classes",) and opts["fusion"] is None:
        raise UsageError("classes takes --fusion F")
    return SimpleNamespace(command=head, **opts, **{_COMMANDS[head]: words[-1]})


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_USAGE)
            return 0
        # the names are looked up at each call, so a replaced function is the one run
        return {"group": cmd_group_info, "classes": cmd_classes, "ksheet": cmd_ksheet,
                "assemble": cmd_assemble, "verify": cmd_verify}[args.command[0]](args)
    except LowerKError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 3 if isinstance(exc, DataGap) else 1


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
