"""The library's public surface: the package re-exports nothing, every
public module-level function or class has a caller outside the tests,
and the public names whose only caller is the benchmark are pinned."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lowerk"
CALLERS = (PACKAGE, ROOT / "bench")


def _trees(directory):
    for path in sorted(directory.rglob("*.py")):
        if path != PACKAGE / "__init__.py":
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _loaded_after(statement, *flags):
    """The modules a fresh interpreter, started with `flags`, holds after
    running `statement`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = f"import sys\n{statement}\nprint(' '.join(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, *flags, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_import_lowerk_loads_no_submodule():
    assert sorted(m for m in _loaded_after("import lowerk") if m.startswith("lowerk.")) == []


# every module of the package, as the benchmark worker imports them;
# __main__ would run the command line
EVERY_MODULE = ", ".join(sorted(path.stem for path in PACKAGE.glob("*.py")
                                if path.stem not in ("__init__", "__main__")))


@pytest.mark.parametrize("statement, absent", [
    # class creation and its imports are start-up cost; only verify needs the casebook
    ("import lowerk.cli", ("dataclasses", "inspect", "lowerk.casebook", "lowerk.amalgams")),
    (f"from lowerk import {EVERY_MODULE}", ("dataclasses",)),
], ids=["cli", "every-module"])
def test_import_leaves_out(statement, absent):
    loaded = _loaded_after(statement)
    assert [m for m in absent if m in loaded] == []


def test_cli_import_reads_the_bundled_specs_without_importlib_resources():
    # ktheory reads the specs when the sheets are first asked for; without
    # site, which may load importlib.resources anyway, nothing else pulls
    # that package in
    statement = "import lowerk.cli\nfrom lowerk.ktheory import bundled_ksheets\nbundled_ksheets()"
    assert "importlib.resources" not in _loaded_after(statement, "-S")


# the files the built-in open is asked for while the command line is
# imported and runs `group info`, then those `ksheet` asks for after it
_OPENED_BY_COMMANDS = """
import builtins, contextlib, io, json, os
opened, _open = [], builtins.open
def spy(file, *args, **kwargs):
    opened.append(os.path.abspath(file))
    return _open(file, *args, **kwargs)
builtins.open = spy
import lowerk.cli
out = []
for argv in (["group", "info", "cyclic:4"], ["ksheet", "cyclic:4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        out.append([lowerk.cli.main(argv), opened[:]])
    opened.clear()
print(json.dumps(out))
"""


def test_a_command_that_needs_no_sheet_opens_no_spec():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _OPENED_BY_COMMANDS], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    specs = [(code, sorted(Path(f).name for f in opened if Path(f).parent == PACKAGE / "specs"))
             for code, opened in json.loads(done.stdout)]
    assert specs == [(0, []), (0, sorted(p.name for p in (PACKAGE / "specs").glob("*.json")))]


def test_every_public_name_has_a_caller_outside_the_tests():
    referenced = {name for directory in CALLERS for _, tree in _trees(directory)
                  for name in _references(tree)}
    unused = [f"{path.stem}.{node.name}"
              for path, tree in _trees(PACKAGE)
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in referenced]
    assert unused == []


def _public_names():
    """(qualified name, name) of each public module-level function or class
    and of each public method of a public class."""
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name


# the library code that only the benchmark calls: the benchmark is to move
# off each name so that it can go, and a change that adds one says so
BENCHMARK_ONLY = ["Amalgam.transversal", "Word.length", "abelian.smith_normal_form",
                  "groups.conjugacy_classes", "groups.is_isomorphic"]


def test_the_names_only_the_benchmark_calls_are_pinned():
    in_package = {name for _, tree in _trees(PACKAGE) for name in _references(tree)}
    in_bench = {name for _, tree in _trees(ROOT / "bench") for name in _references(tree)}
    only = sorted(qual for qual, name in _public_names()
                  if name not in in_package and name in in_bench)
    assert only == BENCHMARK_ONLY


def test_shared_records_refuse_assignment():
    from lowerk.abelian import FgAbelianGroup
    from lowerk.amalgams import AmalgamElement
    from lowerk.fusion import ModP, Padic
    from lowerk.presentations import Presentation, Word

    for record, field in ((Word((("a", 1),)), "entries"), (FgAbelianGroup(1), "free_rank"),
                          (Padic(2), "p"), (ModP(2), "p"), (AmalgamElement(0), "head"),
                          (Presentation(("a",), ()), "relators")):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) == before
