"""The library's public surface: the package re-exports nothing, and
every public module-level function or class has a caller outside the
tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lowerk"
CALLERS = (PACKAGE, ROOT / "scripts", ROOT / "bench")


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


def test_import_lowerk_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, lowerk; print(sorted(m for m in sys.modules if m.startswith('lowerk.')))"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_every_public_name_has_a_caller_outside_the_tests():
    referenced = {name for directory in CALLERS for _, tree in _trees(directory)
                  for name in _references(tree)}
    unused = [f"{path.stem}.{node.name}"
              for path, tree in _trees(PACKAGE)
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in referenced]
    assert unused == []
