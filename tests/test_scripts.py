"""The scripts under scripts/ run against the package source."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", ["run_cases.py", "k_tables.py"])
def test_script_runs(name):
    done = run_script(name)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.rstrip().splitlines()
    if name == "run_cases.py":
        assert lines[-1] == "all 4 cases pass (67 checks)"
    else:
        assert lines[0].split() == ["group", "|G|", "r_Q", "sc", "carter", "K_-1", "K0~", "Wh"]
        assert lines[-1].strip() == "order 12: {x^5, x^7}"
