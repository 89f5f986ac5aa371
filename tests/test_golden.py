"""CLI output compared byte for byte with committed reference output.

Each file under golden/ is the stdout of `lowerk --format <fmt> <argv>`,
named by its argv joined with '_' and ':' written as '-', with suffix
.json or .txt for the json and table formats.  A change that alters any
of these reports has to replace the file on purpose.
"""

from pathlib import Path

import pytest

from lowerk.cli import main
from lowerk.ktheory import bundled_ksheets

GOLDEN_DIR = Path(__file__).parent / "golden"
CASES = ([["verify", "all"], ["group", "info", "dicyclic:24"]]
         + [["ksheet", name] for name in sorted(bundled_ksheets())]
         + [["assemble", spec] for spec in ("b3rp2.json", "mcg_rp2_3.json", "pb3rp2.json")]
         + [["classes", "dicyclic:24", "--fusion", flag] for flag in ("q", "singular:2")])


def _check(argv, fmt, suffix, capsys):
    stem = "_".join(argv).replace(":", "-")
    want = (GOLDEN_DIR / (stem + suffix)).read_bytes()
    assert main(["--format", fmt, *argv]) == 0
    assert capsys.readouterr().out.encode() == want


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_json_output_matches_golden(argv, capsys):
    _check(argv, "json", ".json", capsys)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_table_output_matches_golden(argv, capsys):
    _check(argv, "table", ".txt", capsys)
