"""CLI output compared byte for byte with committed reference output.

Each file under golden/ is the stdout of `lowerk --format json <argv>`,
named by its argv joined with '_' and ':' written as '-'.  A change that
alters any of these reports has to replace the file on purpose.
"""

from pathlib import Path

import pytest

from lowerk.cli import main
from lowerk.ktheory import BUNDLED_KSHEETS

GOLDEN_DIR = Path(__file__).parent / "golden"
CASES = ([["verify", "all"], ["group", "info", "dicyclic:24"]]
         + [["ksheet", name] for name in sorted(BUNDLED_KSHEETS)])


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_json_output_matches_golden(argv, capsys):
    want = (GOLDEN_DIR / ("_".join(argv).replace(":", "-") + ".json")).read_bytes()
    assert main(["--format", "json", *argv]) == 0
    assert capsys.readouterr().out.encode() == want
