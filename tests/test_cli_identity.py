"""tools/cli_identity.py reports 0 differing runs for any matrix it runs,
so a matrix that lost runs would still pass.  This pins its size."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_identity.py"


def test_matrix_has_242_distinct_runs():
    if not TOOL.is_file():
        pytest.skip("tools/cli_identity.py is not part of this checkout")
    spec = importlib.util.spec_from_file_location("cli_identity", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = tool.matrix()
    assert len(runs) == len(set(runs)) == 242
