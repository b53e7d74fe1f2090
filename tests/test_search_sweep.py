import subprocess
import sys
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "search_sweep.py"


@pytest.mark.parametrize("seeds", ["5-1", "-3", "1-x"])
def test_bad_seeds_are_usage_errors(tmp_path, seeds):
    """An empty range, a negative seed or a non-integer exits 2 through the
    parser, with no traceback, before any run, and writes no results."""
    done = subprocess.run(
        [sys.executable, str(SWEEP), "--designs", "512", "--seeds", seeds],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert "argument --seeds" in done.stderr and "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []
