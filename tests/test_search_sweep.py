import json
import subprocess
import sys
from pathlib import Path

import pytest

import nvctrl as nc
from ga_jobs import jobs

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


def test_hit_bounds_cover_every_job_of_the_default_search():
    """tools/hit_bounds.json, the CI gate's lower bounds, holds one count per
    sweep job, in the sweep's job order, for the default search design."""
    bounds = json.loads((SWEEP.parent / "hit_bounds.json").read_text())
    assert bounds["design"] == f"{nc.GaConfig.restarts}x{nc.GaConfig.polish_evals}"
    assert list(bounds["hits"]) == list(jobs(nc.GaConfig()))
    assert all(0 <= n <= len(bounds["seeds"]) for n in bounds["hits"].values())
