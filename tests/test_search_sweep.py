import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvctrl as nc
from search_jobs import jobs

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


def test_sweep_runs_without_scipy(tmp_path):
    """With numpy the only package on the path, where scipy can be neither
    imported nor found, a sweep writes its results, records scipy's version
    as None and counts the restarts the race stopped in each run."""
    site = tmp_path / "site"
    site.mkdir()
    packages = Path(np.__file__).parents[1]
    for name in ("numpy", "numpy.libs"):
        if (packages / name).exists():
            (site / name).symlink_to(packages / name)
    env = dict(os.environ, PYTHONPATH=str(site))
    probe = subprocess.run([sys.executable, "-S", "-c", "import scipy"], env=env, capture_output=True, timeout=60)
    assert probe.returncode != 0
    done = subprocess.run(
        [sys.executable, "-S", str(SWEEP), "--designs", "2x3", "--seeds", "1", "--jobs", "up_free3", "--tag", "noscipy"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads((tmp_path / "BENCH_search_noscipy.json").read_text())
    assert out["environment"]["scipy"] is None and out["environment"]["numpy"] == np.__version__
    # a budget of 3 evaluations stops before the race can
    assert [(r["polish_calls"], r["raced"]) for r in out["records"]] == [(3, 0)]
