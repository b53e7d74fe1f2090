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
    imported nor found, a sweep of two small designs writes one record per
    design, job and seed with every field the sweep's readers use, records
    scipy's version as None and counts the restarts the race stopped."""
    site = tmp_path / "site"
    site.mkdir()
    packages = Path(np.__file__).parents[1]
    for name in ("numpy", "numpy.libs"):
        if (packages / name).exists():
            (site / name).symlink_to(packages / name)
    env = dict(os.environ, PYTHONPATH=str(site))
    probe = subprocess.run([sys.executable, "-S", "-c", "import scipy"], env=env, capture_output=True, timeout=60)
    assert probe.returncode != 0
    job_names = ("up_free3", "III.0-u_p-0.5MHz-n3", "robust-u_90")
    done = subprocess.run(
        [sys.executable, "-S", str(SWEEP), "--designs", "2x8", "4x20", "--seeds", "1-2", "--jobs", *job_names,
         "--tag", "noscipy"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads((tmp_path / "BENCH_search_noscipy.json").read_text())
    assert out["environment"]["scipy"] is None and out["environment"]["numpy"] == np.__version__
    records = out["records"]
    assert sorted((r["design"], r["job"], r["seed"]) for r in records) == sorted(
        (design, job, seed) for design in ("2x8", "4x20") for job in job_names for seed in (1, 2)
    )
    for r in records:
        assert 0.0 < r["best_fitness"] <= 1.0 and r["duration_us"] > 0.0 and r["wall_s"] > 0.0
        assert r["polish_budget"] == int(r["design"].split("x")[1])
        # a lockstep call spends one evaluation on each restart still running
        assert 0 < r["polish_calls"] <= min(r["polish_budget"], r["polish_evals"])
        # budgets of 8 and 20 evaluations stop before the race can
        assert r["raced"] == 0
    # no restart converges within 8 evaluations, so each such polish runs to its budget
    assert [r["polish_calls"] for r in records if r["design"] == "2x8"] == [8] * 6
