import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvctrl as nc
from search_jobs import jobs

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "search_sweep.py"
SAME = SWEEP.parent / "same.py"
SRC = Path(__file__).resolve().parents[1] / "src"
ONE_SEARCH = ["--seeds", "3", "--jobs", "II.1-u_90-10MHz-n2"]


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


def _load_sweep(monkeypatch):
    """tools/search_sweep.py as a module, with the environment and path it
    changes on import restored afterwards."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("search_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_choose_reports_count_ratios_and_designs_one_pass_cannot_rank(monkeypatch):
    """`summarize` sums each design's lockstep calls and polish evaluations
    over the first pass; `choose` gives their ratios to the baseline next to
    the time ratio, and after one pass lists every other design whose time
    ratio lies within TIME_SPREAD of TIME_RATIO.  The choice rule is the
    time bound alone."""
    sweep = _load_sweep(monkeypatch)
    base, jobs_ = sweep.BASELINE, ["a", "b"]
    # design: (summed wall time over the two jobs, lockstep calls per run, polish evaluations per run)
    designs = {base: (10.0, 100, 1000), "near": (10.5, 60, 700), "fast": (8.0, 90, 900), "slow": (12.0, 50, 400)}
    records = [
        {"design": d, "job": job, "seed": seed, "repeat": 0, "tier1": False, "hit": True, "gap": 0.0,
         "wall_s": wall / 2, "polish_calls": calls, "polish_evals": evals}
        for d, (wall, calls, evals) in designs.items() for job in jobs_ for seed in (1, 2)
    ]
    summary = sweep.summarize(records, list(designs), jobs_, 1)
    assert summary["near"]["polish_calls"] == 4 * 60 and summary["near"]["polish_evals"] == 4 * 700
    assert summary["near"]["per_job"]["a"]["polish_calls"] == 2 * 60
    choice = sweep.choose(summary)
    assert choice["calls_ratio"] == {base: 1.0, "near": 0.6, "fast": 0.9, "slow": 0.5}
    assert choice["evals_ratio"] == {base: 1.0, "near": 0.7, "fast": 0.9, "slow": 0.4}
    assert choice["too_close_to_rank"] == ["near"]
    assert choice["ranked"] == ["fast", base] and choice["chosen"] == "fast"
    # two passes resolve what one cannot
    again = [dict(r, repeat=1) for r in records]
    assert sweep.choose(sweep.summarize(records + again, list(designs), jobs_, 2))["too_close_to_rank"] == []


def test_round_off_tie_leaves_best_known_alone(monkeypatch, tmp_path):
    """A run 4.4e-15 above a job's best known value is a round-off tie and
    leaves the file byte-identical; one 1e-9 above raises the value."""
    sweep = _load_sweep(monkeypatch)
    path = tmp_path / "best_known.json"
    shutil.copy(sweep.BEST_KNOWN, path)
    monkeypatch.setattr(sweep, "BEST_KNOWN", path)
    before = path.read_bytes()
    job, stored = next(iter(json.loads(before).items()))
    record = {"job": job, "design": "512x300", "seed": 1}
    assert sweep.raise_best_known([dict(record, best_fitness=stored + 4.4e-15)])[job] == stored
    assert path.read_bytes() == before
    assert sweep.raise_best_known([dict(record, best_fitness=stored + 1e-9)])[job] == stored + 1e-9
    assert json.loads(path.read_text())[job] == stored + 1e-9


def same(cwd, *args):
    return subprocess.run([sys.executable, str(SAME), *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_same_finds_a_search_equal_to_itself(tmp_path):
    """tools/same.py searches run on this tree against itself, on one job
    and one seed, hashes the search the same twice and exits 0."""
    done = same(tmp_path, "searches", SRC, SRC, *ONE_SEARCH)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "same: 1 searches" and lines[0].startswith("3/II.1-u_90-10MHz-n2 ")


def test_same_finds_a_search_that_differs(tmp_path):
    """A copy of this tree whose `OptimResult.to_json_dict` adds a key hashes
    the search differently: tools/same.py searches names it and exits 1."""
    changed = tmp_path / "changed" / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    optimizer = changed / "nvctrl" / "optimizer.py"
    line = '"sequence": self.best_sequence.to_json_dict(),'
    assert optimizer.read_text().count(line) == 1
    optimizer.write_text(optimizer.read_text().replace(line, f'"changed": True, {line}'))
    done = same(tmp_path, "searches", SRC, changed, *ONE_SEARCH)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines()[-2:] == ["differs: 3/II.1-u_90-10MHz-n2", "1 of 1 searches differ"]


@pytest.mark.parametrize("mode", ["outputs", "searches"])
def test_same_names_a_tree_that_cannot_run(tmp_path, mode):
    """tools/same.py given a tree whose package fails to import exits 2 and
    names that tree, with no traceback, instead of reporting a difference.
    The broken tree goes first, so the other never runs; its package
    shadows any installed one."""
    broken = tmp_path / "broken" / "src"
    (broken / "nvctrl").mkdir(parents=True)
    (broken / "nvctrl" / "__init__.py").write_text('raise ImportError("a broken tree")\n')
    done = same(tmp_path, mode, broken, SRC)
    assert done.returncode == 2
    assert f"{broken} failed to run: ImportError: a broken tree" in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""


def test_same_names_the_tree_given_an_unknown_job(tmp_path):
    """An unknown job id exits 2 before any search, naming the first tree
    and listing the known jobs."""
    done = same(tmp_path, "searches", SRC, SRC, "--jobs", "II.1-u_90-10MHz-n2", "no-such-job")
    assert done.returncode == 2
    assert done.stderr.startswith(f"{SRC} failed to run: unknown jobs ['no-such-job']; known: ")
    assert "Traceback" not in done.stderr and done.stdout == ""


def _sweep_file(path, fitness):
    """A hand-made sweep file: one first-pass record per (job, seed) ->
    fitness, each with a stale `hit` of True, plus a tier-1 run and a second
    pass that pairing must leave out."""
    records = [
        {"design": "512x300", "job": job, "seed": seed, "repeat": 0, "tier1": False, "best_fitness": f, "hit": True}
        for (job, seed), f in fitness.items()
    ]
    records += [dict(r, seed=20260809, tier1=True, best_fitness=2.0) for r in records[:1]]
    records += [dict(r, repeat=1, best_fitness=-1.0) for r in records[:1]]
    path.write_text(json.dumps({"records": records}))
    return path


def paired(cwd, *args):
    return subprocess.run([sys.executable, str(SWEEP), "--paired", *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_paired_report_counts_discordant_pairs_against_one_reference(tmp_path):
    """A hits u90 at all 10 seeds, 1e-5 above its best known; B hits only
    seeds 9 and 10 there and sits at the best known itself elsewhere, which
    the one reference (the best either file holds) counts as a miss, whatever
    the records' own `hit` says.  That is 8 pairs to 0, p = 2 / 2**8; the
    tier-1 run and the second pass do not count.  A file paired with itself
    has no discordant pair, p = 1, and exits 0."""
    best = json.loads((SWEEP.parent / "best_known.json").read_text())["u90"]
    top = best + 1e-5
    a = _sweep_file(tmp_path / "a.json", {("u90", s): top for s in range(1, 11)})
    b = _sweep_file(tmp_path / "b.json", {("u90", s): top if s > 8 else best for s in range(1, 11)})
    done = paired(tmp_path, a, b, "--tag", "ab")
    assert done.returncode == 1, done.stderr
    report = json.loads((tmp_path / "BENCH_ab.json").read_text())
    assert report["reference"] == {"u90": top}
    job = report["per_job"]["u90"]
    assert (job["pairs"], job["hits_a"], job["hits_b"]) == (10, 10, 2)
    assert job["a_only"] == list(range(1, 9)) and job["b_only"] == []
    assert job["p"] == report["total"]["p"] == 0.0078125
    assert report["unpaired"] == {"a": 0, "b": 0}
    assert "discordant pairs: 8 A hits and B misses, 0 the reverse" in done.stdout
    done = paired(tmp_path, a, a, "--tag", "aa")
    assert done.returncode == 0, done.stderr
    total = json.loads((tmp_path / "BENCH_aa.json").read_text())["total"]
    assert (total["a_only"], total["b_only"], total["p"]) == (0, 0, 1.0)


def test_paired_report_refuses_files_it_cannot_pair(tmp_path):
    """A missing file, a file of two designs and a report that would
    overwrite its input are usage errors, exit 2, with no traceback."""
    a = _sweep_file(tmp_path / "a.json", {("u90", 1): 0.5})
    records = json.loads(a.read_text())["records"]
    two = tmp_path / "two.json"
    two.write_text(json.dumps({"records": records + [dict(r, design="8x8", seed=2) for r in records]}))
    bench = _sweep_file(tmp_path / "BENCH_x.json", {("u90", 1): 0.5})
    for args, message in (
        ((tmp_path / "none.json", a), "not a sweep file"),
        ((a, two), "holds 2 designs"),
        ((a, bench, "--tag", "x"), "would overwrite an input"),
    ):
        done = paired(tmp_path, *args)
        assert done.returncode == 2 and message in done.stderr and "Traceback" not in done.stderr, done.stderr
