#!/usr/bin/env python3
"""Hit-rate sweep of the search budget over the tier-1 search jobs.

    python3 tools/search_sweep.py --designs 512 384x300 768x4000 \\
        --seeds 1-10 --tier1 --tag multistart

Each design is RESTARTS[xPOLISH]: the restarts, each one uniform start, and
each restart's polish budget in evaluations, by default the `GaConfig`
default of 300.  A design is named RESTARTSxPOLISH, so the default search
is 512x300.  The jobs are the 21 searches the tier-1 tests run, as
tests/search_jobs.py defines them: the 13 rows of the benchmark tables (row i
runs with seed seed + i), the 4 robust jobs and the 4 fixture jobs.  Every
(design, job, seed) run records the design's `restarts` and polish budget
(`polish_budget`, the `GaConfig.polish_evals` it ran with), its best
fitness, fidelity, duration, wall time, the polish evaluations spent,
summed over the restarts (`polish_evals`, as in the sweeps before the
budget was recorded), the polish's lockstep kernel calls (`polish_calls`)
and the restarts the race stopped (`raced`, those of status 3).  The
counts come from the search result's `polish`, the record of the lockstep
polish, whose first evaluation scores the starts.
The committed BENCH_search_*.json files were made when the search could
run a genetic algorithm (GA): they name their designs
RESTARTSxGENERATIONS[xPOPULATION[xPOLISH]], record each design's GA
`generations` and `population`, the kernel genomes scored (`genomes`) and a
cost in kernel genomes (`cost_genomes`), and some carry `gradient_cost`.
The runs go one after another in this process, as a command-line search
runs, so no run's wall time shares the cores with another run.  BLAS runs
on one thread, as in perfbench: the package's matrices are 4x4 to 18x18.
With `--repeats N` every run is made N times, in N full passes, to show
the spread of the wall times; the results of a run must not change.

tools/best_known.json holds the best fitness known for each job; a run that
beats it raises the value in that file.  A run hits when its best fitness is
within 1e-6 of its job's best known.  With `--tier1` every design also runs
at the tests' seed 20260809; those runs are reported apart and never count
as hits.  When the default design 512x300 is among those run, the summary
names the design with the most hits among those whose summed mean time
over the jobs is at most that of 512x300, measured in the same sweep, the
cheaper one on a tie.  It gives each design's time ratio to 512x300 in
every pass, its ratios of summed lockstep calls and polish evaluations,
which do not vary between passes, and the jobs where the chosen design
hits less often than 512x300.  A single pass cannot rank a design whose
time ratio lies within 0.13 of the bound (two passes of the same runs
differed by that much), so with `--repeats 1` the sweep warns about each
such design.

The results go to BENCH_search_<tag>.json in the current directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402

import nvctrl as nc  # noqa: E402
from search_jobs import SEED as TIER1_SEED, jobs  # noqa: E402

BEST_KNOWN = ROOT / "tools" / "best_known.json"
HIT_TOL = 1e-6
TIME_RATIO = 1.0
# the summed mean time of one design moved by this fraction between two
# passes of the same runs (BENCH_race.json: 5.71 and 6.44 s), so one pass
# cannot rank a design whose time ratio lies this close to TIME_RATIO
TIME_SPREAD = 0.13
JOB_IDS = list(jobs(nc.GaConfig()))


def parse_design(text: str) -> dict:
    parts = [int(p) for p in text.lower().split("x")]
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"design {text!r} is not R[xE]")
    design = {"restarts": parts[0], "polish_evals": parts[1] if len(parts) == 2 else nc.GaConfig.polish_evals}
    try:
        nc.GaConfig(**design)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"design {text!r}: {exc}") from None
    return design


def design_name(d: dict) -> str:
    return f"{d['restarts']}x{d['polish_evals']}"


# the default search, against which the other designs are measured
BASELINE = design_name({"restarts": nc.GaConfig.restarts, "polish_evals": nc.GaConfig.polish_evals})


def parse_seeds(text: str) -> list[int]:
    """A seed N or a range LO-HI of non-negative seeds, HI >= LO."""
    lo, _, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds {text!r}: expected a non-negative seed N or a range LO-HI") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"seed range {text!r} is empty")
    return seeds


def run_one(task: tuple) -> dict:
    job, design, seed, repeat = task
    problem, ga = jobs(nc.GaConfig(**design, seed=seed))[job]
    start = perf_counter()
    result = nc.optimize(problem, ga)
    wall = perf_counter() - start
    return {
        "job": job,
        "design": design_name(design),
        "restarts": design["restarts"],
        "polish_budget": design["polish_evals"],
        "seed": seed,
        "ga_seed": ga.seed,
        "repeat": repeat,
        "best_fitness": result.best_fitness,
        "fidelity": result.fidelity,
        "robust_fidelity": result.robust_fidelity,
        "duration_us": result.total_duration_us,
        "wall_s": wall,
        "polish_evals": int(result.polish.evals.sum()),
        "polish_calls": result.polish.nfev,
        "raced": int((result.polish.status == 3).sum()),
    }


def raise_best_known(records: list[dict]) -> dict:
    """Raise each job's best known fitness to the best run, write the file
    back when a value moved, and return the values."""
    best = json.loads(BEST_KNOWN.read_text()) if BEST_KNOWN.exists() else {}
    moved = False
    for r in records:
        if r["best_fitness"] > best.get(r["job"], -np.inf):
            print(f"best known {r['job']}: {best.get(r['job'])} -> {r['best_fitness']!r} "
                  f"({r['design']}, seed {r['seed']})", file=sys.stderr)
            best[r["job"]] = r["best_fitness"]
            moved = True
    if moved:
        order = {job: i for i, job in enumerate(JOB_IDS)}
        BEST_KNOWN.write_text(json.dumps(dict(sorted(best.items(), key=lambda kv: order[kv[0]])), indent=1) + "\n")
    return best


def summarize(records: list[dict], designs: list[str], job_ids: list[str], repeats: int) -> dict:
    """Hits per design and job over the seeds, the summed mean wall time
    over the jobs, over all passes and in each, and the lockstep calls and
    polish evaluations summed over the seeds and the jobs, which do not
    vary between passes."""
    summary = {}
    for d in designs:
        per_job, by_repeat = {}, np.zeros(repeats)
        for job in job_ids:
            runs = [r for r in records if r["design"] == d and r["job"] == job and not r["tier1"]]
            if not runs:
                continue
            first = [r for r in runs if r["repeat"] == 0]
            per_job[job] = {
                "hits": sum(r["hit"] for r in first),
                "seeds": len(first),
                "mean_wall_s": float(np.mean([r["wall_s"] for r in runs])),
                "worst_gap": max(r["gap"] for r in first),
                "polish_calls": sum(r["polish_calls"] for r in first),
                "polish_evals": sum(r["polish_evals"] for r in first),
            }
            by_repeat += [np.mean([r["wall_s"] for r in runs if r["repeat"] == k]) for k in range(repeats)]
        summary[d] = {
            "hits": sum(j["hits"] for j in per_job.values()),
            "job_seeds": sum(j["seeds"] for j in per_job.values()),
            "summed_mean_wall_s": sum(j["mean_wall_s"] for j in per_job.values()),
            "summed_mean_wall_s_by_repeat": by_repeat.tolist(),
            "polish_calls": sum(j["polish_calls"] for j in per_job.values()),
            "polish_evals": sum(j["polish_evals"] for j in per_job.values()),
            "per_job": per_job,
        }
    return summary


def choose(summary: dict) -> dict | None:
    """The design with the most hits among those at most TIME_RATIO of the
    baseline's summed mean time; the cheaper one on a tie.  It gives each
    design's ratios to the baseline of time, lockstep calls and polish
    evaluations, and, after one pass, the designs whose time ratio lies
    within TIME_SPREAD of TIME_RATIO, which that pass cannot rank."""
    if BASELINE not in summary:
        return None
    base = summary[BASELINE]
    budget = TIME_RATIO * base["summed_mean_wall_s"]
    ratio = {d: s["summed_mean_wall_s"] / base["summed_mean_wall_s"] for d, s in summary.items()}
    one_pass = len(base["summed_mean_wall_s_by_repeat"]) == 1
    eligible = [d for d, s in summary.items() if s["summed_mean_wall_s"] <= budget]
    ranked = sorted(eligible, key=lambda d: (-summary[d]["hits"], summary[d]["summed_mean_wall_s"]))
    chosen = ranked[0] if ranked else None
    return {
        "rule": f"most hits among designs with summed mean time <= {TIME_RATIO} x {BASELINE}'s; "
                "the cheaper on a tie",
        "baseline": BASELINE,
        "budget_s": budget,
        "time_ratio": ratio,
        "calls_ratio": {d: s["polish_calls"] / base["polish_calls"] for d, s in summary.items()},
        "evals_ratio": {d: s["polish_evals"] / base["polish_evals"] for d, s in summary.items()},
        "too_close_to_rank": [
            d for d in summary if one_pass and d != BASELINE and abs(ratio[d] - TIME_RATIO) <= TIME_SPREAD
        ],
        "time_ratio_by_repeat": {
            d: [t / b for t, b in zip(s["summed_mean_wall_s_by_repeat"], base["summed_mean_wall_s_by_repeat"])]
            for d, s in summary.items()
        },
        "ranked": ranked,
        "chosen": chosen,
        # job -> [the chosen design's hits, the baseline's]
        "below_baseline": {
            job: [s["hits"], base["per_job"][job]["hits"]]
            for job, s in summary[chosen]["per_job"].items()
            if s["hits"] < base["per_job"][job]["hits"]
        } if chosen else {},
    }


def environment() -> dict:
    """The versions and settings a sweep ran with; scipy's version is None
    where it is not installed, as no run needs it."""
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--designs", nargs="+", type=parse_design, required=True,
                   help=f"R[xE] designs: R restarts, polish budget E (default {nc.GaConfig.polish_evals}); "
                        f"the default search is {BASELINE}")
    p.add_argument("--seeds", nargs="+", type=parse_seeds, required=True,
                   help="non-negative seeds or ranges LO-HI, e.g. 1-10 42")
    p.add_argument("--tier1", action="store_true", help=f"also run each design at seed {TIER1_SEED}")
    p.add_argument("--jobs", nargs="+", help="job ids to run (default: all 21)")
    p.add_argument("--repeats", type=int, default=1, help="passes over every run (default 1)")
    p.add_argument("--tag", default="sweep", help="the output is BENCH_search_<tag>.json")
    args = p.parse_args(argv)
    job_ids = args.jobs or JOB_IDS
    unknown = sorted(set(job_ids) - set(JOB_IDS))
    if unknown:
        p.error(f"unknown jobs {unknown}; known: {JOB_IDS}")
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    seeds = [s for group in args.seeds for s in group]
    tasks = [
        (job, d, s, k)
        for k in range(args.repeats)
        for s in seeds + [TIER1_SEED] * args.tier1
        for d in args.designs
        for job in job_ids
    ]
    start = perf_counter()
    records = []
    for task in tasks:
        r = run_one(task)
        r["tier1"] = r["seed"] == TIER1_SEED and args.tier1
        records.append(r)
        print(f"{r['design']:>10} {r['job']:<26} seed {r['seed']:>8}  fitness {r['best_fitness']:.9f}"
              f"  {r['wall_s']:6.2f} s", file=sys.stderr)
    first = {(r["design"], r["job"], r["seed"]): r["best_fitness"] for r in records if r["repeat"] == 0}
    changed = sorted({key for r in records if r["best_fitness"] != first[key := (r["design"], r["job"], r["seed"])]})
    if changed:
        print(f"results changed between passes: {changed}", file=sys.stderr)
        return 1
    best = raise_best_known(records)
    for r in records:
        r["gap"] = best[r["job"]] - r["best_fitness"]
        r["hit"] = bool(r["gap"] <= HIT_TOL)
    designs = list(dict.fromkeys(design_name(d) for d in args.designs))
    summary = summarize(records, designs, job_ids, args.repeats)
    tier1 = {
        d: {r["job"]: {k: r[k] for k in ("best_fitness", "fidelity", "robust_fidelity", "duration_us", "gap", "hit")}
            for r in records if r["design"] == d and r["tier1"] and r["repeat"] == 0}
        for d in designs
    } if args.tier1 else None
    out = {
        "tag": args.tag,
        "command": "python3 tools/search_sweep.py " + " ".join(sys.argv[1:] if argv is None else argv),
        "hit_tolerance": HIT_TOL,
        "seeds": seeds,
        "repeats": args.repeats,
        "designs": designs,
        "jobs": job_ids,
        "best_known": {job: best[job] for job in job_ids},
        "summary": summary,
        "choice": choose(summary),
        "tier1_seed": tier1,
        "sweep_wall_s": perf_counter() - start,
        "environment": environment(),
        "records": records,
    }
    Path(f"BENCH_search_{args.tag}.json").write_text(json.dumps(out, indent=1) + "\n")
    for d in designs:
        s = summary[d]
        print(f"{d:>10}: {s['hits']}/{s['job_seeds']} hits, summed mean time {s['summed_mean_wall_s']:.2f} s, "
              f"{s['polish_calls']} lockstep calls, {s['polish_evals']} polish evaluations")
    if out["choice"]:
        print(f"chosen: {out['choice']['chosen']}")
        for d in out["choice"]["too_close_to_rank"]:
            print(f"warning: {d}'s time ratio {out['choice']['time_ratio'][d]:.3f} lies within {TIME_SPREAD} of "
                  f"{TIME_RATIO}, which one pass cannot rank; see its calls_ratio "
                  f"{out['choice']['calls_ratio'][d]:.3f} or run --repeats 2", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
