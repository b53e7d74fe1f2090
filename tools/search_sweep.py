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
beats it by more than 1e-12 raises the value in that file, so a round-off
tie of the same optimum leaves the file alone.  A run hits when its best fitness is
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

    python3 tools/search_sweep.py --paired A.json B.json --tag NAME

compares two such sweep files run by run.  It pairs the first-pass runs of
each (job, seed) that both files hold, outside the tier-1 seed, and judges
every run against one reference per job: the larger of
tools/best_known.json and the best fitness either file holds for the job,
within 1e-6.  A record's own `hit` cannot serve, as it was judged against a
best known that its sweep may have raised partway through.  Per job and in
total it prints the hits in A and in B, the seeds that A hits and B misses
and the reverse, and the exact two-sided sign-test p-value of those
discordant pairs (McNemar, Psychometrika 12, 153 (1947)).  The report goes
to BENCH_<tag>.json.  It exits 0 when no pair is discordant, 1 when some
pair is, and 2 on a file it cannot pair: unreadable, or holding more than
one design.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
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
# a run must beat a best known value by more than this to raise it: above the
# 1.1e-16 to 4.4e-15 round-off ties of one optimum between seeds, far below
# HIT_TOL, so no hit depends on it
TIE_TOL = 1e-12
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
    """Raise each job's best known fitness to the best run that beats it by
    more than TIE_TOL, write the file back when a value moved, and return
    the values."""
    best = json.loads(BEST_KNOWN.read_text()) if BEST_KNOWN.exists() else {}
    moved = False
    for r in records:
        if r["best_fitness"] > best.get(r["job"], -np.inf) + TIE_TOL:
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


def sign_test(a_only: int, b_only: int) -> float:
    """The exact two-sided sign-test p-value of a_only pairs one way and
    b_only the other: twice the binomial(n, 1/2) tail of the smaller count,
    at most 1.  No discordant pair gives 1."""
    n = a_only + b_only
    tail = sum(math.comb(n, k) for k in range(min(a_only, b_only) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def paired_runs(path: str) -> dict:
    """The first-pass best fitness of each (job, seed) of a sweep file,
    outside the tier-1 seed; a ValueError names a file that cannot be read
    or that holds more than one design."""
    try:
        records = json.loads(Path(path).read_text())["records"]
        runs = [r for r in records if r["repeat"] == 0 and not r["tier1"]]
        designs = sorted({r["design"] for r in runs})
        fitness = {(r["job"], r["seed"]): r["best_fitness"] for r in runs}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a sweep file ({type(exc).__name__}: {exc})") from None
    if len(designs) > 1:
        raise ValueError(f"{path} holds {len(designs)} designs {designs}; pair files of one design")
    return fitness


def paired_report(a: dict, b: dict, best_known: dict) -> dict:
    """Hits of the runs a and b (job, seed) -> best fitness on the pairs
    both hold, each job's run judged against the larger of its best known
    and the best fitness in a or b, within HIT_TOL; per job and in total,
    the hits, the seeds one hits and the other misses, each way, and the
    sign test of those."""
    order = {job: i for i, job in enumerate(JOB_IDS)}
    keys = sorted(a.keys() & b.keys(), key=lambda k: (order.get(k[0], len(order)), k))
    job_ids = list(dict.fromkeys(job for job, _ in keys))
    reference = {
        job: max([best_known.get(job, -math.inf)] + [f[k] for f in (a, b) for k in f if k[0] == job])
        for job in job_ids
    }
    per_job = {}
    for job in job_ids:
        seeds = [seed for j, seed in keys if j == job]
        hit_a, hit_b = ({s: reference[job] - f[job, s] <= HIT_TOL for s in seeds} for f in (a, b))
        a_only = [s for s in seeds if hit_a[s] and not hit_b[s]]
        b_only = [s for s in seeds if hit_b[s] and not hit_a[s]]
        per_job[job] = {
            "pairs": len(seeds),
            "hits_a": sum(hit_a.values()),
            "hits_b": sum(hit_b.values()),
            "a_only": a_only,
            "b_only": b_only,
            "p": sign_test(len(a_only), len(b_only)),
        }
    total = {k: sum(j[k] for j in per_job.values()) for k in ("pairs", "hits_a", "hits_b")}
    total["a_only"], total["b_only"] = (sum(len(j[k]) for j in per_job.values()) for k in ("a_only", "b_only"))
    total["p"] = sign_test(total["a_only"], total["b_only"])
    return {
        "hit_tolerance": HIT_TOL,
        "reference": reference,
        "unpaired": {"a": len(a.keys() - b.keys()), "b": len(b.keys() - a.keys())},
        "per_job": per_job,
        "total": total,
    }


def paired_main(p: argparse.ArgumentParser, args, command: str) -> int:
    out_path = Path(f"BENCH_{args.tag}.json")
    if any(out_path.resolve() == Path(f).resolve() for f in args.paired):
        p.error(f"--tag {args.tag}: the report {out_path} would overwrite an input")
    try:
        a, b = (paired_runs(f) for f in args.paired)
    except ValueError as exc:
        p.error(str(exc))
    best_known = json.loads(BEST_KNOWN.read_text()) if BEST_KNOWN.exists() else {}
    report = paired_report(a, b, best_known)
    report = {
        "tag": args.tag,
        "command": command,
        "a": args.paired[0],
        "b": args.paired[1],
        **report,
    }
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"A: {args.paired[0]}\nB: {args.paired[1]}")
    print(f"{'job':<26} {'pairs':>5} {'A hits':>6} {'B hits':>6}  {'p':>9}  seeds A hits and B misses | the reverse")
    for job, j in [*report["per_job"].items(), ("total", report["total"])]:
        seeds = "" if job == "total" else f"  {j['a_only']} | {j['b_only']}"
        print(f"{job:<26} {j['pairs']:>5} {j['hits_a']:>6} {j['hits_b']:>6}  {j['p']:>9.3g}{seeds}")
    t = report["total"]
    print(f"discordant pairs: {t['a_only']} A hits and B misses, {t['b_only']} the reverse; "
          f"unpaired runs: {report['unpaired']['a']} in A, {report['unpaired']['b']} in B")
    return 1 if t["a_only"] + t["b_only"] else 0


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
    p.add_argument("--designs", nargs="+", type=parse_design,
                   help=f"R[xE] designs: R restarts, polish budget E (default {nc.GaConfig.polish_evals}); "
                        f"the default search is {BASELINE}")
    p.add_argument("--seeds", nargs="+", type=parse_seeds,
                   help="non-negative seeds or ranges LO-HI, e.g. 1-10 42")
    p.add_argument("--tier1", action="store_true", help=f"also run each design at seed {TIER1_SEED}")
    p.add_argument("--jobs", nargs="+", help="job ids to run (default: all 21)")
    p.add_argument("--repeats", type=int, default=1, help="passes over every run (default 1)")
    p.add_argument("--tag", default="sweep",
                   help="the output is BENCH_search_<tag>.json, or BENCH_<tag>.json with --paired")
    p.add_argument("--paired", nargs=2, metavar=("A", "B"),
                   help="compare the hits of two sweep files run by run, in place of a sweep")
    args = p.parse_args(argv)
    command = "python3 tools/search_sweep.py " + " ".join(sys.argv[1:] if argv is None else argv)
    if args.paired:
        return paired_main(p, args, command)
    if not (args.designs and args.seeds):
        p.error("a sweep needs --designs and --seeds")
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
        "command": command,
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
