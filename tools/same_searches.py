#!/usr/bin/env python3
"""Run the tier-1 search jobs with two source trees and compare every
search's result, bit for bit.

    python3 tools/same_searches.py OLD/src NEW/src [--seeds 20260809 1 2] [--jobs JOB ...]

The jobs are the 21 searches of tests/search_jobs.py (table row i runs with
seed + i), each at the default `GaConfig` and each given seed (by default
20260809, 1 and 2).  A search's hash is the sha256 of its
`to_json_dict()`, with sorted keys, followed by the bytes of its polish
record: `x`, `f`, `f0`, `status` and `evals`, and `nfev`.  Each tree runs
all its searches in one fresh interpreter of its own, with that tree first
on PYTHONPATH and one BLAS thread.  It prints one line per (seed, job) with
each tree's hash and lockstep calls.  When every hash is the same it says
so and exits 0; otherwise it lists each search that differs and exits 1.
An unknown job, or a tree that fails to run, exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"
SEEDS = [20260809, 1, 2]

# runs with one tree's package: hashes every (seed, job) search and prints
# {"seed/job": [sha256, lockstep calls]} as JSON
RUNNER = """
import hashlib, json, sys
import nvctrl as nc
from search_jobs import jobs
seeds, names = json.loads(sys.argv[1])
unknown = sorted(set(names or ()) - set(jobs(nc.GaConfig())))
if unknown:
    sys.exit(f"unknown jobs {unknown}; known: {list(jobs(nc.GaConfig()))}")
out = {}
for seed in seeds:
    searches = jobs(nc.GaConfig(seed=seed))
    for name in names or searches:
        result = nc.optimize(*searches[name])
        p = result.polish
        h = hashlib.sha256(json.dumps(result.to_json_dict(), sort_keys=True).encode())
        for a in (p.x, p.f, p.f0, p.status, p.evals):
            h.update(a.tobytes())
        h.update(str(p.nfev).encode())
        out[f"{seed}/{name}"] = [h.hexdigest(), p.nfev]
print(json.dumps(out))
"""


def run_tree(src: Path, seeds: list[int], names: list[str] | None) -> dict[str, list]:
    path = os.pathsep.join([str(src.resolve()), str(TESTS)])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", RUNNER, json.dumps([seeds, names])], env=env,
                          stdout=subprocess.PIPE, text=True)
    if done.returncode:
        raise SystemExit(2)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("old", type=Path, help="the first tree's src directory")
    p.add_argument("new", type=Path, help="the second tree's src directory")
    p.add_argument("--seeds", nargs="+", type=int, default=SEEDS, help="default: 20260809 1 2")
    p.add_argument("--jobs", nargs="+", help="job ids of tests/search_jobs.py (default: all 21)")
    args = p.parse_args(argv)
    old = run_tree(args.old, args.seeds, args.jobs)
    new = run_tree(args.new, args.seeds, args.jobs)
    if old.keys() != new.keys():
        print(f"the trees ran different searches: {sorted(old.keys() ^ new.keys())}")
        return 1
    differ = [key for key in old if old[key][0] != new[key][0]]
    for key, (digest, calls) in old.items():
        print(f"{key:<36} {digest} {calls:>5} | {new[key][0]} {new[key][1]:>5}")
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(old)} searches differ" if differ else f"same: {len(old)} searches")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
