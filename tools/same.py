#!/usr/bin/env python3
"""Compare what one fixed check gives with two source trees, bit for bit.

    python3 tools/same.py outputs OLD/src NEW/src
    python3 tools/same.py searches OLD/src NEW/src [--seeds 20260809 1 2] [--jobs JOB ...]

`outputs` hashes every file that COMMANDS, 28 nvctrl commands from `angles`
to `tables --which all`, write under the same relative paths, so the
manifests compare too.  `searches` hashes the 21 searches of
tests/search_jobs.py (table row i runs with seed + i) at each seed: the
sha256 of `to_json_dict()`, with sorted keys, then of the polish record's
`x`, `f`, `f0`, `status`, `evals` and `nfev`.  It prints one line per
search with each tree's hash and lockstep calls.

Each tree runs in a fresh interpreter, with that tree and tests/ first on
PYTHONPATH and one BLAS thread, in a temporary directory of its own.  It
exits 0 when every file or search is the same, 1 after listing each one
that differs or that only one tree has, and 2 when a tree fails to run or
is given an unknown job, naming the tree and the last line of its error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"
SEEDS = [20260809, 1, 2]

SEQ = "out/optimize/sequence.json"
UT = "u_t.json"  # the two-pulse readout gate on the {0, +1} manifold, written by OUTPUTS
ROBUST = '{"lo_mhz": 0.48, "hi_mhz": 0.52, "n_samples": 5}'
FID = ["uc", "uc_prime", "u90_ms0", "u90_ms-1", "u90_ms+1", "analytic_uc", "analytic_uc_prime"]
# (output directory, argv); later commands read what earlier ones wrote
COMMANDS = [
    ("angles", ["angles"]),
    ("esr", ["esr", "--set", "esr.branch=1"]),
    ("optimize", ["optimize", "--seed", "5"]),
    ("optimize-robust", ["optimize", "--set", "optimize.target=u_90", "--set", "optimize.n_pulses=2",
                         "--set", f"optimize.robust={ROBUST}"]),
    *((f"fid-{p}", ["fid", "--set", f"fid.protocol={p}", "--set", "fid.record_us=100"]) for p in FID[:5]),
    *((f"fid-{p}", ["fid", "--set", f"fid.protocol={p}"]) for p in FID[5:]),
    ("fid-uc-seq", ["fid", "--set", "fid.protocol=uc", "--set", f"fid.sequence={SEQ}",
                    "--set", "fid.record_us=50"]),
    ("fid-u90_ms+1-seq", ["fid", "--set", "fid.protocol=u90_ms+1", "--set", f"fid.sequence={SEQ}",
                          "--set", f"fid.sequence_readout={UT}", "--set", "fid.record_us=50"]),
    *((f"spectrum-{p}", ["spectrum", "--set", f"spectrum.fid_csv=out/fid-{p}/fid.csv"]) for p in FID[:3]),
    ("spectrum-none", ["spectrum", "--set", "spectrum.fid_csv=out/fid-analytic_uc/fid.csv",
                       "--set", "spectrum.window=none", "--set", "spectrum.zerofill_factor=2"]),
    ("spectrum-exponential", ["spectrum", "--set", "spectrum.fid_csv=out/fid-analytic_uc_prime/fid.csv",
                              "--set", "spectrum.window=exponential", "--set", "spectrum.exp_rate=0.02"]),
    ("spectrum-seq", ["spectrum", "--set", "spectrum.fid_csv=out/fid-uc-seq/fid.csv", "--set", "spectrum.n_peaks=5"]),
    ("bloch", ["bloch", "--set", f"bloch.sequence={SEQ}", "--set", "bloch.dt_us=0.05"]),
    ("polarize", ["polarize", "--set", f"polarize.sequence={SEQ}"]),
    ("fit-polarization", ["fit", "polarization", "--data", "pol.csv"]),
    # a 0.5 us span, where most of the fit's start grid is too ill-conditioned to batch
    ("fit-polarization-short", ["fit", "polarization", "--data", "pol_short.csv"]),
    ("fit-sinusoid", ["fit", "sinusoid", "--data", "out/fid-analytic_uc/fid.csv", "--nu", "0.158"]),
    ("fit-fidelities", ["fit", "fidelities", "--b0", "0.13", "--b1", "0.11", "--bm1", "0.2", "--f", "0.7"]),
    ("tables", ["tables", "--which", "all"]),
]

# writes two noisy paper pumping curves for `fit polarization` and the paper's
# u_t readout gate, runs every command through `main` and hashes every file written
OUTPUTS = """
import hashlib, json, sys
from pathlib import Path
import numpy as np
import nvctrl as nc
from nvctrl.cli import main
from nvctrl.fidelity import u_t_sequence
from nvctrl.signals import write_csv
d = np.linspace(0.0, 120.0, 200)
p = nc.polarization_curve(nc.paper_polarization_model(), d) + np.random.default_rng(1).normal(0.0, 0.01, d.size)
write_csv("pol.csv", ("d_l_us", "p"), (d, p))
d = np.linspace(0.0, 0.5, 20)
p = nc.polarization_curve(nc.paper_polarization_model(), d) + np.random.default_rng(2).normal(0.0, 0.01, d.size)
write_csv("pol_short.csv", ("d_l_us", "p"), (d, p))
u_t_sequence(nc.SystemParams(), 0.5).save("u_t.json")
for name, argv in json.loads(sys.argv[1]):
    if main(argv + ["--out", f"out/{name}"]) != 0:
        sys.exit(f"{name} failed")
files = sorted(str(f) for f in Path().rglob("*") if f.is_file())
print(json.dumps({f: [hashlib.sha256(Path(f).read_bytes()).hexdigest(), None] for f in files}))
"""

# hashes every (seed, job) search; the note is its lockstep calls
SEARCHES = """
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


def run_tree(src: Path, runner: str, arg) -> dict[str, list]:
    """The {item: [sha256, note]} that `runner` prints as its last stdout line,
    below any command's messages, with the tree `src`; exits 2 if it fails."""
    path = os.pathsep.join([str(src.resolve()), str(TESTS)])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, "-c", runner, json.dumps(arg)], cwd=work, env=env,
                              capture_output=True, text=True)
    if done.returncode:
        error = done.stderr.strip().splitlines() or [f"exit {done.returncode}"]
        print(f"{src} failed to run: {error[-1]}", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    modes = p.add_subparsers(dest="mode", required=True)
    outputs, searches = modes.add_parser("outputs"), modes.add_parser("searches")
    for m in (outputs, searches):
        m.add_argument("old", type=Path, help="the first tree's src directory")
        m.add_argument("new", type=Path, help="the second tree's src directory")
    searches.add_argument("--seeds", nargs="+", type=int, default=SEEDS, help="default: 20260809 1 2")
    searches.add_argument("--jobs", nargs="+", help="job ids of tests/search_jobs.py (default: all 21)")
    args = p.parse_args(argv)
    if args.mode == "outputs":
        runner, arg, unit = OUTPUTS, COMMANDS, "files"
    else:
        runner, arg, unit = SEARCHES, [args.seeds, args.jobs], "searches"
    old = run_tree(args.old, runner, arg)
    new = run_tree(args.new, runner, arg)
    if args.mode == "searches":
        for key, (digest, calls) in old.items():
            if key in new:
                print(f"{key:<36} {digest} {calls:>5} | {new[key][0]} {new[key][1]:>5}")
    differ = [key for key in {**old, **new} if old.get(key) != new.get(key)]
    for key in differ:
        print(f"differs: {key}" if key in old and key in new else f"only in one tree: {key}")
    print(f"{len(differ)} of {len(old | new)} {unit} differ" if differ else f"same: {len(old)} {unit}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
