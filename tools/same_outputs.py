#!/usr/bin/env python3
"""Run one fixed set of nvctrl commands with two source trees and compare
every file they write, byte for byte.

    python3 tools/same_outputs.py OLD/src NEW/src

The commands are `angles`, `esr`, a nominal and a robust `optimize`, `fid`
for all seven protocols and, with sequence files, for `uc` and for `u90_ms+1`
with a readout gate, six `spectrum` runs, `bloch`, `polarize` with a
sequence, the three `fit` commands and `tables --which all`.  Each tree runs
them in a fresh interpreter with that tree first on PYTHONPATH and one BLAS
thread, in a temporary directory of its own, under the same relative paths,
so the manifests compare too.  When every file is the same it says so and
exits 0; otherwise it lists each file that differs or that only one tree
wrote, and exits 1.  A tree that fails to run exits 2, naming the tree and
the last line of its error.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEQ = "out/optimize/sequence.json"
UT = "u_t.json"  # the two-pulse readout gate on the {0, +1} manifold, written by RUNNER
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
    ("fit-sinusoid", ["fit", "sinusoid", "--data", "out/fid-analytic_uc/fid.csv", "--nu", "0.158"]),
    ("fit-fidelities", ["fit", "fidelities", "--b0", "0.13", "--b1", "0.11", "--bm1", "0.2", "--f", "0.7"]),
    ("tables", ["tables", "--which", "all"]),
]

# runs in each tree's directory: writes a noisy paper pumping curve for
# `fit polarization` and the paper's u_t readout gate, then runs every command
# through `main`
RUNNER = """
import json, sys
import numpy as np
import nvctrl as nc
from nvctrl.cli import main
from nvctrl.fidelity import u_t_sequence
from nvctrl.signals import write_csv
d = np.linspace(0.0, 120.0, 200)
p = nc.polarization_curve(nc.paper_polarization_model(), d) + np.random.default_rng(1).normal(0.0, 0.01, d.size)
write_csv("pol.csv", ("d_l_us", "p"), (d, p))
u_t_sequence(nc.SystemParams(), 0.5).save("u_t.json")
for name, argv in json.loads(sys.argv[1]):
    if main(argv + ["--out", f"out/{name}"]) != 0:
        sys.exit(f"{name} failed")
"""


def run_tree(src: Path, work: Path) -> dict[str, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(COMMANDS)], cwd=work, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode:
        error = done.stderr.strip().splitlines() or [f"exit {done.returncode}"]
        print(f"{src} failed to run: {error[-1]}", file=sys.stderr)
        raise SystemExit(2)
    return {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as old_dir, tempfile.TemporaryDirectory() as new_dir:
        old = run_tree(Path(args[0]), Path(old_dir))
        new = run_tree(Path(args[1]), Path(new_dir))
    differ = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    for name in differ:
        print(f"differs: {name}" if name in old and name in new else f"only in one tree: {name}")
    print(f"{len(differ)} of {len(old | new)} files differ" if differ else f"same: {len(old)} files")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
