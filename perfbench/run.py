#!/usr/bin/env python3
"""nvctrl benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; the package is imported from
./src.  One client issues the workload's CLI commands through
`nvctrl.cli.main(argv)` in this process, each only after the previous one
returned (a closed loop).  Every timing is scaled by how fast the core ran
while it was taken (see speed.py).  The workload's round of commands is
repeated until the time given has passed; the last round runs to its end.  With `--trace 0` the last line of standard
output is a JSON object with every end-to-end metric; with `--trace 1`
untraced and traced rounds alternate and it carries the per-layer metrics.
Run records and spans go to .bench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
BLAS_THREADS = "1"  # at most nproc; the package's matrices are 4x4 to 18x18
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # fresh processes
SETUP_PROBE = """
import time
from speed import PythonKernel, Speedometer
meter = Speedometer(PythonKernel())
meter.start()
t0 = time.perf_counter()
import nvctrl
from nvctrl.fidelity import build_target
from nvctrl.spin_model import SystemParams, build_hamiltonian_subspace
params = SystemParams()
build_hamiltonian_subspace(params)
for name in ("u_p", "u_90"):
    build_target(name, params, 0.5)
t1 = time.perf_counter()
meter.stop()
raw = t1 - t0 - meter.kernel_time(t0, t1)
print(repr(raw * meter.scale(t0, t1)), repr(raw))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("synth", "synth_robust", "readout"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> tuple[float, float]:
    """Median, over fresh processes, of importing the package and building
    the subspace Hamiltonian and the u_p and u_90 targets: (scaled, raw)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    env.update({v: BLAS_THREADS for v in BLAS_VARS})
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        s, r = map(float, done.stdout.split())
        scaled.append(s)
        raw.append(r)
    return statistics.median(scaled), statistics.median(raw)


def _openblas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to report
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except OSError:
            pass
    try:
        blas_threads = _openblas_threads()
    except OSError:
        blas_threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_threads_env": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git,
        "loadavg_start": os.getloadavg(),
    }


def _call(cli, argv, sink):
    """(start, end, exit code, name of an exception that escaped main)."""
    code = escaped = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash of one command must not end the run
            escaped = type(exc).__name__
        t1 = perf_counter()
    sink.seek(0)
    sink.truncate()
    return t0, t1, code, escaped


def run_round(cli, meter, ops, tracer, op_base):
    """Issue the round's commands back to back and time each call of main.
    Returns the outcomes and the round's speed scale."""
    from workloads import Outcome

    outcomes = []
    sink = io.StringIO()
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = op_base + i
        t0, t1, code, escaped = _call(cli, op.argv, sink)
        if tracer is not None:
            tracer.op = None
        outcomes.append(Outcome(op, t1 - t0 - meter.kernel_time(t0, t1), code, escaped))
    return outcomes, meter.scale(start, perf_counter())


def rerun_from_manifest(cli, outcome) -> str | None:
    """Re-run a command from its own manifest; compare every file bitwise."""
    out = outcome.op.out
    again = out.with_name(out.name + "-rerun")
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([outcome.op.argv[0], "--config", str(out / "manifest.json"), "--out", str(again)])
    except Exception as exc:  # reported as a wrong output, not a crash of the run
        return f"re-run from manifest raised {type(exc).__name__}: {exc}"
    if code != 0:
        return f"re-run from manifest exited {code}"
    a = {p.name: p.read_bytes() for p in out.iterdir()}
    b = {p.name: p.read_bytes() for p in again.iterdir()}
    return None if a == b else "re-run from manifest differs"


def run_rounds(cli, spans, wl, run_dir: Path, seconds: float, trace: bool):
    """Repeat the workload's round until `seconds` have passed.  With `trace`,
    untraced and traced rounds alternate.  Returns [(traced, outcomes,
    speed scale)] and the tracer."""
    from speed import MixedKernel, Speedometer

    tracer = spans.Tracer() if trace else None
    meter = Speedometer(MixedKernel())
    rounds = []
    t_start = perf_counter()
    meter.start()
    try:
        while not rounds or perf_counter() - t_start < seconds or (trace and len(rounds) < 2):
            rounds.append(_one_round(cli, meter, spans, wl, run_dir, len(rounds), trace, tracer))
    finally:
        meter.stop()
    return rounds, tracer


def _one_round(cli, meter, spans, wl, run_dir, k, trace, tracer):
    """Run round k, check its outputs and re-run a sample from manifests."""
    traced = trace and k % 2 == 1
    rdir = run_dir / f"round-{k}"
    ops = wl.ops(rdir)
    uninstall = spans.install(tracer) if traced else None
    try:
        outcomes, scale = run_round(cli, meter, ops, tracer if traced else None, k * len(ops))
    finally:
        if uninstall is not None:
            uninstall()
    wl.check_round(k, outcomes)
    by_label = {o.op.label: o for o in outcomes}
    for label in wl.rerun_labels(k):
        if not by_label[label].failed:
            problem = rerun_from_manifest(cli, by_label[label])
            if problem:
                by_label[label].problems.append(("wrong", problem))
    if k > 0:
        shutil.rmtree(rdir)
    return traced, outcomes, scale


def end_to_end(rounds, setup_s: float, fidelity_mean: float) -> dict:
    import numpy as np

    plain = [(outs, scale) for traced, outs, scale in rounds if not traced]
    lat_ms = np.array([o.latency_s * scale for outs, scale in plain for o in outs]) * 1e3
    p50, p95 = np.percentile(lat_ms, [50, 95])
    return {
        "wall_s": (lat_ms.sum() / 1e3 / len(plain), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fidelity_mean": (fidelity_mean, "fidelity"),
        "commands_per_s": (lat_ms.size / (lat_ms.sum() / 1e3), "1/s"),
        "command_ms_p50": (float(p50), "ms"),
        "command_ms_p95": (float(p95), "ms"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nvctrl" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'nvctrl'}; run from a checkout root", file=sys.stderr)
        return 2
    os.environ.update({v: BLAS_THREADS for v in BLAS_VARS})  # before numpy loads
    sys.path.insert(0, str(SRC))
    import nvctrl.cli as cli
    import spans
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: nvctrl imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    setup_s, setup_raw = (None, None) if args.trace else measure_setup()
    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    kind = {"synth": workloads.Synth, "synth_robust": workloads.SynthRobust, "readout": workloads.Readout}
    wl = kind[args.workload](args.seed, run_dir)
    rounds, tracer = run_rounds(cli, spans, wl, run_dir, args.seconds, bool(args.trace))

    raw_walls = [sum(o.latency_s for o in outs) for _, outs, _ in rounds]
    scales = [scale for _, _, scale in rounds]
    walls = [w * s for w, s in zip(raw_walls, scales)]
    if args.trace:
        traced = [t for t, _, _ in rounds]
        # span times take the mean scale of the traced rounds
        speed = statistics.fmean(s for s, t in zip(scales, traced) if t)
        metrics = {
            name: (v * speed if unit in ("s", "us") else v, unit)
            for name, (v, unit) in spans.layer_metrics(tracer.spans, sum(traced)).items()
        }
        traced_wall = statistics.median(w for w, t in zip(walls, traced) if t)
        plain_wall = statistics.median(w for w, t in zip(walls, traced) if not t)
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        tracer.dump(run_dir / "spans.jsonl")
    else:
        metrics = end_to_end(rounds, setup_s, wl.fidelity_mean())
    metrics = {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()}

    outcomes = [o for _, outs, _ in rounds for o in outs]
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    failures = Counter(f"{o.op.label}: {message}" for o in outcomes for _, message in o.problems)
    wrong = [f"{o.op.label}: {message}" for o in outcomes for kind_, message in o.problems if kind_ == "wrong"]
    record = {
        "args": vars(args),
        "env": env,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "round_walls_raw_s": raw_walls,
        "round_speed_scales": scales,
        "round_walls_s": walls,
        "traced": [t for t, _, _ in rounds],
        "sequence_digests": wl.digests,
        "fidelities": wl.quality,
        "failures": failures,
        "wrong": wrong,
        "metrics": metrics,
        "first_round": [
            {"label": o.op.label, "argv": o.op.argv, "latency_s": o.latency_s, "code": o.code,
             "escaped": o.escaped, "problems": o.problems}
            for o in rounds[0][1]
        ],
    }
    (run_dir / "run.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"env: {json.dumps(env)}")
    print(
        f"rounds: {len(rounds)} ({sum(t for t, _, _ in rounds)} traced); raw round {statistics.median(raw_walls):.4f} s, "
        f"speed scale {statistics.median(scales):.4f}, raw set-up {setup_raw} s"
    )
    if wl.digests:
        print("sequence digests: " + ", ".join(f"{k}={v}" for k, v in wl.digests.items()))
    for message, count in failures.items():
        print(f"failed x{count}: {message}")
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
