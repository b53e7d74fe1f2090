"""Batch command-line front end.

Every command resolves its configuration (file < --set overrides < --seed),
writes a manifest echoing the resolved configuration into the output
directory, and emits CSV/JSON data files.  Re-running a command from its own
manifest reproduces the outputs bitwise.

Exit codes: 0 success, 2 usage error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments, optimizer, signals, spin_model
from .errors import FileMissing, NvctrlError, UnknownTarget
from .fidelity import RobustnessRange, build_target
from .optimizer import ControlProblem, GaConfig
from .propagation import PulseSequence, trajectory
from .spin_model import SystemParams

DEFAULT_SEED = 20260809

_FID_PROTOCOLS = (
    "uc",
    "uc_prime",
    "u90_ms0",
    "u90_ms-1",
    "u90_ms+1",
    "analytic_uc",
    "analytic_uc_prime",
)


class UsageError(NvctrlError):
    """Bad command-line or configuration input (exit status 2)."""


def _checked(what: str, build, *args):
    """Build a value from configuration input; bad input is a usage error."""
    try:
        return build(*args)
    except (TypeError, ValueError, KeyError) as exc:
        raise UsageError(f"bad {what}: {exc!r}") from exc


def _positive(value, what: str) -> float:
    number = _checked(what, float, value)
    if not (math.isfinite(number) and number > 0):
        raise UsageError(f"{what} must be a positive finite number, got {value!r}")
    return number


def _at_least(value, minimum: int, what: str) -> int:
    number = _checked(what, int, value)
    if number < minimum:
        raise UsageError(f"{what} must be at least {minimum}, got {value!r}")
    return number


def _parse_set_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_override(config: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = config
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise UsageError(f"cannot override through non-object key {key!r}")
    node[keys[-1]] = value


def load_config(path: str | None, sets: list[str], seed: int | None) -> dict:
    config: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise FileMissing(f"config file not found: {p}")
        loaded = _checked(f"config file {p}", json.loads, p.read_text(encoding="utf-8"))
        # accept a previously written manifest as a config
        if "config" in loaded and "command" in loaded:
            loaded = loaded["config"]
        config = loaded
    for item in sets or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        _apply_override(config, key, _parse_set_value(value))
    if seed is not None:
        config["seed"] = seed
    config.setdefault("seed", DEFAULT_SEED)
    return config


def _params_from_config(config: dict) -> SystemParams:
    return _checked("params block", SystemParams.from_dict, config.get("params", {}))


def _write_manifest(out: Path, command: str, config: dict) -> None:
    payload = {"command": command, "config": config}
    signals.write_json(out / "manifest.json", payload)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_sequence(path_text: str | None, what: str) -> PulseSequence | None:
    if path_text is None:
        return None
    p = Path(path_text)
    if not p.exists():
        raise FileMissing(f"{what} sequence file not found: {p}")
    return _checked(f"{what} sequence file {p}", PulseSequence.load, p)


def cmd_angles(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    params = _params_from_config(config)
    out = _outdir(args)
    _write_manifest(out, "angles", config)
    theta_plus, theta_minus = spin_model.quantization_angles(params)
    nu_c, nu_minus, nu_plus = spin_model.nuclear_frequencies(params)
    payload = {
        "theta_plus_deg": theta_plus,
        "theta_minus_deg": theta_minus,
        "theta_zero_deg": 0.0,
        "nu_c_mhz": nu_c,
        "nu_minus_mhz": nu_minus,
        "nu_plus_mhz": nu_plus,
    }
    signals.write_json(out / "angles.json", payload)
    print(
        f"theta_plus = {theta_plus:.3f} deg, theta_minus = {theta_minus:.3f} deg; "
        f"nu_C = {nu_c:.4f} MHz, nu_minus = {nu_minus:.4f} MHz, nu_plus = {nu_plus:.4f} MHz"
    )
    return 0


def cmd_esr(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    params = _params_from_config(config)
    block = config.get("esr", {})
    branch = int(block.get("branch", -1))
    linewidth = _positive(block.get("linewidth_mhz", 0.02), "esr.linewidth_mhz")
    f_lo = float(block.get("f_min_mhz", -0.35))
    f_hi = float(block.get("f_max_mhz", 0.35))
    n = _at_least(block.get("n_points", 2001), 2, "esr.n_points")
    lines = _checked("esr.branch", spin_model.esr_lines, params, branch)
    spec = spin_model.esr_spectrum(lines, linewidth, np.linspace(f_lo, f_hi, n))
    out = _outdir(args)
    _write_manifest(out, "esr", config)
    signals.write_json(
        out / "esr_lines.json",
        {"branch": branch, "lines": [{"offset_mhz": o, "probability": p} for o, p in lines]},
    )
    spec.to_csv(out / "esr_spectrum.csv")
    print(f"wrote {len(lines)} ESR lines (branch {branch:+d}) and spectrum")
    return 0


def _ga_from_config(block: dict, seed: int) -> GaConfig:
    kwargs = {"seed": int(block.get("seed", seed))}
    for key in (
        "population",
        "generations",
        "elite_count",
        "tournament_size",
        "restarts",
        "polish_evals",
    ):
        if key in block:
            kwargs[key] = int(block[key])
    for key in ("crossover_rate", "mutation_rate", "mutation_sigma"):
        if key in block:
            kwargs[key] = float(block[key])
    return GaConfig(**kwargs)


def _problem_from_config(params: SystemParams, block: dict) -> ControlProblem:
    name = block.get("target", "u_p")
    rabi = float(block.get("rabi_mhz", 0.5))
    try:
        target = build_target(name, params, rabi)
    except UnknownTarget as exc:
        raise UsageError(str(exc)) from exc
    mode_text = block.get("mode", "free")
    if mode_text in ("free", optimizer.MODE_FREE):
        mode = optimizer.MODE_FREE
    elif mode_text in ("switched", optimizer.MODE_SWITCHED):
        mode = optimizer.MODE_SWITCHED
    else:
        raise UsageError(f"unknown mode {mode_text!r}")
    robust = None
    if block.get("robust"):
        r = block["robust"]
        robust = RobustnessRange(
            float(r["lo_mhz"]), float(r["hi_mhz"]), int(r.get("n_samples", 5))
        )
    bounds = None
    if "bounds" in block:
        b = block["bounds"]
        bounds = optimizer.Bounds(float(b["t_max_us"]), float(b["tau_max_us"]))
    return ControlProblem(
        params=params,
        target=target,
        n_pulses=int(block.get("n_pulses", 3)),
        rabi_mhz=rabi,
        mode=mode,
        robustness=robust,
        bounds=bounds,
        duration_penalty=float(block.get("duration_penalty", 0.0)),
    )


def cmd_optimize(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    params = _params_from_config(config)
    block = config.get("optimize", {})
    problem = _checked("optimize block", _problem_from_config, params, block)
    ga = _checked("optimize.ga block", _ga_from_config, block.get("ga", {}), config["seed"])
    out = _outdir(args)
    _write_manifest(out, "optimize", config)
    result = optimizer.optimize(problem, ga)
    result.best_sequence.save(out / "sequence.json")
    result.save(out / "result.json")
    signals.write_csv(
        out / "history.csv",
        ("generation", "best_fitness"),
        (np.arange(len(result.history), dtype=float), np.array(result.history)),
    )
    robust_text = "" if result.robust_fidelity is None else f", robust {result.robust_fidelity:.4f}"
    print(
        f"target {problem.target.name}: fidelity {result.fidelity:.4f}{robust_text}, "
        f"duration {result.total_duration_us:.2f} us"
    )
    return 0


def cmd_fid(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    params = _params_from_config(config)
    block = config.get("fid", {})
    protocol = block.get("protocol", "analytic_uc")
    if protocol not in _FID_PROTOCOLS:
        raise UsageError(f"unknown fid protocol {protocol!r}; expected one of {_FID_PROTOCOLS}")
    record = _positive(
        block.get("record_us", 300.0 if protocol.endswith("uc_prime") else 200.0), "fid.record_us"
    )
    step = _positive(block.get("dt_us", 1.0), "fid.dt_us")
    tau = experiments.default_tau_grid(record, step)
    if protocol == "analytic_uc":
        trace = experiments.analytic_fid("uc", params, tau)
    elif protocol == "analytic_uc_prime":
        trace = experiments.analytic_fid("uc_prime", params, tau)
    elif protocol in ("uc", "uc_prime"):
        seq = _load_sequence(block.get("sequence"), "preparation")
        seq_dag = _load_sequence(block.get("sequence_dagger"), "readout")
        fn = experiments.fid_uc if protocol == "uc" else experiments.fid_uc_prime
        trace = fn(params, seq, seq_dag, tau)
    else:
        subspace = {"u90_ms0": 0, "u90_ms-1": -1, "u90_ms+1": +1}[protocol]
        seq = _load_sequence(block.get("sequence"), "excitation")
        seq_ut = _load_sequence(block.get("sequence_readout"), "readout")
        polarization = _checked("fid.polarization", float, block.get("polarization", 1.0))
        if not -1.0 <= polarization <= 1.0:
            raise UsageError(f"fid.polarization must lie in [-1, 1], got {polarization!r}")
        trace = experiments.fid_u90(
            params, subspace, seq, seq_ut, tau, initial_polarization=polarization
        )
    out = _outdir(args)
    _write_manifest(out, "fid", config)
    trace.to_csv(out / "fid.csv")
    signals.write_json(
        out / "fid.json",
        {
            "protocol": trace.protocol,
            "n_samples": int(tau.size),
            "record_us": record,
            "dt_us": step,
        },
    )
    print(f"wrote {tau.size}-point {trace.protocol} trace")
    return 0


def cmd_spectrum(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    block = config.get("spectrum", {})
    source = block.get("fid_csv")
    if source is None:
        raise UsageError("spectrum needs spectrum.fid_csv pointing at a FID file")
    p = Path(source)
    if not p.exists():
        raise FileMissing(f"FID file not found: {p}")
    trace = _checked(f"FID file {p}", signals.FidTrace.from_csv, p)
    spec = _checked(
        "spectrum block",
        lambda: experiments.spectrum_from_fid(
            trace,
            window=block.get("window", "hann"),
            zerofill_factor=int(block.get("zerofill_factor", 4)),
            exp_rate=block.get("exp_rate"),
        ),
    )
    out = _outdir(args)
    _write_manifest(out, "spectrum", config)
    spec.to_csv(out / "spectrum.csv")
    peaks = signals.top_peaks(spec, int(block.get("n_peaks", 3)))
    signals.write_json(
        out / "peaks.json",
        {
            "resolution_mhz": spec.resolution_mhz,
            "metadata": spec.metadata,
            "peaks": [{"freq_mhz": f, "amplitude": a} for f, a in peaks],
        },
    )
    print("peaks at " + ", ".join(f"{f:.4f} MHz" for f, _ in peaks))
    return 0


def cmd_bloch(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    params = _params_from_config(config)
    block = config.get("bloch", {})
    seq = _load_sequence(block.get("sequence"), "bloch")
    if seq is None:
        raise UsageError("bloch needs bloch.sequence pointing at a sequence file")
    initial = block.get("initial", "rho0")
    from .fidelity import rho0_state, rho_p_state

    states = {"rho0": rho0_state, "rho_p": rho_p_state}
    if initial not in states:
        raise UsageError(f"unknown initial state {initial!r}; expected one of {sorted(states)}")
    rho = states[initial]()
    dt = _positive(block.get("dt_us", 0.01), "bloch.dt_us")
    out = _outdir(args)
    _write_manifest(out, "bloch", config)
    h = spin_model.build_hamiltonian_subspace(params)
    samples = trajectory(h, seq, rho, dt_us=dt)
    cols = list(zip(*(
        (t, e.x, e.y, e.z, c.x, c.y, c.z) for t, e, c in samples
    )))
    signals.write_csv(
        out / "trajectory.csv",
        ("time_us", "e_x", "e_y", "e_z", "c_x", "c_y", "c_z"),
        [np.array(c) for c in cols],
    )
    t, e, c = samples[-1]
    signals.write_json(
        out / "bloch.json",
        {
            "final_time_us": t,
            "electron": {"x": e.x, "y": e.y, "z": e.z},
            "carbon": {"x": c.x, "y": c.y, "z": c.z},
        },
    )
    print(f"final carbon vector ({c.x:+.4f}, {c.y:+.4f}, {c.z:+.4f}) after {t:.2f} us")
    return 0


def cmd_polarize(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    params = _params_from_config(config)
    block = config.get("polarize", {})
    defaults = experiments.paper_polarization_model()
    model = _checked(
        "polarize block",
        lambda: experiments.PolarizationModel(
            c0=float(block.get("c0", defaults.c0)),
            c1=float(block.get("c1", defaults.c1)),
            c2=float(block.get("c2", defaults.c2)),
            alpha=float(block.get("alpha", defaults.alpha)),
            beta=float(block.get("beta", defaults.beta)),
            gamma=float(block.get("gamma", defaults.gamma)),
        ),
    )
    d_max = _positive(block.get("d_max_us", 50.0), "polarize.d_max_us")
    n = _at_least(block.get("n_points", 501), 2, "polarize.n_points")
    grid = np.linspace(0.0, d_max, n)
    curve = experiments.polarization_curve(model, grid)
    seq = _load_sequence(block.get("sequence"), "polarizing")
    out = _outdir(args)
    _write_manifest(out, "polarize", config)
    signals.write_csv(out / "polarization.csv", ("d_l_us", "p"), (grid, curve))
    d_star, p_star = experiments.polarization_curve_max(model, 0.0, d_max)
    payload = {"curve_max": {"d_l_us": d_star, "p": p_star}}
    if seq is not None:
        outcome = experiments.polarization_protocol_sim(params, seq)
        payload["protocol"] = {
            "polarization": outcome.polarization,
            "peak_ratio": outcome.peak_ratio,
        }
        print(f"protocol polarization p = {outcome.polarization:.4f}")
    signals.write_json(out / "polarize.json", payload)
    print(f"curve maximum p = {p_star:.4f} at d_L = {d_star:.3f} us")
    return 0


def cmd_fit(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    out = _outdir(args)
    if args.fit_kind == "polarization":
        p = Path(args.data)
        if not p.exists():
            raise FileMissing(f"data file not found: {p}")
        cols = signals.read_csv(p)
        config.setdefault("fit", {})["polarization"] = {"data": str(p)}
        _write_manifest(out, "fit", config)
        model = experiments.fit_polarization(np.column_stack(cols[:2]))
        signals.write_json(
            out / "fit_polarization.json",
            {
                "c0": model.c0,
                "c1": model.c1,
                "c2": model.c2,
                "pump_rate_per_us": model.pump_rate,
                "gamma_per_us": model.gamma,
            },
        )
        print(
            f"c0 = {model.c0:.4f}, c1 = {model.c1:.4f}, c2 = {model.c2:.4f}, "
            f"alpha+beta = {model.pump_rate:.4f}/us, gamma = {model.gamma:.4f}/us"
        )
    elif args.fit_kind == "sinusoid":
        p = Path(args.data)
        if not p.exists():
            raise FileMissing(f"data file not found: {p}")
        cols = signals.read_csv(p)
        config.setdefault("fit", {})["sinusoid"] = {"data": str(p), "nu_mhz": args.nu}
        _write_manifest(out, "fit", config)
        a, b, c = experiments.fit_fid_amplitude(np.column_stack(cols[:2]), args.nu)
        signals.write_json(out / "fit_sinusoid.json", {"a": a, "b": b, "c": c, "nu_mhz": args.nu})
        print(f"a = {a:.5f}, b = {b:.5f}, c = {c:.5f} rad at {args.nu} MHz")
    else:
        config.setdefault("fit", {})["fidelities"] = {
            "b0": args.b0, "b1": args.b1, "bm1": args.bm1, "f": args.f,
        }
        _write_manifest(out, "fit", config)
        est = experiments.estimate_experimental_fidelities(args.b0, args.b1, args.bm1, args.f)
        signals.write_json(
            out / "fidelities.json",
            {
                "f_180": est.f_180,
                "f_u90": est.f_u90,
                "f_uc": est.f_uc,
                "unphysical": est.unphysical,
            },
        )
        flag = " (unphysical input ratios)" if est.unphysical else ""
        print(f"F_180 = {est.f_180:.3f}, F_U90 = {est.f_u90:.3f}, F_Uc = {est.f_uc:.3f}{flag}")
    return 0


def cmd_tables(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    params = _params_from_config(config)
    block = config.get("tables", {})
    which = args.which or block.get("which", "I")
    if which not in ("I", "II", "III", "all"):
        raise UsageError(f"unknown table {which!r}; expected I, II, III or all")
    ga_block = block.get("ga", {})
    ga = _checked("tables.ga block", _ga_from_config, ga_block, config["seed"]) if ga_block else None
    out = _outdir(args)
    config.setdefault("tables", {})["which"] = which
    _write_manifest(out, "tables", config)
    names = ["I", "II", "III"] if which == "all" else [which]
    for name in names:
        rows = optimizer.reproduce_tables(name, params=params, ga=ga, base_seed=config["seed"])
        header = ("table", "target", "mode", "rabi_mhz", "n_pulses", "seed", "fidelity", "duration_us")
        lines = [",".join(header)]
        for row in rows:
            lines.append(
                ",".join(
                    [
                        row["table"],
                        row["target"],
                        row["mode"],
                        repr(float(row["rabi_mhz"])),
                        str(row["n_pulses"]),
                        str(row["seed"]),
                        repr(float(row["fidelity"])),
                        repr(float(row["duration_us"])),
                    ]
                )
            )
        (out / f"table_{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        for row in rows:
            print(
                f"table {name}: {row['target']} rabi {row['rabi_mhz']} n {row['n_pulses']} "
                f"-> fidelity {row['fidelity']:.3f}, {row['duration_us']:.2f} us"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvctrl",
        description="Indirect 13C control toolkit: spin model, pulse synthesis, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config (a written manifest also works)")
        p.add_argument("--seed", type=int, help="seed override for stochastic commands")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted-path config override, value parsed as JSON when possible",
        )

    for name, fn in (
        ("angles", cmd_angles),
        ("esr", cmd_esr),
        ("optimize", cmd_optimize),
        ("fid", cmd_fid),
        ("spectrum", cmd_spectrum),
        ("bloch", cmd_bloch),
        ("polarize", cmd_polarize),
    ):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)

    fit = sub.add_parser("fit")
    fit_sub = fit.add_subparsers(dest="fit_kind", required=True)
    fp = fit_sub.add_parser("polarization")
    common(fp)
    fp.add_argument("--data", required=True, help="CSV with d_l_us,p columns")
    fs = fit_sub.add_parser("sinusoid")
    common(fs)
    fs.add_argument("--data", required=True, help="CSV with tau_us,signal columns")
    fs.add_argument("--nu", type=float, required=True, help="fixed frequency (MHz)")
    ff = fit_sub.add_parser("fidelities")
    common(ff)
    ff.add_argument("--b0", type=float, required=True)
    ff.add_argument("--b1", type=float, required=True)
    ff.add_argument("--bm1", type=float, required=True)
    ff.add_argument("--f", type=float, required=True)
    for p in (fp, fs, ff):
        p.set_defaults(func=cmd_fit)

    tables = sub.add_parser("tables")
    common(tables)
    tables.add_argument("--which", choices=("I", "II", "III", "all"), help="which table batch")
    tables.set_defaults(func=cmd_tables)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except UnknownTarget as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NvctrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
