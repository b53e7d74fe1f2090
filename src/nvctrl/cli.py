"""Batch command-line front end.

Every command is a function (config, block) -> (files, message) that writes
nothing; `block` is its own config block, checked (None for `angles`).  `main`
resolves the configuration (file < --set overrides < command options), runs
the command, and only when it succeeds creates the output directory and writes
a manifest echoing the configuration plus the command's files (each a JSON
payload or a writer taking the path).  A command reads only its config and the
files it names and changes nothing in it, so its manifest re-runs it bitwise.

Exit codes: 0 success, 2 usage error (any input the package rejects), 3
runtime error: an OS error reading an input file or writing an output, a
broken physical invariant, or a fit that did not converge.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_args

import numpy as np

from . import experiments, optimizer, signals, spin_model
from .errors import NvctrlError
from .experiments import DEFAULT_UC_PRIME_RECORD_US, DEFAULT_UC_RECORD_US
from .fidelity import RobustnessRange, build_target, rho0_state, rho_p_state
from .optimizer import DEFAULT_SEED, ControlProblem, GaConfig
from .propagation import PulseSequence, trajectory
from .spin_model import SystemParams

# each fid protocol -> the fid keys it reads besides protocol, record_us and dt_us
_FID_KEYS = {
    **dict.fromkeys(("uc", "uc_prime"), ("sequence", "sequence_dagger")),
    **dict.fromkeys(experiments.U90_TAGS.values(), ("sequence", "sequence_readout", "polarization")),
    **dict.fromkeys(("analytic_uc", "analytic_uc_prime"), ()),
}

# raised by bad input while a command builds its inputs (exit 2): the package
# rejects input with ValueError; MemoryError is a size too large to allocate
_BAD_INPUT = (TypeError, ValueError, KeyError, OverflowError, MemoryError)


class UsageError(NvctrlError):
    """Bad command-line or configuration input (exit status 2)."""


_POLARIZATION_MODEL = asdict(experiments.paper_polarization_model())
# the search budget; the seed is the top-level `seed`
_GA = {f.name: f.default for f in fields(GaConfig) if f.name != "seed"}
_FIT_RATIOS = ("b0", "b1", "bm1", "f")

# Every config block a command reads, by dotted path (a fit command's keys
# by the command: they live in the `fit` block), as {key: default}.  A
# default's type is the key's type; a bare type marks a key that must be
# given, and `type | None` a key whose default is None.  A sub-block is a
# `dict` key of its parent with an entry of its own.
_BLOCKS = {
    "params": {f.name: float | None if f.default is None else f.default for f in fields(SystemParams)},
    "esr": {"branch": -1, "linewidth_mhz": 0.02, "f_min_mhz": -0.35, "f_max_mhz": 0.35, "n_points": 2001},
    "optimize": {
        "target": "u_p", "rabi_mhz": 0.5, "mode": "free", "robust": dict | None, "n_pulses": 3,
        "duration_penalty": 0.0, "ga": {},
    },
    "optimize.robust": {"lo_mhz": float, "hi_mhz": float, "n_samples": 5},
    "optimize.ga": _GA,
    "fid": {
        "protocol": "analytic_uc", "record_us": float | None, "dt_us": experiments.DEFAULT_STEP_US,
        "sequence": str | None, "sequence_dagger": str | None, "sequence_readout": str | None,
        "polarization": 1.0,
    },
    "spectrum": {
        "fid_csv": str, "window": "hann", "zerofill_factor": 4, "exp_rate": float | None, "n_peaks": 3,
    },
    "bloch": {"sequence": str, "initial": "rho0", "dt_us": 0.01},
    "polarize": {**_POLARIZATION_MODEL, "d_max_us": 50.0, "n_points": 501, "sequence": str | None},
    "tables": {"which": "I", "ga": {}},
    "tables.ga": _GA,
    "fit polarization": {"data": str},
    "fit sinusoid": {"data": str, "nu_mhz": float},
    "fit fidelities": dict.fromkeys(_FIT_RATIOS, float),
}
# the top-level keys a config may hold
_ROOTS = {"seed", *(name.split()[0].split(".")[0] for name in _BLOCKS)}
_KINDS = {int: "an integer", float: "a finite number", str: "a string", dict: "an object"}


def _kind(decl) -> type:
    """The type of a key declared by `decl`."""
    optional = get_args(decl)  # (type, NoneType) for `type | None`
    return optional[0] if optional else decl if isinstance(decl, type) else type(decl)


def _checked(key: str, value, decl):
    """`value` if JSON gave it with the type `decl` declares: an integer
    passes as a float, and null only for a `type | None` key."""
    kind = _kind(decl)
    if value is None and get_args(decl):
        return None
    if kind is float and type(value) is int:
        with contextlib.suppress(OverflowError):
            value = float(value)
    if type(value) is kind and (kind is not float or math.isfinite(value)):
        return value
    raise UsageError(f"{key} must be {_KINDS[kind]}, got {json.dumps(value)}")


def _grid_points(value: int, what: str) -> int:
    if value < 2:
        raise UsageError(f"{what} must be at least 2, got {value!r}")
    experiments.check_grid_size(value, what)
    return value


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
        loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        # accept a previously written manifest as a config
        if "config" in loaded and "command" in loaded:
            loaded = loaded["config"]
        config = loaded
    for item in sets or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        _apply_override(config, key, _parse_set_value(value))
    unknown = sorted(set(config) - _ROOTS)
    if unknown:
        raise UsageError(f"unknown top-level config keys {unknown}; expected some of {sorted(_ROOTS)}")
    config["seed"] = _checked("seed", config.get("seed", DEFAULT_SEED) if seed is None else seed, int)
    return config


def _block(config: dict, name: str) -> dict:
    """The config block `_BLOCKS[name]` with every declared key checked or
    filled in; any other key is a usage error."""
    spec, path = _BLOCKS[name], name.split()[0]
    block = config
    for part in path.split("."):
        block = block.get(part, {})
        if not isinstance(block, dict):
            raise UsageError(f"config block {path!r} must be an object, got {block!r}")
    unknown = sorted(set(block) - set(spec))
    if unknown:
        raise UsageError(f"unknown keys {unknown} in config block {path!r}; expected some of {sorted(spec)}")
    # an absent key takes its declared default, or null when it has none
    return {
        key: _checked(f"{path}.{key}", block.get(key, decl if type(decl) in _KINDS else None), decl)
        for key, decl in spec.items()
    }


def _ga(config: dict, name: str) -> GaConfig:
    """The search budget in block `name`, seeded by the top-level seed."""
    return GaConfig(**_block(config, name), seed=config["seed"])


def _load_sequence(path: str | None) -> PulseSequence | None:
    return None if path is None else PulseSequence.load(path)


def cmd_angles(config, block):
    params = SystemParams(**_block(config, "params"))
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
    return {"angles.json": payload}, (
        f"theta_plus = {theta_plus:.3f} deg, theta_minus = {theta_minus:.3f} deg; "
        f"nu_C = {nu_c:.4f} MHz, nu_minus = {nu_minus:.4f} MHz, nu_plus = {nu_plus:.4f} MHz"
    )


def cmd_esr(config, block):
    params = SystemParams(**_block(config, "params"))
    branch = block["branch"]
    f_lo, f_hi = block["f_min_mhz"], block["f_max_mhz"]
    if not (math.isfinite(f_hi - f_lo) and f_lo < f_hi):
        raise UsageError(f"esr.f_min_mhz < esr.f_max_mhz must bound a finite window, got {f_lo!r}, {f_hi!r}")
    n = _grid_points(block["n_points"], "esr.n_points")
    lines = spin_model.esr_lines(params, branch)
    spec = spin_model.esr_spectrum(lines, block["linewidth_mhz"], np.linspace(f_lo, f_hi, n))
    files = {
        "esr_lines.json": {
            "branch": branch,
            "lines": [{"offset_mhz": o, "probability": p} for o, p in lines],
        },
        "esr_spectrum.csv": spec.to_csv,
    }
    return files, f"wrote {len(lines)} ESR lines (branch {branch:+d}) and spectrum"


def cmd_optimize(config, block):
    params = SystemParams(**_block(config, "params"))
    modes = {"free": optimizer.MODE_FREE, "switched": optimizer.MODE_SWITCHED}
    mode = modes.get(block["mode"], block["mode"])
    if mode not in modes.values():
        raise UsageError(f"unknown mode {block['mode']!r}")
    problem = ControlProblem(
        params=params,
        target=build_target(block["target"], params, block["rabi_mhz"]),
        n_pulses=block["n_pulses"],
        rabi_mhz=block["rabi_mhz"],
        mode=mode,
        robustness=None if block["robust"] is None else RobustnessRange(**_block(config, "optimize.robust")),
        duration_penalty=block["duration_penalty"],
    )
    result = optimizer.optimize(problem, _ga(config, "optimize.ga"))
    files = {
        "sequence.json": result.best_sequence.save,
        "result.json": result.to_json_dict(),
    }
    robust_text = "" if result.robust_fidelity is None else f", robust {result.robust_fidelity:.4f}"
    return files, (
        f"target {problem.target.name}: fidelity {result.fidelity:.4f}{robust_text}, "
        f"duration {result.total_duration_us:.2f} us"
    )


def cmd_fid(config, block):
    params = SystemParams(**_block(config, "params"))
    protocol = block["protocol"]
    if protocol not in _FID_KEYS:
        raise UsageError(f"unknown fid protocol {protocol!r}; expected one of {tuple(_FID_KEYS)}")
    read = {"protocol", "record_us", "dt_us", *_FID_KEYS[protocol]}
    unread = sorted(set(config.get("fid", {})) - read)
    if unread:
        raise UsageError(f"fid protocol {protocol!r} reads no keys {unread}; it reads {sorted(read)}")
    default_us = DEFAULT_UC_PRIME_RECORD_US if protocol.endswith("uc_prime") else DEFAULT_UC_RECORD_US
    record = default_us if block["record_us"] is None else block["record_us"]
    step = block["dt_us"]
    tau = experiments.default_tau_grid(record, step)
    if protocol.startswith("analytic_"):
        trace = experiments.analytic_fid(protocol.removeprefix("analytic_"), params, tau)
    elif protocol in ("uc", "uc_prime"):
        seq = _load_sequence(block["sequence"])
        seq_dag = _load_sequence(block["sequence_dagger"])
        fn = experiments.fid_uc if protocol == "uc" else experiments.fid_uc_prime
        trace = fn(params, seq, seq_dag, tau)
    else:
        subspace = {tag: s for s, tag in experiments.U90_TAGS.items()}[protocol]
        seq = _load_sequence(block["sequence"])
        seq_ut = _load_sequence(block["sequence_readout"])
        trace = experiments.fid_u90(params, subspace, seq, seq_ut, tau, block["polarization"])
    files = {
        "fid.csv": trace.to_csv,
        "fid.json": {
            "protocol": trace.protocol,
            "n_samples": int(tau.size),
            "record_us": record,
            "dt_us": step,
        },
    }
    return files, f"wrote {tau.size}-point {trace.protocol} trace"


def cmd_spectrum(config, block):
    trace = signals.FidTrace.from_csv(block["fid_csv"])
    spec = experiments.spectrum_from_fid(trace, block["window"], block["zerofill_factor"], block["exp_rate"])
    peaks = signals.top_peaks(spec, block["n_peaks"])
    files = {
        "spectrum.csv": spec.to_csv,
        "peaks.json": {
            "resolution_mhz": spec.resolution_mhz,
            "metadata": spec.metadata,
            "peaks": [{"freq_mhz": f, "amplitude": a} for f, a in peaks],
        },
    }
    return files, "peaks at " + ", ".join(f"{f:.4f} MHz" for f, _ in peaks)


def cmd_bloch(config, block):
    params = SystemParams(**_block(config, "params"))
    seq = _load_sequence(block["sequence"])
    initial = block["initial"]
    states = {"rho0": rho0_state, "rho_p": rho_p_state}
    if initial not in states:
        raise UsageError(f"unknown initial state {initial!r}; expected one of {sorted(states)}")
    rho = states[initial]()
    h = spin_model.build_hamiltonian_subspace(params)
    rows = trajectory(h, seq, rho, dt_us=block["dt_us"])
    t, ex, ey, ez, cx, cy, cz = rows[-1].tolist()
    files = {
        "trajectory.csv": lambda path: signals.write_csv(
            path, ("time_us", "e_x", "e_y", "e_z", "c_x", "c_y", "c_z"), rows.T
        ),
        "bloch.json": {
            "final_time_us": t,
            "electron": {"x": ex, "y": ey, "z": ez},
            "carbon": {"x": cx, "y": cy, "z": cz},
        },
    }
    return files, f"final carbon vector ({cx:+.4f}, {cy:+.4f}, {cz:+.4f}) after {t:.2f} us"


def cmd_polarize(config, block):
    params = SystemParams(**_block(config, "params"))
    model = experiments.PolarizationModel(**{key: block[key] for key in _POLARIZATION_MODEL})
    d_max = block["d_max_us"]
    if not d_max > 0:
        raise UsageError(f"polarize.d_max_us must be positive, got {d_max!r}")
    n = _grid_points(block["n_points"], "polarize.n_points")
    grid = np.linspace(0.0, d_max, n)
    curve = experiments.polarization_curve(model, grid)
    seq = _load_sequence(block["sequence"])
    d_star, p_star = experiments.polarization_curve_max(model, 0.0, d_max)
    payload = {"curve_max": {"d_l_us": d_star, "p": p_star}}
    lines = []
    if seq is not None:
        outcome = experiments.polarization_protocol_sim(params, seq)
        payload["protocol"] = asdict(outcome)
        lines.append(f"protocol polarization p = {outcome.polarization:.4f}")
    lines.append(f"curve maximum p = {p_star:.4f} at d_L = {d_star:.3f} us")
    files = {
        "polarization.csv": lambda path: signals.write_csv(path, ("d_l_us", "p"), (grid, curve)),
        "polarize.json": payload,
    }
    return files, "\n".join(lines)


def _fit_data(block) -> np.ndarray:
    """The first two columns of the fit.data CSV."""
    return np.column_stack(signals.read_csv(block["data"])[:2])


def cmd_fit_polarization(config, block):
    model = experiments.fit_polarization(_fit_data(block))
    return {"fit_polarization.json": asdict(model)}, (
        f"c0 = {model.c0:.4f}, c1 = {model.c1:.4f}, c2 = {model.c2:.4f}, "
        f"alpha+beta = {model.pump_rate_per_us:.4f}/us, gamma = {model.gamma_per_us:.4f}/us"
    )


def cmd_fit_sinusoid(config, block):
    nu = block["nu_mhz"]
    a, b, c = experiments.fit_fid_amplitude(_fit_data(block), nu)
    return {"fit_sinusoid.json": {"a": a, "b": b, "c": c, "nu_mhz": nu}}, (
        f"a = {a:.5f}, b = {b:.5f}, c = {c:.5f} rad at {nu} MHz"
    )


def cmd_fit_fidelities(config, block):
    est = experiments.estimate_experimental_fidelities(**block)
    flag = " (unphysical input ratios)" if est.unphysical else ""
    return {"fidelities.json": asdict(est)}, (
        f"F_180 = {est.f_180:.3f}, F_U90 = {est.f_u90:.3f}, F_Uc = {est.f_uc:.3f}{flag}"
    )


def cmd_tables(config, block):
    params = SystemParams(**_block(config, "params"))
    which = block["which"]
    if which not in ("I", "II", "III", "all"):
        raise UsageError(f"unknown table {which!r}; expected I, II, III or all")
    ga = _ga(config, "tables.ga")
    files, lines = {}, []
    for name in ["I", "II", "III"] if which == "all" else [which]:
        rows = optimizer.reproduce_tables(name, params=params, ga=ga)
        text = "".join(",".join(map(str, line)) + "\n" for line in [rows[0], *(row.values() for row in rows)])
        files[f"table_{name}.csv"] = lambda path, text=text: path.write_text(text, encoding="utf-8")
        lines += [
            f"table {name}: {row['target']} rabi {row['rabi_mhz']} n {row['n_pulses']} "
            f"-> fidelity {row['fidelity']:.3f}, {row['duration_us']:.2f} us"
            for row in rows
        ]
    return files, "\n".join(lines)


@functools.cache  # one parser per process: parsing changes nothing in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvctrl",
        description="Indirect 13C control toolkit: spin model, pulse synthesis, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(group, name, fn):
        p = group.add_parser(name)
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
        p.set_defaults(func=fn)
        return p

    add(sub, "angles", cmd_angles)
    add(sub, "esr", cmd_esr)
    add(sub, "optimize", cmd_optimize)
    add(sub, "fid", cmd_fid)
    add(sub, "spectrum", cmd_spectrum)
    add(sub, "bloch", cmd_bloch)
    add(sub, "polarize", cmd_polarize)

    fit = sub.add_parser("fit").add_subparsers(dest="fit_kind", required=True)
    # each fit option is an alias of the config key named by its dest
    fp = add(fit, "polarization", cmd_fit_polarization)
    fp.add_argument("--data", dest="fit.data", help="fit.data: CSV with d_l_us,p columns")
    fs = add(fit, "sinusoid", cmd_fit_sinusoid)
    fs.add_argument("--data", dest="fit.data", help="fit.data: CSV with tau_us,signal columns")
    fs.add_argument("--nu", dest="fit.nu_mhz", type=float, help="fit.nu_mhz: fixed frequency (MHz)")
    ff = add(fit, "fidelities", cmd_fit_fidelities)
    for name in _FIT_RATIOS:
        ff.add_argument(f"--{name}", dest=f"fit.{name}", type=float, help=f"fit.{name}")

    tables = add(sub, "tables", cmd_tables)
    tables.add_argument("--which", dest="tables.which", choices=("I", "II", "III", "all"),
                        help="tables.which: which table batch")
    return parser


def _run(args) -> None:
    """Compute first, write last: nothing is written unless the command succeeds."""
    command = f"fit {args.fit_kind}" if args.command == "fit" else args.command
    try:
        config = load_config(args.config, args.set, args.seed)
        for key, value in vars(args).items():
            if "." in key and value is not None:
                _apply_override(config, key, value)
        files, message = args.func(config, _block(config, command) if command in _BLOCKS else None)
    except _BAD_INPUT as exc:
        raise UsageError(f"bad {command} input: {exc!r}") from exc
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {out} is not a directory that can be created: {exc!r}") from exc
    signals.write_json(out / "manifest.json", {"command": command, "config": config})
    for name, content in files.items():
        if callable(content):
            content(out / name)
        else:
            signals.write_json(out / name, content)
    print(message)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NvctrlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())
