"""Spans around calls into the package's layers, installed from outside.

`install` wraps every public function of each layer module and rebinds every
reference to it in every `nvctrl` module namespace (so `from .x import f`
aliases are wrapped too).  A span is recorded only where a call crosses from
one layer into another, and only while an operation is active; calls inside
one layer run through with a single comparison.  Spans stay in memory until
`dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("spin_model", "propagation", "fidelity", "optimizer", "experiments", "signals", "cli")
# the optimizer resolves scipy's minimize in its own namespace; its span is
# the polish stage, kept as a layer of its own so it is never folded into
# the enclosing optimize span
POLISH = "optimizer.polish"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, op, extra]
        self._stack = []
        self.op = None

    def wrap(self, layer: str, name: str, fn, annotate=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None or (stack and spans[stack[-1]][1] == layer):
                return fn(*args, **kwargs)
            span = [name, layer, perf_counter(), None, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[6] = {"raised": type(exc).__name__}
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if annotate is not None:
                span[6] = annotate(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "op", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ga_genomes(ga) -> int:
    return ga.restarts * (ga.population + ga.generations * (ga.population - ga.elite_count))


def _annotate_optimize(args, kwargs, result):
    from nvctrl.optimizer import GaConfig

    ga = args[1] if len(args) > 1 else kwargs.get("ga")
    ga = ga or GaConfig()
    gain = result.history[-1] - result.history[-2] if ga.polish_evals > 0 else 0.0
    return {"genomes": _ga_genomes(ga), "polish_gain": float(gain)}


def _annotate_write(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


_ANNOTATE = {
    "optimize": _annotate_optimize,
    "write_csv": _annotate_write,
    "write_json": _annotate_write,
    "trajectory": lambda a, k, r: {"samples": len(r)},
    "main": lambda a, k, r: {"exit": r},
}


def install(tracer: Tracer):
    """Wrap the layers' public functions; returns a callable that undoes it."""
    modules = [m for name, m in sys.modules.items() if name == "nvctrl" or name.startswith("nvctrl.")]
    replace = {}
    for layer in LAYERS:
        module = importlib.import_module(f"nvctrl.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            replace[obj] = tracer.wrap(layer, f"{layer}.{attr}", obj, _ANNOTATE.get(attr))
    opt = importlib.import_module("nvctrl.optimizer")
    replace[opt.minimize] = tracer.wrap(
        POLISH, POLISH, opt.minimize, lambda a, k, r: {"nfev": int(r.nfev)}
    )
    undo = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replace:
                undo.append((module, attr, obj))
                setattr(module, attr, replace[obj])

    def uninstall():
        for module, attr, obj in undo:
            setattr(module, attr, obj)

    return uninstall


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer figures per traced round.  A stage's `self_s` is its spans'
    time minus the time of the spans they caused; `us_per_*` ratios use
    inclusive span time, except where a self time is named."""
    dur = [s[3] - s[2] for s in spans]
    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child_time[s[4]] += dur[i]
            children[s[4]].append(i)

    def pick(pred):
        return [i for i, s in enumerate(spans) if pred(s)]

    def named(*names):
        return pick(lambda s: s[0] in names)

    def total(idx, own=False):
        return sum(dur[i] - (child_time[i] if own else 0.0) for i in idx)

    def per_call_us(idx):
        return total(idx) / len(idx) * 1e6 if idx else 0.0

    def extra_sum(idx, key):
        return sum((spans[i][6] or {}).get(key, 0) for i in idx)

    optimize = named("optimizer.optimize")
    polish = named(POLISH)
    audit = [
        c for i in optimize for c in children[i]
        if spans[c][0] in ("fidelity.sequence_fidelity", "fidelity.robust_fidelity")
    ]
    ga_s = total(optimize) - sum(dur[c] for i in optimize for c in children[i] if spans[c][0] == POLISH) - total(audit)
    genomes = extra_sum(optimize, "genomes")
    nfev = extra_sum(polish, "nfev")
    traj = named("propagation.trajectory")
    samples = extra_sum(traj, "samples")
    writes = named("signals.write_csv", "signals.write_json")
    main = named("cli.main")
    exits = [(spans[i][6] or {}).get("exit") for i in main]
    polish_s = total(polish, own=True)
    traj_s = total(traj, own=True)
    fit = ("fit_fid_amplitude", "fit_polarization", "estimate_experimental_fidelities")
    pol = ("paper_polarization_model", "polarization_curve", "polarization_curve_max", "polarization_protocol_sim")
    r = float(rounds)
    return {
        "optimizer.ga.genomes": (genomes / r, "count"),
        "optimizer.ga.self_s": (ga_s / r, "s"),
        "optimizer.ga.us_per_genome": (ga_s / genomes * 1e6 if genomes else 0.0, "us"),
        "optimizer.polish.calls": (len(polish) / r, "count"),
        "optimizer.polish.nfev": (nfev / r, "count"),
        "optimizer.polish.self_s": (polish_s / r, "s"),
        "optimizer.polish.us_per_eval": (polish_s / nfev * 1e6 if nfev else 0.0, "us"),
        "optimizer.polish.gain": (
            extra_sum(optimize, "polish_gain") / len(optimize) if optimize else 0.0, "fitness"
        ),
        "optimizer.audit.self_s": (total(audit) / r, "s"),
        "fidelity.sequence_fidelity.us_per_call": (per_call_us(named("fidelity.sequence_fidelity")), "us"),
        "fidelity.robust_fidelity.us_per_call": (per_call_us(named("fidelity.robust_fidelity")), "us"),
        "propagation.sequence_propagator.calls": (
            len(named("propagation.sequence_propagator")) / r, "count"
        ),
        "propagation.sequence_propagator.us_per_call": (
            per_call_us(named("propagation.sequence_propagator")), "us"
        ),
        "propagation.trajectory.samples": (samples / r, "count"),
        "propagation.trajectory.self_s": (traj_s / r, "s"),
        "propagation.trajectory.us_per_sample": (traj_s / samples * 1e6 if samples else 0.0, "us"),
        "experiments.fid.us_per_call": (
            per_call_us(named(*(f"experiments.{n}" for n in ("fid_uc", "fid_uc_prime", "fid_u90", "analytic_fid")))),
            "us",
        ),
        "experiments.spectrum.us_per_call": (per_call_us(named("experiments.spectrum_from_fid")), "us"),
        "experiments.fit.self_s": (total(named(*(f"experiments.{n}" for n in fit)), own=True) / r, "s"),
        "experiments.polarization.self_s": (
            total(named(*(f"experiments.{n}" for n in pol)), own=True) / r, "s"
        ),
        "signals.write.calls": (len(writes) / r, "count"),
        "signals.write.bytes": (extra_sum(writes, "bytes") / r, "B"),
        "signals.write.self_s": (total(writes, own=True) / r, "s"),
        "signals.read.self_s": (total(named("signals.read_csv"), own=True) / r, "s"),
        "cli.main.self_s": (total(main, own=True) / r, "s"),
        "cli.exit_2": (exits.count(2) / r, "count"),
        "cli.exit_3": (exits.count(3) / r, "count"),
        "cli.escaped": (sum(1 for i in main if (spans[i][6] or {}).get("raised")) / r, "count"),
        "spin_model.self_s": (total(pick(lambda s: s[1] == "spin_model"), own=True) / r, "s"),
    }
