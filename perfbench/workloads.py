"""The benchmark's workloads: inputs made from a seed, the CLI commands of one
round, and the checks of each command's outputs.

A run repeats one round of commands, so every round after the first must
reproduce the first round's outputs bitwise.  Checks report two kinds of
problem: "wrong" (an output disagrees with an independent computation or
with itself on a repeat: the output is incorrect) and "fail" (the command
did not meet its contract, such as an exit code or an acceptance threshold).
Either kind marks the operation failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from nvctrl import experiments, spin_model

import oracle

# acceptance thresholds of the synthesized sequences (tests/test_acceptance.py)
THRESHOLDS = {"u_p": 0.99, "u_90": 0.95, "robust u_90": 0.89}
ROBUST_BAND = {"lo_mhz": 0.48, "hi_mhz": 0.52, "n_samples": 5}
# The synthesis jobs are the acceptance jobs of tests/conftest.py and run with
# its GA seed (also the CLI default), the seed the tests hold to THRESHOLDS.
# Other GA seeds miss a threshold now and then (see perfbench/README.md), and
# a run's failure count would then depend on --seed.
GA_SEED = 20260809


@dataclass
class Op:
    label: str
    argv: list
    out: Path
    expect: int = 0


@dataclass
class Outcome:
    op: Op
    latency_s: float  # time in main, less the speed samples taken inside it; unscaled
    code: int | None
    escaped: str | None
    problems: list = field(default_factory=list)  # (kind, message)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def output_digest(out: Path) -> str:
    """Digest of a command's output files; the manifest is left out because
    it echoes paths that differ between rounds."""
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        if p.name != "manifest.json":
            h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def _sequence(rng, n_pulses: int, total_us: float | None = None) -> dict:
    """Random delay/pulse sequence at 0.5 MHz; no segment shorter than 0.2 us,
    optionally rescaled to a fixed total duration."""
    taus = rng.uniform(0.2, 3.0, n_pulses)
    ts = rng.uniform(0.2, 2.0, n_pulses)
    phis = rng.uniform(0.0, 2.0 * math.pi, n_pulses)
    if total_us is not None:
        scale = total_us / (taus.sum() + ts.sum())
        taus, ts = taus * scale, ts * scale
    segments = []
    for tau, t, phi in zip(taus, ts, phis):
        segments.append({"kind": "delay", "us": float(tau)})
        segments.append({"kind": "pulse", "us": float(t), "phase_rad": float(phi)})
    return {"rabi_mhz": 0.5, "segments": segments}


class Workload:
    """One round of commands, repeated; subclasses build and check it."""

    def __init__(self, seed: int, root: Path):
        self.inputs = root / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.first_digests = {}  # label -> output digest in the first round
        self.quality = []  # per-job fidelities of the first round
        self.digests = {}  # label -> synthesized sequence digest

    def ops(self, rdir: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, outcome: Outcome, by_label: dict, first: bool) -> None:
        """Check one command's outputs; `first` is true in the first round."""
        raise NotImplementedError

    def check_round(self, k: int, outcomes: list[Outcome]) -> None:
        by_label = {o.op.label: o for o in outcomes}
        for o in outcomes:
            if o.escaped is not None:
                o.problems.append(("fail", f"{o.escaped} escaped main"))
            elif o.code != o.op.expect:
                o.problems.append(("fail", f"exit {o.code}, expected {o.op.expect}"))
            if o.op.expect != 0 or o.failed:
                continue
            try:
                self.check(o, by_label, k == 0)
                digest = output_digest(o.op.out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                o.problems.append(("wrong", f"unreadable output: {type(exc).__name__}: {exc}"))
                continue
            if k == 0:
                self.first_digests[o.op.label] = digest
            elif digest != self.first_digests.get(o.op.label):
                o.problems.append(("wrong", "output differs from the first round"))

    def rerun_labels(self, k: int) -> list[str]:
        return []

    def fidelity_mean(self) -> float:
        return float(np.mean(self.quality)) if self.quality else 0.0


class Synth(Workload):
    """Nominal-amplitude synthesis: u_p with 3 pulses (a state target) and
    u_90 with 2 pulses (a unitary target), default GA settings."""

    robust = False

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.h = spin_model.build_hamiltonian_subspace(spin_model.SystemParams()).matrix
        if self.robust:
            self.jobs = [("u_90", 2, GA_SEED)]
        else:
            self.jobs = [("u_p", 3, GA_SEED), ("u_90", 2, GA_SEED)]
        self.targets = {f"optimize-{t}-n{n}": t for t, n, _ in self.jobs}

    def ops(self, rdir: Path) -> list[Op]:
        ops = []
        for target, n, job_seed in self.jobs:
            label = f"optimize-{target}-n{n}"
            argv = [
                "optimize", "--seed", str(job_seed),
                "--set", f"optimize.target={target}", "--set", f"optimize.n_pulses={n}",
            ]
            if self.robust:
                argv += ["--set", "optimize.robust=" + json.dumps(ROBUST_BAND)]
            ops.append(Op(label, argv + ["--out", str(rdir / label)], rdir / label))
        return ops

    def check(self, o: Outcome, by_label: dict, first: bool) -> None:
        target = self.targets[o.op.label]
        seq = _read_json(o.op.out / "sequence.json")
        result = _read_json(o.op.out / "result.json")
        fid = oracle.target_fidelity(target, oracle.sequence_unitary(self.h, seq))
        if abs(fid - result["fidelity"]) > oracle.TOL:
            o.problems.append(("wrong", f"fidelity {result['fidelity']!r} vs oracle {fid!r}"))
        quality, name = fid, target
        if self.robust:
            b = ROBUST_BAND
            rob = oracle.robust_fidelity(target, self.h, seq, b["lo_mhz"], b["hi_mhz"], b["n_samples"])
            if abs(rob - result["robust_fidelity"]) > oracle.TOL:
                o.problems.append(("wrong", f"robust {result['robust_fidelity']!r} vs oracle {rob!r}"))
            quality, name = rob, f"robust {target}"
        if quality < THRESHOLDS[name]:
            o.problems.append(("fail", f"{name} fidelity {quality:.5f} < {THRESHOLDS[name]}"))
        digest = hashlib.sha256((o.op.out / "sequence.json").read_bytes()).hexdigest()[:16]
        if first:
            self.digests[o.op.label] = digest
            self.quality.append(quality)


class SynthRobust(Synth):
    """Robust synthesis: u_90 with 2 pulses averaged over a 5-sample band of
    drive amplitudes from 0.48 to 0.52 MHz."""

    robust = True


_RERUNNABLE = ("angles", "esr", "fid-", "spectrum-", "bloch", "polarize")


class Readout(Workload):
    """Seeded random sequences through the readout commands; no GA runs."""

    FID = {  # label -> (protocol, sequence keys)
        "uc-seq": ("uc", ("sequence", "sequence_dagger")),
        "uc-ideal": ("uc", ()),
        "ucp-seq": ("uc_prime", ("sequence", "sequence_dagger")),
        "ucp-ideal": ("uc_prime", ()),
        "u90_ms0": ("u90_ms0", ("sequence", "sequence_readout")),
        "u90_ms-1": ("u90_ms-1", ("sequence", "sequence_readout")),
        "u90_ms+1": ("u90_ms+1", ("sequence", "sequence_readout")),
        "analytic_uc": ("analytic_uc", ()),
        "analytic_ucp": ("analytic_uc_prime", ()),
    }
    SINUSOID = {"u90_ms0": 0, "u90_ms-1": 1, "u90_ms+1": 2}  # index into (nu_C, nu_-, nu_+)
    NOISE = 0.01  # standard deviation of the polarization data

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        params = spin_model.SystemParams()
        self.h = spin_model.build_hamiltonian_subspace(params).matrix
        self.fid_oracle = oracle.FidOracle(
            self.h,
            spin_model.build_hamiltonian_subspace_plus(params).matrix,
            spin_model.nuclear_block_hamiltonians(params),
        )
        self.nu = spin_model.nuclear_frequencies(params)
        rng = np.random.default_rng(seed)
        self.seqs = {
            "sequence": _sequence(rng, 3),
            "sequence_dagger": _sequence(rng, 3),
            "sequence_readout": _sequence(rng, 2),
            "bloch": _sequence(rng, 3, total_us=8.0),
            "polarize": _sequence(rng, 3),
        }
        self.files = {}
        for name, seq in self.seqs.items():
            self.files[name] = self.inputs / f"{name}.json"
            self.files[name].write_text(json.dumps(seq, indent=2) + "\n", encoding="utf-8")
        self.windows = {k: (str(rng.choice(["hann", "none"])), int(rng.choice([2, 4]))) for k in self.FID}
        self.esr = (int(rng.choice([-1, 1])), float(rng.uniform(0.01, 0.05)))
        model = experiments.paper_polarization_model()
        d = np.concatenate([np.linspace(0.0, 6.0, 60), np.linspace(6.5, 120.0, 140)])
        p = experiments.polarization_curve(model, d) + rng.normal(0.0, self.NOISE, d.size)
        self.pol_data = self.inputs / "polarization.csv"
        np.savetxt(self.pol_data, np.column_stack([d, p]), delimiter=",", header="d_l_us,p", comments="")
        # the paper's measured amplitude ratios with 5% measurement noise
        self.amplitudes = [
            [float(v * (1.0 + 0.05 * rng.standard_normal())) for v in (0.13, 0.11, 0.20, 0.7)]
            for _ in range(3)
        ]
        (self.inputs / "not_json.json").write_text("{ this is not JSON\n", encoding="utf-8")
        no_phase = {"rabi_mhz": 0.5, "segments": [{"kind": "delay", "us": 1.0}, {"kind": "pulse", "us": 1.0}]}
        (self.inputs / "no_phase.json").write_text(json.dumps(no_phase) + "\n", encoding="utf-8")
        self.sample_rng = rng  # for the rows and delays each check samples
        self.samples = {}
        self._labels = None

    def ops(self, rdir: Path) -> list[Op]:
        def op(label, argv, expect=0):
            out = rdir / label
            return Op(label, argv + ["--out", str(out)], out, expect)

        ops = [op("angles", ["angles"])]
        branch, width = self.esr
        ops.append(op("esr", ["esr", "--set", f"esr.branch={branch}", "--set", f"esr.linewidth_mhz={width!r}"]))
        for label, (protocol, keys) in self.FID.items():
            argv = ["fid", "--set", f"fid.protocol={protocol}"]
            for key in keys:
                argv += ["--set", f"fid.{key}={self.files[key]}"]
            ops.append(op(f"fid-{label}", argv))
        for label in self.FID:
            window, zerofill = self.windows[label]
            ops.append(op(f"spectrum-{label}", [
                "spectrum", "--set", f"spectrum.fid_csv={rdir / f'fid-{label}' / 'fid.csv'}",
                "--set", f"spectrum.window={window}", "--set", f"spectrum.zerofill_factor={zerofill}",
            ]))
        ops.append(op("bloch", ["bloch", "--set", f"bloch.sequence={self.files['bloch']}"]))
        ops.append(op("polarize", ["polarize", "--set", f"polarize.sequence={self.files['polarize']}"]))
        for label, i in self.SINUSOID.items():
            ops.append(op(f"fit-sinusoid-{label}", [
                "fit", "sinusoid", "--data", str(rdir / f"fid-{label}" / "fid.csv"), "--nu", repr(self.nu[i]),
            ]))
        ops.append(op("fit-polarization", ["fit", "polarization", "--data", str(self.pol_data)]))
        for i, (b0, b1, bm1, f) in enumerate(self.amplitudes):
            ops.append(op(f"fit-fidelities-{i}", [
                "fit", "fidelities", "--b0", repr(b0), "--b1", repr(b1), "--bm1", repr(bm1), "--f", repr(f),
            ]))
        # malformed requests: each should be refused with exit 2 (usage error)
        ops += [
            op("bad-fid-dt0", ["fid", "--set", "fid.dt_us=0"], 2),
            op("bad-esr-linewidth", ["esr", "--set", "esr.linewidth_mhz=-1"], 2),
            op("bad-sequence-not-json", [
                "fid", "--set", "fid.protocol=uc", "--set", f"fid.sequence={self.inputs / 'not_json.json'}",
            ], 2),
            op("bad-sequence-no-phase", ["bloch", "--set", f"bloch.sequence={self.inputs / 'no_phase.json'}"], 2),
            op("bad-fid-record", ["fid", "--set", "fid.record_us=-5"], 2),
        ]
        if self._labels is None:
            self._labels = [o.label for o in ops if o.label.startswith(_RERUNNABLE)]
        return ops

    def rerun_labels(self, k: int) -> list[str]:
        n = len(self._labels)
        return [self._labels[(2 * k) % n], self._labels[(2 * k + 1) % n]]

    def _sample(self, key, n, k):
        """Indices sampled once per run, so every round checks the same ones."""
        if key not in self.samples:
            self.samples[key] = sorted(self.sample_rng.choice(n, size=min(k, n), replace=False).tolist())
        return self.samples[key]

    def check(self, o: Outcome, by_label: dict, first: bool) -> None:
        label, out = o.op.label, o.op.out
        wrong = []
        if label == "angles":
            a = _read_json(out / "angles.json")
            got = (a["nu_c_mhz"], a["nu_minus_mhz"], a["nu_plus_mhz"])
            if max(abs(x - y) for x, y in zip(got, self.nu)) > oracle.TOL:
                wrong.append(f"frequencies {got} vs {self.nu}")
        elif label == "esr":
            lines = _read_json(out / "esr_lines.json")["lines"]
            total = sum(line["probability"] for line in lines)
            if len(lines) != 4 or abs(total - 2.0) > oracle.TOL:
                wrong.append(f"{len(lines)} lines with total probability {total}")
            if _read_csv(out / "esr_spectrum.csv").shape != (2001, 2):
                wrong.append("spectrum grid is not 2001 points")
        elif label.startswith("fid-"):
            wrong += self._check_fid(label[4:], out, by_label)
        elif label.startswith("spectrum-"):
            src = _read_csv(by_label[f"fid-{label[9:]}"].op.out / "fid.csv")
            window, zerofill = self.windows[label[9:]]
            freq, amp = oracle.spectrum(src[:, 1], src[1, 0] - src[0, 0], window, zerofill)
            got = _read_csv(out / "spectrum.csv")
            if got.shape != (freq.size, 2) or np.max(np.abs(got[:, 1] - amp)) > oracle.TOL * max(1.0, amp.max()):
                wrong.append("spectrum differs from the recomputed transform")
            elif np.max(np.abs(got[:, 0] - freq)) > 1e-12:
                wrong.append("spectrum frequency grid differs")
        elif label == "bloch":
            rows = oracle.bloch_rows(self.seqs["bloch"], 0.01)
            got = _read_csv(out / "trajectory.csv")
            if got.shape != (len(rows), 7):
                wrong.append(f"{got.shape[0]} trajectory rows, expected {len(rows)}")
            else:
                for i in self._sample("bloch", len(rows), 8):
                    t, seg, rel = rows[i]
                    want = (t,) + oracle.bloch_at(self.h, self.seqs["bloch"], seg, rel)
                    if np.max(np.abs(got[i] - want)) > oracle.TOL:
                        wrong.append(f"trajectory row {i} differs from the oracle")
        elif label == "polarize":
            res = _read_json(out / "polarize.json")
            p, ratio = oracle.polarization_protocol(self.h, self.seqs["polarize"])
            proto = res["protocol"]
            if abs(proto["polarization"] - p) > oracle.TOL or abs(proto["peak_ratio"] - ratio) > oracle.TOL:
                wrong.append(f"protocol {proto} vs oracle ({p}, {ratio})")
            if res["curve_max"]["p"] < _read_csv(out / "polarization.csv")[:, 1].max() - oracle.TOL:
                wrong.append("curve maximum below a sampled curve value")
        elif label.startswith("fit-sinusoid-"):
            data = _read_csv(by_label[f"fid-{label[13:]}"].op.out / "fid.csv")
            want = oracle.sinusoid_fit(data[:, 0], data[:, 1], self.nu[self.SINUSOID[label[13:]]])
            got = _read_json(out / "fit_sinusoid.json")
            dc = math.remainder(got["c"] - want[2], 2.0 * math.pi) if want[1] > 1e-6 else 0.0
            if abs(got["a"] - want[0]) > oracle.TOL or abs(got["b"] - want[1]) > oracle.TOL or abs(dc) > 1e-6:
                wrong.append(f"fit {got} vs oracle {want}")
        elif label == "fit-polarization":
            m = _read_json(out / "fit_polarization.json")
            data = _read_csv(self.pol_data)
            d, p = data[:, 0], data[:, 1]
            model = m["c0"] - m["c1"] * np.exp(-m["pump_rate_per_us"] * d) + m["c2"] * np.exp(-2 * m["gamma_per_us"] * d)
            rms = float(np.sqrt(np.mean((model - p) ** 2)))
            if rms > 1.5 * self.NOISE:
                o.problems.append(("fail", f"fit residual {rms:.4f} exceeds 1.5x the data noise"))
        elif label.startswith("fit-fidelities-"):
            got = _read_json(out / "fidelities.json")
            got = (got["f_180"], got["f_u90"], got["f_uc"])
            want = oracle.amplitude_ratio_fidelities(*self.amplitudes[int(label[15:])])
            if max(abs(x - y) for x, y in zip(got, want)) > 1e-12:
                wrong.append(f"estimates {got} vs closed form {want}")
            if first:
                self.quality.extend(got)
        o.problems += [("wrong", w) for w in wrong]

    def _check_fid(self, key: str, out: Path, by_label: dict) -> list[str]:
        protocol, keys = self.FID[key]
        data = _read_csv(out / "fid.csv")
        tau, sig = data[:, 0], data[:, 1]
        record = 300.0 if protocol.endswith("uc_prime") else 200.0
        if tau.size != int(record) or np.any(sig < -oracle.TOL) or np.any(sig > 1 + oracle.TOL):
            return [f"{tau.size}-point trace or signal outside [0, 1]"]
        if keys:
            seqs = {k: self.seqs[k] for k in keys}
            for i in self._sample(key, tau.size, 6):
                want = self.fid_oracle.signal(protocol, seqs, float(tau[i]))
                if abs(sig[i] - want) > oracle.TOL:
                    return [f"signal at tau={tau[i]} is {float(sig[i])!r}, oracle {want!r}"]
            return []
        if protocol.startswith("analytic"):
            nu_c, nu_m, nu_p = self.nu
            pair = (nu_c, nu_m) if protocol == "analytic_uc" else (nu_m, nu_p)
            want = oracle.analytic_signal(pair, tau)
        else:
            partner = by_label["fid-analytic_uc" if protocol == "uc" else "fid-analytic_ucp"]
            if partner.code != 0:
                return ["no analytic trace to compare with"]
            want = _read_csv(partner.op.out / "fid.csv")[:, 1]
        worst = float(np.max(np.abs(sig - want)))
        return [f"trace differs from the closed form by {worst:.3e}"] if worst > oracle.TOL else []
