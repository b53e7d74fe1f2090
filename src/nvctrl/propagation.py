"""Exact unitary propagation of states under pulse sequences.

A sequence alternates free-precession delays and constant-amplitude microwave
pulses on the electron pseudo-spin.  All propagators are built by Hermitian
eigendecomposition, U = V exp(-i 2 pi w t) V^dag, which is exact at any
duration.  `_propagators` is the one place that does so, for a whole batch of
durations at once.  The factor 2*pi enters only in `_phases`, the phase angles
2 pi w t that `_propagators` and the diagonal factors of the search's fitness
kernel share.

Physical invariants are checked once per batch where results leave this
module: `sequence_propagator` checks unitarity, and `_evolve`, which every
readout (trajectory samples and FID delays) goes through, checks unit trace
and Hermiticity.  A violation raises `InvariantViolation`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import signals
from .errors import InvariantViolation
from .spin_model import Hamiltonian, PSEUDO_SX, PSEUDO_SY, TWO_PI, _hermitian_error

# tolerance of the unitarity, trace and Hermiticity checks
_INVARIANT_TOL = 1e-10


@dataclass(frozen=True)
class Delay:
    """Free-precession segment of duration `us` microseconds."""

    us: float


@dataclass(frozen=True)
class Pulse:
    """Microwave pulse of duration `us` and carrier phase `phase_rad`."""

    us: float
    phase_rad: float


# the keys of each segment kind in a sequence file, its values in field order
_SEGMENT_KEYS = {"delay": ("kind", "us"), "pulse": ("kind", "us", "phase_rad")}


def _number(value, key: str):
    """A sequence-file value; JSON true/false would otherwise pass as 1/0."""
    if isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return value


@dataclass(frozen=True)
class PulseSequence:
    """Alternating delays and pulses at a fixed Rabi frequency (MHz).

    Segment layout is free: builders produce the canonical
    delay-pulse-delay-pulse order with zero-length segments permitted.
    Phases are normalized into [0, 2pi) on construction.
    """

    rabi_mhz: float
    segments: tuple

    def __post_init__(self):
        if not math.isfinite(self.rabi_mhz):
            raise ValueError(f"Rabi frequency must be finite, got {self.rabi_mhz!r}")
        if self.rabi_mhz < 0:
            raise ValueError("Rabi frequency must be non-negative")
        normalized = []
        for seg in self.segments:
            values = (seg.us, seg.phase_rad) if isinstance(seg, Pulse) else (seg.us,)
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"segment values must be finite, got {seg!r}")
            if seg.us < 0:
                raise ValueError("segment durations must be non-negative")
            if isinstance(seg, Pulse):
                # a phase just below 0 wraps to 2pi itself, which is 0
                phase = seg.phase_rad % TWO_PI
                seg = Pulse(seg.us, 0.0 if phase == TWO_PI else phase)
            normalized.append(seg)
        object.__setattr__(self, "segments", tuple(normalized))

    @property
    def total_duration_us(self) -> float:
        return float(sum(seg.us for seg in self.segments))

    def delays(self) -> list[Delay]:
        return [s for s in self.segments if isinstance(s, Delay)]

    def pulses(self) -> list[Pulse]:
        return [s for s in self.segments if isinstance(s, Pulse)]

    @classmethod
    def from_arrays(cls, rabi_mhz, taus, ts, phis) -> "PulseSequence":
        """Canonical layout: delay tau_k before pulse (t_k, phi_k), k = 1..n."""
        if not (len(taus) == len(ts) == len(phis)):
            raise ValueError("taus, ts, phis must have equal length")
        segments = []
        for tau, t, phi in zip(taus, ts, phis):
            segments.append(Delay(float(tau)))
            segments.append(Pulse(float(t), float(phi)))
        return cls(float(rabi_mhz), tuple(segments))

    def to_json_dict(self) -> dict:
        segs = []
        for seg in self.segments:
            if isinstance(seg, Delay):
                segs.append({"kind": "delay", "us": seg.us})
            else:
                segs.append({"kind": "pulse", "us": seg.us, "phase_rad": seg.phase_rad})
        return {"rabi_mhz": self.rabi_mhz, "segments": segs}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PulseSequence":
        """Inverse of `to_json_dict`; a segment may hold only its kind's keys,
        and no value may be a JSON boolean."""
        segments = []
        for seg in data["segments"]:
            kind = seg["kind"]
            if kind not in _SEGMENT_KEYS:
                raise ValueError(f"unknown segment kind {kind!r}")
            unknown = sorted(set(seg) - set(_SEGMENT_KEYS[kind]))
            if unknown:
                raise ValueError(f"unknown keys {unknown} in a {kind} segment")
            values = [_number(seg[key], key) for key in _SEGMENT_KEYS[kind][1:]]
            segments.append(Delay(*values) if kind == "delay" else Pulse(*values))
        return cls(_number(data["rabi_mhz"], "rabi_mhz"), tuple(segments))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "PulseSequence":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True, eq=False)
class DensityState:
    """Density matrix: trace one, Hermitian, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("density matrix must be finite")
        trace = np.trace(m)
        if not (abs(trace.real - 1.0) <= 1e-10 and abs(trace.imag) <= 1e-10):
            raise ValueError("density matrix must have unit trace")
        if not _hermitian_error(m) <= 1e-10:
            raise ValueError("density matrix must be Hermitian")
        if not np.linalg.eigvalsh(m).min() >= -1e-10:
            raise ValueError("density matrix must be positive semidefinite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def _phases(w, times) -> np.ndarray:
    """Phase angles 2 pi w t (radians) for every t in `times` (microseconds)
    and every eigenvalue w (MHz), shape (T, d)."""
    return TWO_PI * np.outer(times, w)


def _propagators(h: np.ndarray, times) -> np.ndarray:
    """exp(-i 2 pi H t) for every t in `times` (microseconds), shape (T, d, d),
    for the Hermitian matrix `h` (MHz)."""
    w, v = np.linalg.eigh(h)
    with np.errstate(over="ignore"):
        angles = _phases(w, times)
    if not np.isfinite(angles).all():
        raise OverflowError("propagator phase 2 pi w t is beyond float range; a segment is too long")
    phases = np.exp(-1j * angles)
    return (v[None] * phases[:, None, :]) @ v.conj().T


def drive_operator(rabi_mhz: float, phase_rad: float) -> np.ndarray:
    """Microwave drive rabi * (s_x cos(phi) + s_y sin(phi)) on the 4-dim space."""
    return rabi_mhz * (PSEUDO_SX * math.cos(phase_rad) + PSEUDO_SY * math.sin(phase_rad))


def _generator(h: Hamiltonian, rabi_mhz: float, seg) -> np.ndarray:
    """The Hamiltonian a segment evolves under: H for a delay, H plus the
    resonant drive for a pulse, which acts on the 4-dim subspace only."""
    if isinstance(seg, Delay):
        return h.matrix
    if h.dim != 4:
        raise ValueError("pulse propagation requires the 4-dim subspace Hamiltonian")
    return h.matrix + drive_operator(rabi_mhz, seg.phase_rad)


def sequence_propagator(h: Hamiltonian, seq: PulseSequence) -> np.ndarray:
    """Time-ordered product of the segment propagators (rightmost acts first),
    checked for unitarity."""
    u = np.eye(h.dim, dtype=complex)
    for seg in seq.segments:
        u = _propagators(_generator(h, seq.rabi_mhz, seg), [seg.us])[0] @ u
    error = np.linalg.norm(u.conj().T @ u - np.eye(h.dim))
    if not error <= _INVARIANT_TOL:
        raise InvariantViolation(f"sequence propagator is not unitary: |U^dag U - I| = {error:.3g}")
    return u


def _evolve(us: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """States U rho U^dag for a batch of propagators `us`, shape (T, d, d);
    unit trace and Hermiticity are checked once for the whole batch."""
    rhos = us @ rho @ us.conj().transpose(0, 2, 1)
    trace_error = np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0).max(initial=0.0)
    herm_error = np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max(initial=0.0)
    if not (trace_error <= _INVARIANT_TOL and herm_error <= _INVARIANT_TOL):
        raise InvariantViolation(
            f"evolved states lost unit trace or Hermiticity: "
            f"trace error {trace_error:.3g}, Hermiticity error {herm_error:.3g}"
        )
    return rhos


def _bloch(rhos: np.ndarray, subsystem: str) -> np.ndarray:
    """(T, 3) Bloch components of one spin for a batch of 4-dim states, taken
    from the reduced 2x2 state; the reshaped index order is (electron, carbon,
    electron', carbon').  The electron z-component is the population
    difference P(|0>) - P(|-1>), i.e. |0> is pseudo-spin up."""
    r = rhos.reshape(-1, 2, 2, 2, 2)
    if subsystem == "electron":
        sub = r[:, :, 0, :, 0] + r[:, :, 1, :, 1]
    elif subsystem == "carbon":
        sub = r[:, 0, :, 0, :] + r[:, 1, :, 1, :]
    else:
        raise ValueError("subsystem must be 'electron' or 'carbon'")
    return np.stack(
        [2.0 * sub[:, 0, 1].real, 2.0 * sub[:, 1, 0].imag, (sub[:, 0, 0] - sub[:, 1, 1]).real], axis=1
    )


def trajectory(h: Hamiltonian, seq: PulseSequence, rho0: DensityState, dt_us: float = 0.01) -> np.ndarray:
    """Bloch-sphere trajectory sampled every dt_us within each segment plus at
    every segment boundary.

    Returns a (T, 7) array whose rows are (time_us, e_x, e_y, e_z, c_x, c_y,
    c_z): the electron and carbon Bloch components at each sample time.  The
    default step resolves the fastest nuclear precession comfortably.  More
    than `signals.MAX_GRID_SAMPLES` samples raise ValueError before any is
    built, since every sample costs a 4x4 propagator and a state.
    """
    if dt_us <= 0:
        raise ValueError("dt must be positive")
    # whole steps per segment, capped so that a huge ratio stays a small int
    n_steps = [math.floor(min(seg.us / dt_us + 1e-12, signals.MAX_GRID_SAMPLES)) for seg in seq.segments]
    # the initial state, the steps, and each segment's end when no step hits it
    n_samples = 1 + sum(n + (n == 0 or dt_us * n < seg.us) for n, seg in zip(n_steps, seq.segments))
    signals.check_grid_size(n_samples, f"a trajectory at dt_us = {dt_us!r}")
    times, states = [np.zeros(1)], [rho0.matrix[None]]
    state, t0 = rho0.matrix, 0.0
    for seg, n in zip(seq.segments, n_steps):
        rel_times = [dt_us * k for k in range(1, n + 1)]
        if not rel_times or rel_times[-1] < seg.us:
            rel_times.append(seg.us)
        # the samples, then the segment end the next segment starts from
        rhos = _evolve(_propagators(_generator(h, seq.rabi_mhz, seg), rel_times + [seg.us]), state)
        times.append(t0 + np.array(rel_times))
        states.append(rhos[:-1])
        state, t0 = rhos[-1], t0 + seg.us
    rhos = np.concatenate(states)
    return np.column_stack([np.concatenate(times), _bloch(rhos, "electron"), _bloch(rhos, "carbon")])
