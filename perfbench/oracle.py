"""Independent reference computations for checking benchmark outputs.

Propagators here are products of one `scipy.linalg.expm` per piecewise-constant
segment, never the package's eigendecomposition, and sequences are read from
their JSON files rather than through `nvctrl.propagation`.  Only the static
Hamiltonian matrices come from `nvctrl.spin_model`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

TWO_PI = 2.0 * math.pi
TOL = 1e-9

_SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
_SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
_SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
# electron pseudo-spin on {|0>, |-1>} (first tensor factor) times the 13C spin
_E_SX = np.kron(_SX, _I2)
_E_SY = np.kron(_SY, _I2)

RHO0 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
RHO_P = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)
U90 = np.kron(_I2, expm(-1j * (math.pi / 2.0) * _SX))

# 6-level order (+1,up), (+1,down), (0,up), (0,down), (-1,up), (-1,down)
_SWAP_01 = np.eye(6, dtype=complex)[[2, 3, 0, 1, 4, 5]]
_UPPER_TO_6 = [2, 3, 0, 1]  # |0,up>, |0,down>, |+1,up>, |+1,down> -> 6-level index


def segment_unitary(h: np.ndarray, rabi: float, seg: dict) -> np.ndarray:
    gen = h
    if seg["kind"] == "pulse":
        phi = seg["phase_rad"]
        gen = h + rabi * (math.cos(phi) * _E_SX + math.sin(phi) * _E_SY)
    return expm(-1j * TWO_PI * gen * seg["us"])


def sequence_unitary(h: np.ndarray, seq: dict, rabi: float | None = None) -> np.ndarray:
    """Time-ordered product of segment exponentials; `rabi` overrides the
    sequence's drive amplitude (the robustness sweep)."""
    rabi = seq["rabi_mhz"] if rabi is None else rabi
    u = np.eye(h.shape[0], dtype=complex)
    for seg in seq["segments"]:
        u = segment_unitary(h, rabi, seg) @ u
    return u


def target_fidelity(target: str, u: np.ndarray) -> float:
    if target == "u_90":
        return float(abs(np.trace(U90.conj().T @ u)) / 4.0)
    if target == "u_p":
        rho = u @ RHO0 @ u.conj().T
        overlap = np.trace(RHO_P @ rho).real
        return float(overlap / math.sqrt(np.trace(RHO_P @ RHO_P).real * np.trace(rho @ rho).real))
    raise ValueError(f"no oracle for target {target!r}")


def robust_fidelity(target: str, h: np.ndarray, seq: dict, lo: float, hi: float, n: int) -> float:
    omegas = np.linspace(lo, hi, n) if n > 1 else [(lo + hi) / 2.0]
    return sum(target_fidelity(target, sequence_unitary(h, seq, float(w))) for w in omegas) / n


def _embed_lower(u4: np.ndarray) -> np.ndarray:
    u6 = np.eye(6, dtype=complex)
    u6[2:6, 2:6] = u4
    return u6


def _embed_upper(u4: np.ndarray) -> np.ndarray:
    u6 = np.eye(6, dtype=complex)
    u6[np.ix_(_UPPER_TO_6, _UPPER_TO_6)] = u4
    return u6


class FidOracle:
    """Readout signals of the FID protocols at single delays, for protocols
    whose preparation and readout are given as sequences."""

    def __init__(self, h_lower, h_upper, blocks):
        self.h_lower = h_lower
        self.h_upper = h_upper
        h6 = np.zeros((6, 6), dtype=complex)
        for k, block in enumerate(blocks):  # (h_plus, h_zero, h_minus)
            h6[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
        self.h6 = h6

    def signal(self, protocol: str, seqs: dict, tau: float) -> float:
        if protocol in ("uc", "uc_prime"):
            u_prep = sequence_unitary(self.h_lower, seqs["sequence"])
            u_read = sequence_unitary(self.h_lower, seqs["sequence_dagger"])
            rho = u_prep @ RHO0 @ u_prep.conj().T
            if protocol == "uc":
                free = expm(-1j * TWO_PI * self.h_lower * tau)
                rho = free @ rho @ free.conj().T
            else:
                rho6 = np.zeros((6, 6), dtype=complex)
                rho6[2:6, 2:6] = rho
                free = _SWAP_01 @ expm(-1j * TWO_PI * self.h6 * tau) @ _SWAP_01
                rho = (free @ rho6 @ free.conj().T)[2:6, 2:6]
            rho = u_read @ rho @ u_read.conj().T
            return float((rho[0, 0] + rho[1, 1]).real / 2.0)
        u_x = _embed_lower(sequence_unitary(self.h_lower, seqs["sequence"]))
        if protocol == "u90_ms0":
            pre, post = u_x, np.eye(6)
        elif protocol == "u90_ms-1":
            pre, post = u_x, u_x
        elif protocol == "u90_ms+1":
            pre, post = _SWAP_01 @ u_x, _SWAP_01
        else:
            raise ValueError(f"no oracle for protocol {protocol!r}")
        read = _embed_upper(sequence_unitary(self.h_upper, seqs["sequence_readout"]))
        rho6 = np.zeros((6, 6), dtype=complex)
        rho6[2, 2] = 1.0
        u = read @ post @ expm(-1j * TWO_PI * self.h6 * tau) @ pre
        rho6 = u @ rho6 @ u.conj().T
        return float((rho6[2, 2] + rho6[3, 3]).real)


def analytic_signal(nu_pair, tau: np.ndarray) -> np.ndarray:
    """Closed-form indirect FID: mean 1/4 plus two cosines."""
    a, b = nu_pair
    return 0.25 + (np.cos(TWO_PI * a * tau) + np.cos(TWO_PI * b * tau)) / 8.0


def _bloch(m2: np.ndarray) -> tuple[float, float, float]:
    """Expectations of the Pauli matrices for a 2x2 reduced density matrix."""
    return (
        float(np.trace(m2 @ (2 * _SX)).real),
        float(np.trace(m2 @ (2 * _SY)).real),
        float(np.trace(m2 @ (2 * _SZ)).real),
    )


def bloch_rows(seq: dict, dt: float):
    """Sample times of a trajectory, each as (time, segment index, offset):
    the start, every dt inside a segment, and every segment end."""
    rows = [(0.0, -1, 0.0)]
    t0 = 0.0
    for k, seg in enumerate(seq["segments"]):
        n = int(math.floor(seg["us"] / dt + 1e-12))
        rel = [dt * j for j in range(1, n + 1)]
        if not rel or rel[-1] < seg["us"]:
            rel.append(seg["us"])
        rows.extend((t0 + r, k, r) for r in rel)
        t0 += seg["us"]
    return rows


def bloch_at(h: np.ndarray, seq: dict, segment: int, offset: float) -> tuple:
    """(electron xyz, carbon xyz) from rho0 evolved through the first
    `segment` segments plus `offset` microseconds of the next one."""
    rabi = seq["rabi_mhz"]
    u = np.eye(4, dtype=complex)
    for seg in seq["segments"][:segment]:
        u = segment_unitary(h, rabi, seg) @ u
    if segment >= 0:
        u = segment_unitary(h, rabi, dict(seq["segments"][segment], us=offset)) @ u
    rho = u @ RHO0 @ u.conj().T
    r = rho.reshape(2, 2, 2, 2)  # (electron, carbon, electron', carbon')
    electron = np.einsum("icjc->ij", r)
    carbon = np.einsum("eiej->ij", r)
    return _bloch(electron) + _bloch(carbon)


def polarization_protocol(h: np.ndarray, seq: dict) -> tuple[float, float]:
    """(carbon polarization after an ideal electron reset, |0,up> peak ratio)."""
    u = sequence_unitary(h, seq)
    rho = u @ RHO0 @ u.conj().T
    carbon = rho[0:2, 0:2] + rho[2:4, 2:4]
    return float((carbon[0, 0] - carbon[1, 1]).real), float(rho[0, 0].real / 0.5)


def spectrum(signal: np.ndarray, dt: float, window: str, zerofill: int):
    """Mean-subtracted, windowed, zero-filled magnitude spectrum."""
    y = signal - signal.mean()
    w = np.hanning(y.size) if window == "hann" else np.ones(y.size)
    n_fft = y.size * zerofill
    return np.fft.rfftfreq(n_fft, d=dt), np.abs(np.fft.rfft(y * w, n=n_fft))


def sinusoid_fit(tau: np.ndarray, y: np.ndarray, nu: float) -> tuple[float, float, float]:
    """Least-squares a + b sin(2 pi nu tau + c) with b >= 0."""
    phase = TWO_PI * nu * tau
    design = np.column_stack([np.ones_like(tau), np.sin(phase), np.cos(phase)])
    (a, u, v), *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(a), math.hypot(u, v), math.atan2(v, u)


def amplitude_ratio_fidelities(b0, b1, bm1, f) -> tuple[float, float, float]:
    f_180 = math.sqrt(b1 / b0)
    return f_180, math.sqrt(b1 / bm1), math.sqrt(f) / f_180
