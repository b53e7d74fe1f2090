"""Gate/state fidelity functionals, robustness averaging, and built-in targets.

The target library covers the operations used throughout: the coherence
generator u_c and its inverse, the polarizing swap u_p, the pseudo-Hadamard
u_90, and the two-pulse readout gate u_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .propagation import DensityState, Delay, Pulse, PulseSequence, sequence_propagator
from .spin_model import (
    E2,
    Hamiltonian,
    SX2,
    SY2,
    SystemParams,
    build_hamiltonian_subspace,
    quantization_angles,
)

TARGET_NAMES = ("u_c", "u_c_dagger", "u_p", "u_90", "u_t")


@dataclass(frozen=True, eq=False)
class Target:
    """Optimization target: either a 4-dim unitary or a state-transfer pair."""

    name: str
    kind: str  # "unitary" | "state"
    unitary: np.ndarray | None = None
    rho_initial: DensityState | None = None
    rho_target: DensityState | None = None

    def __post_init__(self):
        if self.kind == "unitary":
            u = np.asarray(self.unitary, dtype=complex)
            if u.shape != (4, 4):
                raise ValueError("target unitary must be 4x4")
            if not np.isfinite(u).all():
                raise ValueError("target unitary has a non-finite entry")
            if not np.linalg.norm(u @ u.conj().T - np.eye(4)) <= 1e-10:
                raise ValueError("target matrix is not unitary")
            object.__setattr__(self, "unitary", u)
        elif self.kind == "state":
            if self.rho_initial is None or self.rho_target is None:
                raise ValueError("state target needs rho_initial and rho_target")
        else:
            raise ValueError("kind must be 'unitary' or 'state'")


# drive-amplitude samples of one band (200 times the default 5): every
# genome the search evaluates is propagated once per sample, and the fitness
# kernel keeps one eigendecomposition per sample
MAX_DRIVE_SAMPLES = 1000


@dataclass(frozen=True)
class RobustnessRange:
    """Band of drive amplitudes (MHz) over which fidelity is averaged."""

    lo_mhz: float
    hi_mhz: float
    n_samples: int = 5

    def __post_init__(self):
        if not (math.isfinite(self.lo_mhz) and math.isfinite(self.hi_mhz)):
            raise ValueError("drive amplitude band must be finite")
        if self.lo_mhz < 0:
            raise ValueError("drive amplitude band must not be negative")
        if self.lo_mhz > self.hi_mhz:
            raise ValueError("lo_mhz must not exceed hi_mhz")
        if not 1 <= self.n_samples <= MAX_DRIVE_SAMPLES:
            raise ValueError(f"n_samples must be between 1 and {MAX_DRIVE_SAMPLES}")

    def samples(self) -> np.ndarray:
        if self.n_samples == 1:
            return np.array([(self.lo_mhz + self.hi_mhz) / 2.0])
        return np.linspace(self.lo_mhz, self.hi_mhz, self.n_samples)


def rot_half(sigma_half: np.ndarray, angle_rad: float) -> np.ndarray:
    """Spin-1/2 rotation exp(-i angle S) for S with eigenvalues +/-1/2."""
    return math.cos(angle_rad / 2.0) * E2 - 2j * math.sin(angle_rad / 2.0) * sigma_half


def rho0_state() -> DensityState:
    """Electron in |0>, 13C maximally mixed."""
    return DensityState(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))


def rho_p_state() -> DensityState:
    """Electron maximally mixed over {|0>, |-1>}, 13C in |up>."""
    return DensityState(np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex))


def s0_ket() -> np.ndarray:
    """(|up> + i |down>)/sqrt(2): carbon coherence in the m_S = 0 manifold."""
    return np.array([1.0, 1j], dtype=complex) / math.sqrt(2.0)


def _minus_eigenstates(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Nuclear eigenstates (phi_minus, psi_minus) of the m_S = -1 manifold: the
    columns of the rotation exp(-i theta_minus I_y) that tilts z onto its axis."""
    r = rot_half(SY2, math.radians(quantization_angles(params)[1]))
    return r[:, 0], r[:, 1]


def s_minus_ket(params: SystemParams) -> np.ndarray:
    """(|phi_minus> - |psi_minus>)/sqrt(2): carbon coherence in m_S = -1."""
    phi, psi = _minus_eigenstates(params)
    return (phi - psi) / math.sqrt(2.0)


def rho_c_state(params: SystemParams) -> DensityState:
    """Equal mixture of |0> x s_0 and |-1> x s_minus: maximal 13C coherence."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    pm = np.diag([0.0, 1.0]).astype(complex)
    s0 = s0_ket()
    sm = s_minus_ket(params)
    rho = 0.5 * (np.kron(p0, np.outer(s0, s0.conj())) + np.kron(pm, np.outer(sm, sm.conj())))
    return DensityState(rho)


def u90_gate() -> np.ndarray:
    """Pseudo-Hadamard: pi/2 rotation of the 13C spin about x, electron identity."""
    return np.kron(E2, rot_half(SX2, math.pi / 2.0))


def ideal_uc_unitary(params: SystemParams) -> np.ndarray:
    """A unitary that maps |0,up> -> |0> x s_0 and |0,down> -> |-1> x s_minus,
    completed orthonormally; it carries rho0 exactly onto rho_c."""
    s0 = s0_ket()
    s0p = np.array([1.0, -1j], dtype=complex) / math.sqrt(2.0)
    phi, psi = _minus_eigenstates(params)
    sm, smp = (phi - psi) / math.sqrt(2.0), (phi + psi) / math.sqrt(2.0)
    cols = [
        np.concatenate([s0, [0.0, 0.0]]),
        np.concatenate([[0.0, 0.0], sm]),
        np.concatenate([s0p, [0.0, 0.0]]),
        np.concatenate([[0.0, 0.0], smp]),
    ]
    return np.stack(cols, axis=1)


def u_t_sequence(params: SystemParams, rabi_mhz: float) -> PulseSequence:
    """Readout gate: two 90-degree pulses with a 90-degree phase shift,
    separated by a delay of 1/(2 |A_zz|)."""
    if params.a_zz == 0:
        raise ValueError("u_t requires a nonzero A_zz")
    if not 0 < rabi_mhz < math.inf:
        raise ValueError("Rabi frequency must be positive and finite")
    t90 = 1.0 / (4.0 * rabi_mhz)
    delay = 1.0 / (2.0 * abs(params.a_zz))
    return PulseSequence(
        rabi_mhz,
        (Pulse(t90, 0.0), Delay(delay), Pulse(t90, math.pi / 2.0)),
    )


def build_target(name: str, params: SystemParams, rabi_mhz: float = 0.5) -> Target:
    """Construct a named target; custom targets are built directly as Target."""
    if name == "u_c":
        return Target(name, "state", rho_initial=rho0_state(), rho_target=rho_c_state(params))
    if name == "u_c_dagger":
        return Target(name, "state", rho_initial=rho_c_state(params), rho_target=rho0_state())
    if name == "u_p":
        return Target(name, "state", rho_initial=rho0_state(), rho_target=rho_p_state())
    if name == "u_90":
        return Target(name, "unitary", unitary=u90_gate())
    if name == "u_t":
        h = build_hamiltonian_subspace(params)
        u = sequence_propagator(h, u_t_sequence(params, rabi_mhz))
        return Target(name, "unitary", unitary=u)
    raise ValueError(f"unknown target {name!r}; expected one of {TARGET_NAMES}")


def gate_fidelity(u: np.ndarray, u_target: np.ndarray) -> float:
    """|Tr(U_T^dag U)| / 4, invariant under a global phase of either argument."""
    u = np.asarray(u)
    u_target = np.asarray(u_target)
    if u.shape != (4, 4) or u_target.shape != (4, 4):
        raise ValueError("gate fidelity expects 4x4 unitaries")
    return float(abs(np.trace(u @ u_target.conj().T)) / 4.0)


def state_fidelity(rho: DensityState, rho_target: DensityState) -> float:
    """Normalized overlap Tr(rho_T rho) / sqrt(Tr(rho_T^2) Tr(rho^2)).

    Equals 1 exactly when the states are proportional as operators.
    """
    if rho.dim != rho_target.dim:
        raise ValueError("states must share a dimension")
    pa, pb = rho.purity(), rho_target.purity()
    if pa < 1e-12 or pb < 1e-12:
        raise ValueError("state purity too small for a normalized fidelity")
    overlap = np.trace(rho_target.matrix @ rho.matrix).real
    return float(overlap / math.sqrt(pa * pb))


def sequence_fidelity(seq: PulseSequence, target: Target, h: Hamiltonian) -> float:
    """Fidelity of one pulse sequence against a target at the sequence's
    nominal drive amplitude."""
    u = sequence_propagator(h, seq)
    if target.kind == "unitary":
        return gate_fidelity(u, target.unitary)
    rho = DensityState(u @ target.rho_initial.matrix @ u.conj().T)
    return state_fidelity(rho, target.rho_target)


def robust_fidelity(
    seq: PulseSequence,
    target: Target,
    rrange: RobustnessRange,
    h: Hamiltonian,
) -> float:
    """Arithmetic mean of the fidelity over equally spaced drive amplitudes.

    Pulse durations stay fixed while the amplitude is swept, which is the
    miscalibration model the averaging protects against.  The accumulation
    order is fixed so results are deterministic.
    """
    total = 0.0
    for omega in rrange.samples():
        total += sequence_fidelity(replace(seq, rabi_mhz=float(omega)), target, h)
    return total / rrange.n_samples
