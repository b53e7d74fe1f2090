"""Spin model of the NV electron / 14N / 13C register.

Conventions used throughout the package:

* Every Hamiltonian is stored divided by 2*pi, in MHz.  Propagators apply the
  2*pi exactly once (see :mod:`nvctrl.propagation`), so MHz times microseconds
  gives cycles.
* The working 4-dimensional computational basis is fixed to
  ``|0,up>, |0,down>, |-1,up>, |-1,down>`` where the first label is the
  electron spin projection m_S and the arrow is the 13C state.
* Larmor frequencies are entered as positive magnitudes; the structural minus
  signs of the Zeeman terms are applied inside the builders.
* The quantization-axis angles use the two-argument arctangent so the quadrant
  is well defined when the denominator changes sign; they are reported in
  degrees in (-180, 180].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .signals import Spectrum

# 13C gyromagnetic ratio (MHz/mT, CODATA): the one constant of the register
# besides SystemParams that reaches the working manifold, through nu_c
GAMMA_C13_MHZ_PER_MT = 0.0107084

TWO_PI = 2.0 * math.pi

# Spin-1/2 operators (units of hbar = 1)
SX2 = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
SY2 = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
SZ2 = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
E2 = np.eye(2, dtype=complex)
E3 = np.eye(3, dtype=complex)

# Electron pseudo-spin-1/2 operators on the {|0>, |-1>} manifold, extended to
# the 4-dimensional working space (electron index times 13C index).
PSEUDO_SX = np.kron(SX2, E2)
PSEUDO_SY = np.kron(SY2, E2)
PSEUDO_SZ = np.kron(SZ2, E2)
CARBON_IX = np.kron(E2, SX2)
CARBON_IZ = np.kron(E2, SZ2)


@dataclass(frozen=True)
class SystemParams:
    """Static field and 13C hyperfine couplings of one NV / 14N / 13C system.

    Defaults describe the register used for all built-in examples: a weakly
    coupled 13C (|A| < 0.2 MHz) in a 14.8 mT field.  Frequencies in MHz,
    field in mT.
    """

    b_mt: float = 14.8
    a_zz: float = -0.152
    a_zx: float = 0.110
    nu_c_override: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.b_mt < 0:
            raise ValueError("static field must be non-negative")

    @property
    def nu_c(self) -> float:
        """13C Larmor frequency (MHz)."""
        return GAMMA_C13_MHZ_PER_MT * self.b_mt if self.nu_c_override is None else self.nu_c_override


def _hermitian_error(m: np.ndarray) -> float:
    """|m - m^dag| / max(|m|, 1) in the Frobenius norm, computed on m divided
    by its largest real or imaginary part, so that no finite m overflows."""
    scale = max(np.abs(m.real).max(initial=1.0), np.abs(m.imag).max(initial=1.0))
    a = m / scale
    return np.linalg.norm(a - a.conj().T) / max(np.linalg.norm(a), 1.0 / scale)


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Square Hermitian operator, stored as H/2pi in MHz."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix shape {m.shape} is not square")
        if not np.isfinite(m).all():
            raise ValueError("matrix has a non-finite entry")
        if not _hermitian_error(m) <= 1e-12:
            raise ValueError("matrix is not Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def nuclear_frequencies(params: SystemParams) -> tuple[float, float, float]:
    """Nuclear transition frequencies (nu_C, nu_minus, nu_plus) in MHz.

    nu_C applies when the electron is in m_S = 0 and
    nu_pm = sqrt(A_zx^2 + (nu_C -/+ A_zz)^2) when it is in m_S = +/-1.
    """
    nu_c = params.nu_c
    nu_minus = math.hypot(params.a_zx, nu_c + params.a_zz)
    nu_plus = math.hypot(params.a_zx, nu_c - params.a_zz)
    return nu_c, nu_minus, nu_plus


def _axis_angle_deg(a_zx: float, denom: float) -> float:
    if a_zx == 0.0 and denom == 0.0:
        raise ValueError("quantization axis undefined: A_zx = 0 and A_zz = -/+ nu_C")
    deg = math.degrees(math.atan2(a_zx, denom))
    if deg <= -180.0:
        deg += 360.0
    return deg


def quantization_angles(params: SystemParams) -> tuple[float, float]:
    """Tilt angles (theta_plus, theta_minus) of the nuclear axis, in degrees.

    theta_pm = atan2(A_zx, A_zz -/+ nu_C), reported in (-180, 180].
    """
    nu_c = params.nu_c
    theta_plus = _axis_angle_deg(params.a_zx, params.a_zz - nu_c)
    theta_minus = _axis_angle_deg(params.a_zx, params.a_zz + nu_c)
    return theta_plus, theta_minus


def build_hamiltonian_subspace(params: SystemParams) -> Hamiltonian:
    """Working 4-dimensional Hamiltonian on the {|0>, |-1>} manifold, in the
    rotating frame of the resonant m_S = 0 <-> -1 carrier.

    H_s/2pi = (-nu_C - A_zz/2) I_z + A_zz s_z I_z + A_zx s_z I_x - (A_zx/2) I_x
    with s_z the electron pseudo-spin-1/2 operator.
    """
    nu_c = params.nu_c
    h = (
        (-nu_c - params.a_zz / 2.0) * CARBON_IZ
        + params.a_zz * PSEUDO_SZ @ CARBON_IZ
        + params.a_zx * PSEUDO_SZ @ CARBON_IX
        - (params.a_zx / 2.0) * CARBON_IX
    )
    return Hamiltonian(h)


def build_hamiltonian_subspace_plus(params: SystemParams) -> Hamiltonian:
    """Rotating-frame Hamiltonian of the {|0>, |+1>} manifold, 4-dimensional.

    Basis |0,up>, |0,down>, |+1,up>, |+1,down>; used to model pulses resonant
    with the m_S = 0 <-> +1 transition (e.g. the two-pulse readout gate).
    """
    nu_c = params.nu_c
    h = (
        (-nu_c + params.a_zz / 2.0) * CARBON_IZ
        - params.a_zz * PSEUDO_SZ @ CARBON_IZ
        - params.a_zx * PSEUDO_SZ @ CARBON_IX
        + (params.a_zx / 2.0) * CARBON_IX
    )
    return Hamiltonian(h)


def nuclear_block_hamiltonians(params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-manifold 2x2 nuclear Hamiltonians (h_plus, h_zero, h_minus) in MHz.

    These are the restrictions of the electron-13C Hamiltonian to fixed
    m_S = +1, 0, -1, with the electron energy offsets dropped.
    """
    nu_c = params.nu_c
    h_plus = (params.a_zz - nu_c) * SZ2 + params.a_zx * SX2
    h_zero = -nu_c * SZ2
    h_minus = (-nu_c - params.a_zz) * SZ2 - params.a_zx * SX2
    return h_plus, h_zero, h_minus


def esr_lines(params: SystemParams, branch: int) -> list[tuple[float, float]]:
    """The four ESR lines of the m_S = 0 <-> branch transition at m_N = +1.

    Returns (offset from the branch center in MHz, transition probability)
    pairs; the probabilities sum to 2.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    theta_plus, theta_minus = quantization_angles(params)
    nu_c, nu_minus, nu_plus = nuclear_frequencies(params)
    nu_b = nu_plus if branch == +1 else nu_minus
    theta = math.radians(theta_plus if branch == +1 else theta_minus)
    s2 = math.sin(theta / 2.0) ** 2
    c2 = math.cos(theta / 2.0) ** 2
    return [
        ((nu_b + nu_c) / 2.0, s2),
        (-(nu_b - nu_c) / 2.0, c2),
        ((nu_b - nu_c) / 2.0, c2),
        (-(nu_b + nu_c) / 2.0, s2),
    ]


def esr_spectrum(lines, linewidth: float, grid) -> Spectrum:
    """Render stick lines as a sum of Lorentzians (linewidth = FWHM, MHz);
    peak heights are proportional to the line probabilities."""
    if linewidth <= 0:
        raise ValueError("linewidth must be positive")
    f = np.asarray(grid, dtype=float)
    if f.ndim != 1 or f.size == 0 or np.any(np.diff(f) <= 0):
        raise ValueError("grid must be non-empty and strictly increasing")
    hwhm = linewidth / 2.0
    # the Lorentzian squares the detunings and the half width; beyond float
    # range its wings would silently read as zeros
    reach = max(abs(float(f[0])), abs(float(f[-1]))) + max((abs(c) for c, _ in lines), default=0.0)
    if not math.isfinite(reach * reach + hwhm * hwhm):
        raise OverflowError(f"Lorentzian of width {linewidth!r} MHz overflows on a grid reaching {reach!r} MHz")
    amp = np.zeros_like(f)
    for center, prob in lines:
        amp += prob * hwhm**2 / ((f - center) ** 2 + hwhm**2)
    return Spectrum(f, amp, {"kind": "esr", "linewidth_mhz": float(linewidth)})
