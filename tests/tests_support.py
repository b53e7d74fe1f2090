"""The one home of the oracles and helpers the tests check the package against.

The package computes on the 4-level working manifold.  The lab-frame
Hamiltonians here (18-level and 6-level), the register constants they need,
the scipy-expm propagators, the step-by-step FID, the trace-based Bloch
components and the spectral line width are independent of the package's own
numpy code, so they cannot drift with it.
"""

import math

import numpy as np
from scipy.linalg import block_diag, expm

import nvctrl as nc
from nvctrl.propagation import Delay, Pulse, drive_operator
from nvctrl.spin_model import (
    E2,
    E3,
    SX2,
    SZ2,
    TWO_PI,
    build_hamiltonian_subspace_plus,
    nuclear_block_hamiltonians,
)

# Constants of the register that only the lab-frame Hamiltonians below need
# (MHz, mT); the gyromagnetic ratios are CODATA values.
D_SPLITTING_MHZ = 2870.0
GAMMA_E_MHZ_PER_MT = 28.0249
GAMMA_N14_MHZ_PER_MT = 0.0030766
A_N14_MHZ = -2.16
P_N14_MHZ = -4.95

# Spin-1 z operator in the basis m = +1, 0, -1
SZ1 = np.diag([1.0, 0.0, -1.0]).astype(complex)

# Pauli matrices x, y, z
PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.diag([1.0, -1.0]).astype(complex),
)


def build_hamiltonian_full(params):
    """Static Hamiltonian of the full electron (S=1) x 14N (I=1) x 13C (I=1/2)
    system, 18-dimensional, H/2pi in MHz.

    Terms: D S_z^2 - nu_e S_z + P (I_z^N)^2 - nu_N I_z^N - nu_C I_z
    + A_N S_z I_z^N + A_zz S_z I_z + A_zx S_z I_x, with nu_e = gamma_e B and
    nu_N = gamma_N B.
    """
    sz_e = np.kron(np.kron(SZ1, E3), E2)
    sz2_e = sz_e @ sz_e
    izn = np.kron(np.kron(E3, SZ1), E2)
    izn2 = izn @ izn
    iz_c = np.kron(np.kron(E3, E3), SZ2)
    ix_c = np.kron(np.kron(E3, E3), SX2)
    h = (
        D_SPLITTING_MHZ * sz2_e
        - GAMMA_E_MHZ_PER_MT * params.b_mt * sz_e
        + P_N14_MHZ * izn2
        - GAMMA_N14_MHZ_PER_MT * params.b_mt * izn
        - params.nu_c * iz_c
        + A_N14_MHZ * sz_e @ izn
        + params.a_zz * sz_e @ iz_c
        + params.a_zx * sz_e @ ix_c
    )
    return nc.Hamiltonian(h)


def build_hamiltonian_ec(params):
    """Electron-13C Hamiltonian at fixed m_N = +1, 6-dimensional.

    H/2pi = D S_z^2 - (nu_e - A_N) S_z - nu_C I_z + A_zz S_z I_z + A_zx S_z I_x
    over (m_S = +1, 0, -1) x (up, down).
    """
    sz_e = np.kron(SZ1, E2)
    iz_c = np.kron(E3, SZ2)
    ix_c = np.kron(E3, SX2)
    h = (
        D_SPLITTING_MHZ * sz_e @ sz_e
        - (GAMMA_E_MHZ_PER_MT * params.b_mt - A_N14_MHZ) * sz_e
        - params.nu_c * iz_c
        + params.a_zz * sz_e @ iz_c
        + params.a_zx * sz_e @ ix_c
    )
    return nc.Hamiltonian(h)


def oracle_bloch(rho, subsystem):
    """Bloch components (x, y, z) of the electron pseudo-spin or the 13C spin
    of a 4-dim DensityState: Tr(rho sigma x 1) or Tr(rho 1 x sigma) for the
    three Pauli matrices.  The electron z-component is P(|0>) - P(|-1>)."""
    lift = {"electron": lambda s: np.kron(s, E2), "carbon": lambda s: np.kron(E2, s)}[subsystem]
    return np.array([np.trace(rho.matrix @ lift(s)).real for s in PAULI])


def fwhm(spectrum, freq):
    """Full width at half maximum of the peak nearest `freq`, by interpolation."""
    f, a = spectrum.freq_mhz, spectrum.amplitude
    i = int(np.argmin(np.abs(f - freq)))
    # climb to the local top in case freq sits on a shoulder
    while 0 < i < f.size - 1 and (a[i + 1] > a[i] or a[i - 1] > a[i]):
        i += 1 if a[i + 1] > a[i] else -1
    half = a[i] / 2.0
    lo = i
    while lo > 0 and a[lo] > half:
        lo -= 1
    hi = i
    while hi < a.size - 1 and a[hi] > half:
        hi += 1
    def cross(j, k):
        if a[j] == a[k]:
            return f[j]
        return f[j] + (half - a[j]) * (f[k] - f[j]) / (a[k] - a[j])
    return float(cross(hi - 1, hi) - cross(lo + 1, lo)) if hi > lo else 0.0


def random_hamiltonian(rng, scale=0.5):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return nc.Hamiltonian(scale * (a + a.conj().T) / 2.0)


def random_sequence(rng, n_segments=4, rabi=0.5, max_us=2.0):
    segments = []
    for _ in range(n_segments):
        us = float(rng.uniform(0.0, max_us))
        if rng.random() < 0.5:
            segments.append(Delay(us))
        else:
            segments.append(Pulse(us, float(rng.uniform(0.0, TWO_PI))))
    return nc.PulseSequence(rabi, tuple(segments))


def trotter_sequence(h, seq, dt=1e-3):
    """Independent fine-step product oracle (scipy expm per step)."""
    u = np.eye(h.dim, dtype=complex)
    for seg in seq.segments:
        gen = h.matrix.copy()
        if isinstance(seg, Pulse):
            gen = gen + drive_operator(seq.rabi_mhz, seg.phase_rad)
        n = max(int(math.ceil(seg.us / dt)), 1)
        step = expm(-1j * TWO_PI * gen * (seg.us / n))
        for _ in range(n):
            u = step @ u
    return u


def expm_sequence(h, seq):
    """Sequence propagator from one scipy expm per segment."""
    u = np.eye(h.dim, dtype=complex)
    for seg in seq.segments:
        gen = h.matrix + (drive_operator(seq.rabi_mhz, seg.phase_rad) if isinstance(seg, Pulse) else 0.0)
        u = expm(-1j * TWO_PI * gen * seg.us) @ u
    return u


# swap of the electron levels m_S = +1 and 0 in the 6-level basis (+1, 0, -1) x 13C
SWAP_6 = np.kron([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], np.eye(2))


def oracle_fid(params, protocol, tau, prep, read, polarization=0.0):
    """FID signals rebuilt step by step, one delay at a time, with scipy expm.

    `protocol` is "uc", "uc_prime" or a u90 subspace (0, -1, +1); `prep` and
    `read` are the two sequences of that protocol.  Sequences act on the 4-dim
    manifolds; the wait is expm of the block-diagonal 6-level Hamiltonian.
    """
    lower = block_diag(np.eye(2), expm_sequence(nc.build_hamiltonian_subspace(params), prep))
    h_wait = block_diag(*nuclear_block_hamiltonians(params))
    rho = np.diag([0.0, 0.0, (1.0 + polarization) / 2.0, (1.0 - polarization) / 2.0, 0.0, 0.0])
    if protocol in ("uc", "uc_prime"):
        swap = SWAP_6 if protocol == "uc_prime" else np.eye(6)
        before = swap @ lower
        after = block_diag(np.eye(2), expm_sequence(nc.build_hamiltonian_subspace(params), read)) @ swap
        weight = 0.5
    else:
        # the {|0>, |+1>} readout gate, moved into the 6-level order by the swap
        upper = SWAP_6 @ block_diag(
            expm_sequence(build_hamiltonian_subspace_plus(params), read), np.eye(2)
        ) @ SWAP_6
        before = {0: lower, -1: lower, +1: SWAP_6 @ lower}[protocol]
        after = upper @ {0: np.eye(6), -1: lower, +1: SWAP_6}[protocol]
        weight = 1.0
    signal = []
    for t in tau:
        u = after @ expm(-1j * TWO_PI * h_wait * t) @ before
        final = u @ rho @ u.conj().T
        signal.append(weight * (final[2, 2] + final[3, 3]).real)
    return np.array(signal)
