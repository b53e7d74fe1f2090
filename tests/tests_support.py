"""Shared helpers for randomized propagation checks."""

import math

import numpy as np
from scipy.linalg import block_diag, expm

import nvctrl as nc
from nvctrl.propagation import Delay, Pulse, drive_operator
from nvctrl.spin_model import (
    TWO_PI,
    build_hamiltonian_subspace_plus,
    nuclear_block_hamiltonians,
)


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
