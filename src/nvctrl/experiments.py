"""Measurement protocol simulations: indirect FID, spectra, polarization.

The FID protocols prepare carbon coherence with a microwave sequence on the
m_S = 0 <-> -1 transition, let it precess, convert it back to an electron
population and read that population out.  Readout signals follow the
convention in which ideal preparation at tau = 0 yields 1/2 (half the m_S = 0
population), so simulated traces line up with the closed-form two-cosine
expressions without rescaling.

Every protocol runs through one core, `_fid`, in the 6-level electron
(+1, 0, -1) x 13C space at fixed m_N = +1.  Free evolution there is taken in
the interaction frame of the electron energies: manifold-diagonal dynamics
are exact, while phases of inter-manifold coherences (which time-average out
of every measured population) are dropped.  On the {0, -1} manifolds the
blocks equal the 4-level working Hamiltonian, so protocols confined there
are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NoConvergence
from .fidelity import ideal_uc_unitary, rho0_state, rot_half, u90_gate
from .propagation import PulseSequence, _evolve, _propagators, sequence_propagator
from .signals import FidTrace, Spectrum, check_grid_size, checked_grid
from .spin_model import (
    E2,
    E3,
    SX2,
    SY2,
    SystemParams,
    TWO_PI,
    build_hamiltonian_subspace,
    build_hamiltonian_subspace_plus,
    nuclear_block_hamiltonians,
    nuclear_frequencies,
)

DEFAULT_UC_RECORD_US = 200.0
DEFAULT_UC_PRIME_RECORD_US = 300.0
DEFAULT_STEP_US = 1.0

# delay samples the FID core evolves at once; each takes about 2 kB of
# propagators and states
_FID_CHUNK = 4096

# 6-level basis order: (+1,up), (+1,down), (0,up), (0,down), (-1,up), (-1,down)
# _SWAP_01: ideal 180-degree swap of the m_S = 0 and +1 populations
_SWAP_01 = np.eye(6, dtype=complex)[[2, 3, 0, 1, 4, 5]]


def default_tau_grid(record_us: float, step_us: float = DEFAULT_STEP_US) -> np.ndarray:
    # checked here: np.arange divides by the step, and holds ceil(record / step) samples
    if not step_us > 0:
        raise ValueError(f"tau step must be positive, got {step_us!r}")
    check_grid_size(record_us / step_us, "a record_us / dt_us delay grid")
    return np.arange(0.0, record_us, step_us)


def _phase(nu_mhz: float, tau: np.ndarray) -> np.ndarray:
    """2 pi nu tau, refused when not finite at the longest delay: Python
    floats overflow to inf without the RuntimeWarning numpy prints."""
    if not math.isfinite(TWO_PI * nu_mhz * float(np.max(np.abs(tau)))):
        raise ValueError(f"phase 2 pi nu tau is not finite at nu = {nu_mhz!r} MHz")
    return TWO_PI * nu_mhz * tau


def analytic_fid(kind: str, params: SystemParams, tau_grid) -> FidTrace:
    """Closed-form FID signals: mean 1/4 plus two cosines at the pair of
    transition frequencies probed by the protocol."""
    tau = checked_grid(tau_grid, "tau grid")
    nu_c, nu_m, nu_p = nuclear_frequencies(params)
    if kind == "uc":
        pair = (nu_c, nu_m)
    elif kind == "uc_prime":
        pair = (nu_m, nu_p)
    else:
        raise ValueError("kind must be 'uc' or 'uc_prime'")
    signal = 0.25 + (np.cos(_phase(pair[0], tau)) + np.cos(_phase(pair[1], tau))) / 8.0
    return FidTrace(tau, signal, "analytic")


def _free_propagators_6(params: SystemParams, times: np.ndarray) -> np.ndarray:
    """Blockwise free evolution of the 6-level space (interaction frame)."""
    h_plus, h_zero, h_minus = nuclear_block_hamiltonians(params)
    out = np.zeros((times.size, 6, 6), dtype=complex)
    out[:, 0:2, 0:2] = _propagators(h_plus, times)
    out[:, 2:4, 2:4] = _propagators(h_zero, times)
    out[:, 4:6, 4:6] = _propagators(h_minus, times)
    return out


def _embed_lower(u4: np.ndarray) -> np.ndarray:
    """4-dim operator on {|0>, |-1>} x C -> 6-dim (identity on m_S = +1)."""
    u6 = np.eye(6, dtype=complex)
    u6[2:6, 2:6] = u4
    return u6


def _embed_upper(u4: np.ndarray) -> np.ndarray:
    """4-dim operator on {|0>, |+1>} x C (basis |0,up>,|0,down>,|+1,up>,|+1,down>)
    -> 6-dim (identity on m_S = -1)."""
    u6 = np.eye(6, dtype=complex)
    u6[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])] = u4  # the 6-dim indices of that basis
    return u6


def _carbon_in_ms0(p: float) -> np.ndarray:
    """6-level state: electron in m_S = 0, carbon z-polarization p (p = 0 is rho0)."""
    return np.diag([0.0, 0.0, (1.0 + p) / 2.0, (1.0 - p) / 2.0, 0.0, 0.0]).astype(complex)


# readout observables: half the m_S = 0 population, the m_S = 0 population,
# and the population of |0,up>
_HALF_MS0 = np.diag([0.0, 0.0, 0.5, 0.5, 0.0, 0.0]).astype(complex)
_MS0 = 2.0 * _HALF_MS0
_MS0_UP = np.diag([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]).astype(complex)


def _fid(params, tau, rho6, pre, read, observable, protocol) -> FidTrace:
    """The one FID core: prepare pre rho6 pre^dag, precess freely for every
    delay in `tau`, and report Re Tr[(read^dag O read) rho(tau)].  Delays
    are evolved _FID_CHUNK at a time, which bounds the memory a long record
    takes and changes no bit of the signal."""
    tau = checked_grid(tau, "tau grid")
    rho, seen = pre @ rho6 @ pre.conj().T, read.conj().T @ observable @ read
    signal = np.concatenate([
        np.einsum("ij,tji->t", seen, _evolve(_free_propagators_6(params, tau[i : i + _FID_CHUNK]), rho)).real
        for i in range(0, tau.size, _FID_CHUNK)
    ])
    return FidTrace(tau, signal, protocol)


def _fid_coherence(params, seq_uc, seq_uc_dag, tau, swap, protocol) -> FidTrace:
    """Prepare carbon coherence from rho0 with seq_uc, precess between two
    `swap`s, convert back with seq_uc_dag and report half the m_S = 0
    population.  A missing sequence is the ideal coherence generator (or its
    inverse)."""
    h, ideal = build_hamiltonian_subspace(params), ideal_uc_unitary(params)
    prep = ideal if seq_uc is None else sequence_propagator(h, seq_uc)
    back = ideal.conj().T if seq_uc_dag is None else sequence_propagator(h, seq_uc_dag)
    pre, read = swap @ _embed_lower(prep), _embed_lower(back) @ swap
    return _fid(params, tau, _carbon_in_ms0(0.0), pre, read, _HALF_MS0, protocol)


def fid_uc(
    params: SystemParams,
    seq_uc: PulseSequence | None = None,
    seq_uc_dag: PulseSequence | None = None,
    tau_grid=None,
) -> FidTrace:
    """FID of carbon coherence in the m_S = {0, -1} manifolds.

    Pipeline per delay tau: prepare from rho0 with seq_uc (ideal coherence
    generator when None), precess freely, convert back with seq_uc_dag,
    report half the m_S = 0 population.  Spectral peaks sit at nu_C and
    nu_minus.
    """
    tau = tau_grid if tau_grid is not None else default_tau_grid(DEFAULT_UC_RECORD_US)
    return _fid_coherence(params, seq_uc, seq_uc_dag, tau, np.eye(6, dtype=complex), "uc_readout")


def fid_uc_prime(
    params: SystemParams,
    seq_uc: PulseSequence | None = None,
    seq_uc_dag: PulseSequence | None = None,
    tau_grid=None,
) -> FidTrace:
    """FID of carbon coherence in the m_S = {-1, +1} manifolds.

    The prepared coherence is sandwiched between ideal 180-degree swaps of
    the m_S = 0 and +1 populations, so the free precession probes nu_minus
    and nu_plus.
    """
    tau = tau_grid if tau_grid is not None else default_tau_grid(DEFAULT_UC_PRIME_RECORD_US)
    return _fid_coherence(params, seq_uc, seq_uc_dag, tau, _SWAP_01, "uc_prime_readout")


U90_TAGS = {0: "u90_ms0", -1: "u90_ms-1", +1: "u90_ms+1"}


def fid_u90(
    params: SystemParams,
    subspace: int,
    seq_u90: PulseSequence | None = None,
    seq_ut: PulseSequence | None = None,
    tau_grid=None,
    initial_polarization: float = 1.0,
) -> FidTrace:
    """Standard carbon FID starting from a z-polarized 13C spin.

    subspace 0: excite with seq_u90 (ideal pi/2 rotation when None), wait,
    read out.  subspace -1: seq_u90 is the 180-degree transfer pulse applied
    before and after the wait (ideal when None); the tilted m_S = -1 axis
    itself generates the coherence.  subspace +1: excite, ideal swaps to
    m_S = +1 around the wait.

    The readout is seq_ut applied on the {|0>, |+1>} manifold followed by the
    m_S = 0 population; when None an ideal inverse rotation plus carbon-state
    readout (population of |0,up>) is used.
    """
    if subspace not in U90_TAGS:
        raise ValueError("subspace must be 0, -1 or +1")
    if not -1.0 <= initial_polarization <= 1.0:
        raise ValueError("initial polarization must lie in [-1, 1]")
    tau = tau_grid if tau_grid is not None else default_tau_grid(DEFAULT_UC_RECORD_US)
    if seq_u90 is not None:
        gate = sequence_propagator(build_hamiltonian_subspace(params), seq_u90)
    elif subspace == -1:
        # instantaneous 180-degree y-rotation of the electron pseudo-spin
        gate = np.kron(rot_half(SY2, math.pi), E2)
    else:
        gate = u90_gate()
    pre = _embed_lower(gate)
    post = {0: np.eye(6, dtype=complex), -1: pre, +1: _SWAP_01}[subspace]
    if subspace == +1:
        pre = _SWAP_01 @ pre
    if seq_ut is None:
        read, observable = np.kron(E3, rot_half(SX2, math.pi / 2.0).conj().T), _MS0_UP
    else:
        u_t = sequence_propagator(build_hamiltonian_subspace_plus(params), seq_ut)
        read, observable = _embed_upper(u_t), _MS0
    return _fid(
        params, tau, _carbon_in_ms0(initial_polarization), pre, read @ post, observable,
        U90_TAGS[subspace],
    )


def spectrum_from_fid(
    fid: FidTrace,
    window: str = "hann",
    zerofill_factor: int = 4,
    exp_rate: float | None = None,
) -> Spectrum:
    """Magnitude spectrum of a FID on a uniform grid.

    The mean is subtracted first (the constant offsets of the readout
    protocols would otherwise bury the lowest line under the zero-frequency
    peak), then the window is applied, the record zero-filled and the
    discrete Fourier transform taken.  Frequency resolution is the inverse
    of the zero-filled record length.
    """
    tau = fid.tau_us
    if tau.size < 2:
        raise ValueError("need at least two samples")
    steps = np.diff(tau)
    dt = steps[0]
    if np.any(np.abs(steps - dt) > 1e-9 * dt):
        raise ValueError("tau grid must be uniformly spaced")
    if zerofill_factor < 1:
        raise ValueError("zerofill_factor must be at least 1")
    n_fft = int(tau.size * zerofill_factor)
    check_grid_size(n_fft // 2 + 1, f"zerofill_factor {zerofill_factor!r} on {tau.size} FID samples")
    if exp_rate is not None and window != "exponential":
        raise ValueError(f"exp_rate applies only to the exponential window, not to {window!r}")
    y = fid.signal - fid.signal.mean()
    n = y.size
    if window == "none":
        w = np.ones(n)
    elif window == "hann":
        w = np.hanning(n)
    elif window == "exponential":
        if exp_rate is None or exp_rate < 0:
            raise ValueError("exponential window needs a non-negative exp_rate (1/us)")
        # a rate times a delay beyond float range gives the right weight, 0
        with np.errstate(over="ignore"):
            w = np.exp(-exp_rate * (tau - tau[0]))
    else:
        raise ValueError("window must be 'none', 'hann' or 'exponential'")
    amp = np.abs(np.fft.rfft(y * w, n=n_fft))
    freq = np.fft.rfftfreq(n_fft, d=dt)
    meta = {
        "window": window,
        "zerofill_factor": int(zerofill_factor),
        "record_length_us": float(n * dt),
        "dt_us": float(dt),
        "n_samples": int(n),
        "protocol": fid.protocol,
    }
    if exp_rate is not None:
        meta["exp_rate_per_us"] = float(exp_rate)
    return Spectrum(freq, amp, meta)


@dataclass(frozen=True)
class PolarizationModel:
    """Three-term pumping model p(d) = c0 - c1 exp(-(alpha+beta) d)
    + c2 exp(-2 gamma d) for the nuclear polarization after a laser pulse of
    duration d (microseconds).  Only the sum alpha + beta is identifiable:
    it is `pump_rate_per_us`, and gamma is `gamma_per_us`."""

    c0: float
    c1: float
    c2: float
    pump_rate_per_us: float
    gamma_per_us: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        # keeps every term of the curve finite at every finite d >= 0
        for what, value in (
            ("2 gamma", 2.0 * self.gamma_per_us),
            ("|c0| + |c1| + |c2|", abs(self.c0) + abs(self.c1) + abs(self.c2)),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{what} must be finite, got {value!r}")
        if self.pump_rate_per_us < 0 or self.gamma_per_us < 0:
            raise ValueError("pumping rates must be non-negative")


def paper_polarization_model() -> PolarizationModel:
    """The fitted pumping model used as the default for the polarize command."""
    # the paper's alpha = 1.10 and beta = 0.41 per us; their sum is exactly the float 1.51
    return PolarizationModel(c0=0.31, c1=0.51, c2=0.50, pump_rate_per_us=1.51, gamma_per_us=0.022)


def polarization_curve(model: PolarizationModel, d_grid) -> np.ndarray:
    """p(d) on a grid of laser durations (microseconds)."""
    d = np.asarray(d_grid, dtype=float)
    rate, gamma = model.pump_rate_per_us, model.gamma_per_us
    # an exponent beyond float range overflows (a RuntimeWarning, not an error)
    d_end = float(np.max(np.abs(d), initial=0.0))
    for what, value in (("(alpha + beta) d", rate), ("2 gamma d", 2.0 * gamma)):
        if not math.isfinite(value * d_end):
            raise OverflowError(f"{what} overflows at d = {d_end!r} us")
    return model.c0 - model.c1 * np.exp(-rate * d) + model.c2 * np.exp(-2.0 * gamma * d)


def polarization_curve_max(
    model: PolarizationModel, d_lo: float = 0.0, d_hi: float = 50.0
) -> tuple[float, float]:
    """Maximizer and maximum of the polarization curve on [d_lo, d_hi].

    p'(d) = a c1 exp(-a d) - 2 gamma c2 exp(-2 gamma d), with a = alpha + beta,
    vanishes at most once, at d* = ln(2 gamma c2 / (a c1)) / (2 gamma - a), so
    the maximum lies at d* (when it is inside the range) or at an end.
    """
    rate, gamma = model.pump_rate_per_us, model.gamma_per_us
    rise, fall = rate * model.c1, 2.0 * gamma * model.c2
    candidates = [d_lo, d_hi]
    if rise != 0 and fall != 0 and (rise > 0) == (fall > 0) and rate != 2.0 * gamma:
        d_star = (math.log(abs(fall)) - math.log(abs(rise))) / (2.0 * gamma - rate)
        if d_lo < d_star < d_hi:
            candidates.append(d_star)
    p_star, d_best = max((float(polarization_curve(model, d)), float(d)) for d in candidates)
    return d_best, p_star


# the start grid has _GRID_SIDE geometric steps per rate, and the polish
# from its best point spends at most _POLISH_EVALS evaluations
_GRID_SIDE = 8
_POLISH_EVALS = 200
_RATES = np.geomspace(1e-2, 30.0, _GRID_SIDE)
_GAMMAS = np.geomspace(1e-4, 3.0, _GRID_SIDE)
# a grid point whose Gram matrix is worse conditioned than this is scored by
# lstsq: below it n eps cond stays under 0.03 up to a million samples, where
# the first-order error bound of the normal equations holds
_GRAM_COND = 1e8
# the polish's tolerances on the change of half the squared residual
# (relative to max(|f|, 1)) and on the projected gradient, the same as the
# search's polish in `optimizer`; its damping starts at _DAMPING times the
# largest diagonal entry of the Gauss-Newton matrix
_FTOL = 1e-13
_GTOL = 1e-10
_DAMPING = 1e-3


def _design(d, rate, gamma):
    """The pumping model's design [1, -exp(-rate d), exp(-2 gamma d)], whose
    product with (c0, c1, c2) is the curve."""
    return np.column_stack([np.ones_like(d), -np.exp(-rate * d), np.exp(-2.0 * gamma * d)])


def _grid_score(d, p, k: int) -> float:
    """The squared residual of grid point k's lstsq amplitudes."""
    design = _design(d, _RATES[k // _GRID_SIDE], _GAMMAS[k % _GRID_SIDE])
    resid = design @ np.linalg.lstsq(design, p, rcond=None)[0] - p
    return resid @ resid


def _batched_grid_norms(d, p):
    """Every grid point's residual norm from the normal equations, in one
    pass, with a first-order bound on how far it may lie from the norm
    `_grid_score` gives, and whether the point is well conditioned enough
    for either to hold (both are 0 where it is not); points are flat grid
    indices.

    The bound adds the worst-case errors of forming and solving the Gram
    matrix and of lstsq itself: 8 n eps (1 + 2 kappa) (|p| + |A|_F |c|),
    with kappa the design's condition number."""
    n = d.size
    fast = np.exp(-_RATES[:, None] * d)
    slow = np.exp(-2.0 * _GAMMAS[:, None] * d)
    # Gram matrices of the designs [1, -fast, slow], indexed (rate, gamma, ...)
    gram = np.empty((_GRID_SIDE, _GRID_SIDE, 3, 3))
    gram[..., 0, 0] = n
    gram[..., 0, 1] = gram[..., 1, 0] = -fast.sum(axis=1)[:, None]
    gram[..., 0, 2] = gram[..., 2, 0] = slow.sum(axis=1)
    gram[..., 1, 1] = np.einsum("ij,ij->i", fast, fast)[:, None]
    gram[..., 1, 2] = gram[..., 2, 1] = -(fast @ slow.T)
    gram[..., 2, 2] = np.einsum("ij,ij->i", slow, slow)
    lam, vec = np.linalg.eigh(gram)
    good = lam[..., 0] * _GRAM_COND > lam[..., 2]
    lam = np.where(good[..., None], lam, 1.0)
    # a huge p may overflow from here on; such a point is then not finite and
    # is scored by lstsq, which warns as it always did
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.empty((_GRID_SIDE, _GRID_SIDE, 3))
        rhs[..., 0] = p.sum()
        rhs[..., 1] = -(fast @ p)[:, None]
        rhs[..., 2] = slow @ p
        coef = np.einsum("...ij,...j->...i", vec, np.einsum("...ji,...j->...i", vec, rhs) / lam)
        resid = coef[..., 0, None] - coef[..., 1, None] * fast[:, None] + coef[..., 2, None] * slow - p
        norm = np.sqrt(np.einsum("...i,...i", resid, resid))
        kappa = np.sqrt(lam[..., 2] / lam[..., 0])
        size = math.sqrt(p @ p) + np.sqrt(lam.sum(axis=-1) * np.einsum("...i,...i", coef, coef))
        bound = 8.0 * n * np.finfo(float).eps * (1.0 + 2.0 * kappa) * size
    good &= np.isfinite(norm) & np.isfinite(bound)
    norm[~good] = bound[~good] = 0.0
    return norm.ravel(), bound.ravel(), good.ravel()


def _grid_start(d, p) -> int:
    """The flat index of the grid point with the smallest `_grid_score`, as
    np.argmin over all of them picks it.

    Well-conditioned points are scored at once by `_batched_grid_norms`; the
    rest by lstsq.  When several points' bounds overlap the best one's,
    lstsq scores those again and picks, so the pick is lstsq's on any input;
    when a lstsq score is not finite, lstsq scores the whole grid."""
    norm, bound, good = _batched_grid_norms(d, p)
    exact = {int(k): _grid_score(d, p, k) for k in np.flatnonzero(~good)}
    lo, hi = norm - bound, norm + bound
    for k, score in exact.items():
        lo[k] = hi[k] = math.sqrt(score)
    if not np.isfinite(hi).all():
        return int(np.argmin([_grid_score(d, p, k) for k in range(_GRID_SIDE**2)]))
    near = np.flatnonzero(lo <= hi.min())
    if near.size == 1:
        return int(near[0])
    return int(near[np.argmin([exact[k] if k in exact else _grid_score(d, p, k) for k in near])])


def _fit_samples(data, names: tuple[str, str], least: int) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of at least `least` finite samples, checked before any
    of them reaches LAPACK."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < least:
        raise ValueError(f"need at least {least} ({names[0]}, {names[1]}) samples")
    for name, column in zip(names, arr.T):
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            i = bad[0]
            raise ValueError(f"the {name} column holds {float(column[i])!r} at sample {i}; samples must be finite")
    return arr[:, 0], arr[:, 1]


def _varpro(d, p, x, scale):
    """Half the squared residual f of the least-squares amplitudes at the
    rates x * scale, its gradient over x, the Gauss-Newton matrix of
    Kaufman's Jacobian, the amplitudes (c0, c1, c2) and the round-off of f.

    One SVD of the design gives the amplitudes, lstsq's minimum-norm
    solution with its default cutoff, and an orthonormal basis U of the
    design's columns.  With the amplitudes optimal, J^T r is the exact
    gradient, J being the derivative of the curve at fixed amplitudes;
    Kaufman's Jacobian is J less its projection U U^T J (Kaufman, BIT 15,
    49 (1975)).  The round-off is |r| |8 eps t|, t the sum of the magnitudes
    of the terms that make up each residual."""
    design = _design(d, *(x * scale))
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    keep = s > d.size * np.finfo(float).eps * s[0]
    u = u[:, keep]
    coef = vt[keep].T @ ((u.T @ p) / s[keep])
    resid = design @ coef - p
    jac = -d[:, None] * design[:, 1:] * (coef[1:] * np.array([1.0, 2.0]) * scale)
    kaufman = jac - u @ (u.T @ jac)
    terms = np.abs(design) @ np.abs(coef) + np.abs(p)
    roundoff = 8.0 * np.finfo(float).eps * math.sqrt(resid @ resid) * math.sqrt(terms @ terms)
    return 0.5 * (resid @ resid), jac.T @ resid, kaufman.T @ kaufman, coef, roundoff


def _polish(d, p, scale):
    """Projected Levenberg-Marquardt on `_varpro` from x = (1, 1), with the
    rates x * scale >= 0: the rates and amplitudes where it ends.

    Each step solves (H + mu max(diag H) I) dx = -g on the coordinates not
    held at 0 by a gradient pointing out of the box, and projects the trial
    onto x >= 0.  A trial that lowers f is taken and mu shrinks by the gain
    ratio; otherwise mu grows by a factor that doubles with each rejection
    in a row (Nielsen, IMM-REP-1999-05).  The polish converges when the
    projected gradient is at most _GTOL in each coordinate, a zero gradient
    included, or when a trial changes f, up or down, by at most _FTOL
    relative to max(|f|, 1) or by at most the two points' round-off.  It
    raises NoConvergence after _POLISH_EVALS evaluations, or when the
    damping leaves no step: a trial that is the current point or not
    finite."""
    x = np.ones(2)
    f, g, h, coef, roundoff = _varpro(d, p, x, scale)
    evals, mu, grow = 1, _DAMPING, 2.0
    while np.abs(np.maximum(x - g, 0.0) - x).max() > _GTOL:
        if evals >= _POLISH_EVALS:
            raise NoConvergence(f"polarization fit did not converge in {_POLISH_EVALS} evaluations")
        free = (x > 0) | (g <= 0)
        damping = mu * h.diagonal().max()
        step = np.zeros(2)
        # a singular or overflowing damped system leaves no step
        if damping < math.inf:
            try:
                step[free] = np.linalg.solve((h + damping * np.eye(2))[np.ix_(free, free)], -g[free])
            except np.linalg.LinAlgError:
                pass
        trial = np.maximum(x + step, 0.0)
        if not np.isfinite(trial).all() or np.array_equal(trial, x):
            raise NoConvergence("polarization fit did not converge: no damped step lowers the residual")
        f_trial, g_trial, h_trial, c_trial, r_trial = _varpro(d, p, trial, scale)
        evals += 1
        flat = abs(f - f_trial) <= max(_FTOL * max(abs(f), abs(f_trial), 1.0), roundoff + r_trial)
        if f_trial < f:
            step = trial - x
            predicted, decrease = -(g @ step + 0.5 * step @ h @ step), f - f_trial
            # the factor is 1/3 at every gain ratio of 1 or more
            gain = 0.0 if predicted <= 0 else 1.0 if decrease >= predicted else decrease / predicted
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            grow = 2.0
            x, f, g, h, coef, roundoff = trial, f_trial, g_trial, h_trial, c_trial, r_trial
        else:
            mu *= grow
            grow *= 2.0
        if flat:
            break
    return x * scale, coef


def fit_polarization(data) -> PolarizationModel:
    """Least-squares fit of the three-term pumping model to (d, p) samples.

    The model is linear in the amplitudes given the rates, so the fit
    minimizes half the squared residual of the least-squares amplitudes over
    the two rates alone (variable projection: Golub & Pereyra, SIAM J.
    Numer. Anal. 10, 413 (1973)).  A coarse (rate, gamma) grid, scored in
    one batched pass that falls back to lstsq (`_grid_start`), picks the
    start; `_polish` refines it by Levenberg-Marquardt on Kaufman's
    Gauss-Newton matrix, with non-negative rates in units of the start, and
    raises NoConvergence when it does not converge.  Only the sum
    alpha + beta is identifiable; it is the model's `pump_rate_per_us`.
    """
    d, p = _fit_samples(data, ("d", "p"), 6)
    if np.any(d < 0) or d.max() <= d.min():
        raise ValueError("laser durations must be non-negative and span a range")
    # the squared residual sums squares of about the samples' size
    peak = float(np.abs(p).max())
    if not math.isfinite(peak * peak * p.size):
        raise OverflowError(f"the squared residual overflows: |p| reaches {peak!r}")

    start = _grid_start(d, p)
    # the polish sees the rates in units of the best grid point, which evens
    # out their curvatures
    scale = np.array([_RATES[start // _GRID_SIDE], _GAMMAS[start % _GRID_SIDE]])
    (rate, gamma), (c0, c1, c2) = _polish(d, p, scale)
    # the two exponentials can trade roles with negated amplitudes; pin the
    # labeling so the c1 term carries the faster rate
    if rate < 2.0 * gamma:
        c1, c2 = -c2, -c1
        rate, gamma = 2.0 * gamma, rate / 2.0
    return PolarizationModel(float(c0), float(c1), float(c2), float(rate), float(gamma))


def fit_fid_amplitude(data, nu_mhz: float) -> tuple[float, float, float]:
    """Fit a + b sin(2 pi nu tau + c) with the frequency held fixed.

    Linear in (a, b cos c, b sin c); b is reported non-negative with c
    adjusted accordingly.
    """
    tau, y = _fit_samples(data, ("tau", "P"), 5)
    if nu_mhz <= 0:
        raise ValueError("frequency must be positive")
    phase = _phase(nu_mhz, tau)
    design = np.column_stack([np.ones_like(tau), np.sin(phase), np.cos(phase)])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        raise ValueError("design matrix is rank deficient; cannot separate amplitude and phase")
    a, u, v = coef
    b = math.hypot(u, v)
    c = math.atan2(v, u) if b > 1e-15 else 0.0
    return float(a), float(b), float(c)


@dataclass(frozen=True)
class FidelityEstimates:
    """Amplitude-ratio fidelity estimates; `unphysical` flags any value > 1."""

    f_180: float
    f_u90: float
    f_uc: float
    unphysical: bool


def estimate_experimental_fidelities(
    b0: float, b1: float, bm1: float, f: float
) -> FidelityEstimates:
    """Fidelities from fitted FID amplitudes (b0, b1, bm1) of the three
    subspace protocols and the spectrum scale factor f.

    F_180 = sqrt(b1/b0), F_U90 = sqrt(b1/bm1), F_Uc = sqrt(f)/F_180.
    """
    for name, value in (("b0", b0), ("b1", b1), ("bm1", bm1), ("f", f)):
        if value <= 0:
            raise ValueError(f"{name} must be positive")
    f_180 = math.sqrt(b1 / b0)
    f_u90 = math.sqrt(b1 / bm1)
    # a ratio beyond float range overflows to inf or underflows to 0
    f_uc = math.sqrt(f) / f_180 if f_180 > 0 else math.inf
    estimates = {"F_180": f_180, "F_U90": f_u90, "F_Uc": f_uc}
    for name, value in estimates.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: the amplitude ratios leave the float range")
    return FidelityEstimates(
        f_180=f_180,
        f_u90=f_u90,
        f_uc=f_uc,
        unphysical=any(v > 1.0 for v in estimates.values()),
    )


def ideal_reset(rho4: np.ndarray) -> np.ndarray:
    """Laser reset: electron projected to |0> with the carbon state kept."""
    carbon = rho4[0:2, 0:2] + rho4[2:4, 2:4]
    out = np.zeros_like(rho4)
    out[0:2, 0:2] = carbon
    return out


@dataclass(frozen=True)
class PolarizationOutcome:
    """Result of one polarizing-sequence simulation."""

    polarization: float
    peak_ratio: float


def polarization_protocol_sim(params: SystemParams, seq_up) -> PolarizationOutcome:
    """Apply the polarizing sequence to rho0, reset the electron, and report
    the carbon polarization p = P(0,up) - P(0,down).

    seq_up is a PulseSequence or a ready-made 4x4 unitary.  peak_ratio is the
    |0,up> population relative to its value in rho0 (the height ratio of the
    polarized to unpolarized reference line); it is evaluated before the
    reset.
    """
    if isinstance(seq_up, PulseSequence):
        h = build_hamiltonian_subspace(params)
        u = sequence_propagator(h, seq_up)
    else:
        u = np.asarray(seq_up, dtype=complex)
    rho = u @ rho0_state().matrix @ u.conj().T
    ratio = float(rho[0, 0].real / 0.5)
    after = ideal_reset(rho)
    p = float((after[0, 0] - after[1, 1]).real)
    return PolarizationOutcome(polarization=p, peak_ratio=ratio)
