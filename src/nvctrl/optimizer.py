"""Multistart search over pulse-sequence parameters.

The genome packs the free parameters of an n-pulse sequence as flat blocks
[tau_1..tau_n | t_1..t_n | phi_1..phi_n] (free flip angles) or
[tau_1..tau_n | phi_1..phi_n] (switched mode, every flip angle fixed at 180
degrees).  Each restart draws one uniform genome in the search box from its
own generator, and a projected L-BFGS on exact gradients polishes it.  The
restarts run in lockstep, with fitness evaluated for all of them at once, so
results are bitwise reproducible for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .fidelity import (
    RobustnessRange,
    Target,
    build_target,
    robust_fidelity,
    sequence_fidelity,
)
from .propagation import PulseSequence, _phases
from .spin_model import PSEUDO_SX, SystemParams, TWO_PI, build_hamiltonian_subspace

MODE_FREE = "free_angles"
MODE_SWITCHED = "switched_180"

DEFAULT_SEED = 20260809
# the search box: delays in [0, TAU_MAX_US], pulses in [0, t_max_us] (two
# Rabi periods), phases in [0, 2pi]
TAU_MAX_US = 10.0
# the starts one search draws and scores in one kernel call (about 195 times
# the default 512)
MAX_RESTARTS = 100_000
# genomes per kernel pass: a wider batch runs in slices of this size, so its
# work arrays stay small.  Against one pass per batch (BENCH_chunk.json, with
# the genetic algorithm the search used then): peak RSS 241 -> 164 MB at 10^5
# genomes per kernel call
_CHUNK = 784

_ZDIAG = np.array([0.5, 0.5, -0.5, -0.5])
# eigenvalues of rho_initial at or below this are round-off, not rank
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class ControlProblem:
    """One synthesis task: which target, how many pulses, which drive."""

    params: SystemParams
    target: Target
    n_pulses: int = 3
    rabi_mhz: float = 0.5
    mode: str = MODE_FREE
    robustness: RobustnessRange | None = None
    duration_penalty: float = 0.0

    def __post_init__(self):
        if self.n_pulses < 1:
            raise ValueError("need at least one pulse")
        if not 0 < self.rabi_mhz < math.inf:
            raise ValueError("Rabi frequency must be positive and finite")
        if not math.isfinite(self.t_max_us):
            raise ValueError("Rabi frequency too small: its pulse bound 2 / rabi_mhz overflows")
        if self.mode not in (MODE_FREE, MODE_SWITCHED):
            raise ValueError(f"mode must be {MODE_FREE!r} or {MODE_SWITCHED!r}")
        if abs(self.params.a_zx) + abs(self.params.a_zz) == 0:
            raise ValueError("indirect control requires a nonzero hyperfine coupling")
        if not 0 <= self.duration_penalty < math.inf:
            raise ValueError("duration penalty must be non-negative and finite")
        # the penalty term of the longest sequence in the search box, as
        # _FitnessKernel computes it
        longest = float(_durations(self, genome_bounds(self)[1])[0])
        if not math.isfinite(self.duration_penalty * longest / TAU_MAX_US):
            raise ValueError("duration penalty overflows on the longest sequence")

    @property
    def t_max_us(self) -> float:
        """Longest pulse in free-angle mode: two Rabi periods."""
        return 2.0 / self.rabi_mhz

    @property
    def switched_pulse_us(self) -> float:
        """Fixed 180-degree pulse duration in switched mode."""
        return 1.0 / (2.0 * self.rabi_mhz)


@dataclass(frozen=True)
class GaConfig:
    """Search budget and seed.  Each of the `restarts` draws one uniform
    genome from its own generator, and polish_evals (at least 1) is each
    restart's evaluation budget in a deterministic projected L-BFGS
    refinement of that start; one evaluation is the fitness and its exact
    gradient, the first one scores the start, and one kernel call evaluates
    every restart still polishing, in lockstep.  The defaults, 512 restarts
    and 300 polish evaluations, come from the hit-rate sweep
    BENCH_search_multistart.json (see the README).
    """

    # the genome count of a search, as perfbench/spans.py (their only reader) computes it
    population: ClassVar[int] = 1
    generations: ClassVar[int] = 0
    elite_count: ClassVar[int] = 0

    seed: int = DEFAULT_SEED
    restarts: int = 512
    polish_evals: int = 300

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.restarts > MAX_RESTARTS:
            raise ValueError(f"restarts must not exceed {MAX_RESTARTS}")
        if self.polish_evals < 1:
            raise ValueError("polish_evals must be at least 1")


@dataclass(frozen=True, eq=False)
class OptimResult:
    """Best sequence found, with audit fidelities recomputed from scratch."""

    best_sequence: PulseSequence
    fidelity: float
    robust_fidelity: float | None
    total_duration_us: float
    history: tuple
    seed: int
    best_fitness: float
    # the polish of every restart (see `_polish`); not serialized
    polish: Minimum

    def to_json_dict(self) -> dict:
        return {
            "sequence": self.best_sequence.to_json_dict(),
            "fidelity": self.fidelity,
            "robust_fidelity": self.robust_fidelity,
            "total_duration_us": self.total_duration_us,
            "best_fitness": self.best_fitness,
            "seed": self.seed,
            "history": [float(x) for x in self.history],
        }


def genome_bounds(problem: ControlProblem) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper box for the genome vector (phases use [0, 2pi])."""
    n = problem.n_pulses
    if problem.mode == MODE_FREE:
        hi = np.concatenate([np.full(n, TAU_MAX_US), np.full(n, problem.t_max_us), np.full(n, TWO_PI)])
    else:
        hi = np.concatenate([np.full(n, TAU_MAX_US), np.full(n, TWO_PI)])
    return np.zeros_like(hi), hi


def _split(problem: ControlProblem, genomes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delays, pulse durations and phases of a genome batch, each (B, n).

    Durations clamp to the bounds; in switched mode every pulse lasts the
    fixed 180-degree time.  Phases stay as given.
    """
    g = np.atleast_2d(np.asarray(genomes, dtype=float))
    n = problem.n_pulses
    taus = np.clip(g[:, :n], 0.0, TAU_MAX_US)
    if problem.mode == MODE_FREE:
        ts = np.clip(g[:, n : 2 * n], 0.0, problem.t_max_us)
        phis = g[:, 2 * n :]
    else:
        ts = np.full_like(taus, problem.switched_pulse_us)
        phis = g[:, n:]
    return taus, ts, phis


def _durations(problem: ControlProblem, genomes) -> np.ndarray:
    """Total duration (B,) of each genome of a batch, as `_split` reads it."""
    taus, ts, _ = _split(problem, genomes)
    return taus.sum(axis=1) + ts.sum(axis=1)


def decode(problem: ControlProblem, genome) -> PulseSequence:
    """Genome -> sequence; durations clamp to bounds, phases wrap mod 2pi."""
    g = np.asarray(genome, dtype=float)
    length = genome_bounds(problem)[0].size
    if g.shape != (length,):
        raise ValueError(f"expected genome of length {length}, got shape {g.shape}")
    taus, ts, phis = (a[0] for a in _split(problem, g))
    return PulseSequence.from_arrays(problem.rabi_mhz, taus, ts, np.mod(phis, TWO_PI))


def _weigh(w, h) -> np.ndarray:
    """sum_i w_i h[:, i] over the 4 levels of h (K, 4, B), one term after
    another: an einsum may reorder this sum for a batch of one genome."""
    return sum(w[i] * h[:, i] for i in range(4))


def _rotate(m, x) -> np.ndarray:
    """The real 4x4 matrix m applied to the complex (4, c, B) columns x, as
    one real contraction over their interleaved real and imaginary parts."""
    return np.einsum("ij,jcb->icb", m, x.view(float)).view(complex)


def _cis(a) -> np.ndarray:
    """exp(-i a) for real angles a, written as cos a - i sin a."""
    out = np.empty(a.shape, dtype=complex)
    np.cos(a, out=out.real)
    np.sin(a, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out


def _rank_factor(rho: np.ndarray) -> np.ndarray:
    """Columns A with A A^dag = rho, one per eigenvalue above round-off."""
    lam, w = np.linalg.eigh(rho)
    keep = lam > _RANK_TOL
    return w[:, keep] * np.sqrt(lam[keep])


class _FitnessKernel:
    """Vectorized sequence propagation and fidelity over a genome batch.

    The kernel works in the eigenbasis Vf of the free Hamiltonian.  That
    Hamiltonian conserves m_S, so Vf is block-local and commutes with the
    phase rotation Z(phi) = exp(-i phi s_z), and a pulse of phase phi is
    Z Vd D_d(t) Vd^dag Z^dag.  In the Vf basis a sequence is then
    prod_k Z_k M D_d(t_k) M^dag Z_k^dag D_f(tau_k), with the constant
    M = Vf^dag Vd of each drive sample and diagonal factors D(t) = exp(-i 2pi w t).
    No genome gets a 4x4 propagator of its own: the kernel carries only the
    columns its target needs, batch last as a (4, c, B) array, through two
    constant 4x4 contractions and two diagonal products per pulse.  Gates
    carry the 4 columns of the identity; states carry the c columns of
    Vf^dag A, where rho_initial = A A^dag.  M is real orthogonal, as the
    subspace Hamiltonian and the drive are real, and the kernel refuses an M
    with an imaginary part; it rotates the columns through their float view, the real
    and imaginary parts interleaved, which gives the bits of the complex
    contraction at a fraction of its cost.  Every contraction is an
    `np.einsum` without path optimization, which sums each genome in the
    same order at any batch position, so a genome's fitness does not depend
    on the batch it is evaluated in.
    """

    def __init__(self, problem: ControlProblem):
        self.problem = problem
        self.n = problem.n_pulses
        h = build_hamiltonian_subspace(problem.params).matrix
        blocks = [np.linalg.eigh(h[s, s]) for s in (slice(0, 2), slice(2, 4))]
        self._w_free = np.concatenate([w for w, _ in blocks])
        vf = np.zeros((4, 4), dtype=h.dtype)
        vf[:2, :2], vf[2:, 2:] = (v for _, v in blocks)
        vf_h = vf.conj().T
        if problem.robustness is not None:
            self.omegas = problem.robustness.samples()
        else:
            self.omegas = np.array([problem.rabi_mhz])
        self._drive = []
        for w in self.omegas:
            w_drive, vd = np.linalg.eigh(h + w * PSEUDO_SX)
            m = vf_h @ vd
            if m.imag.any():
                raise ValueError("the drive basis change Vf^dag Vd is not real")
            self._drive.append((w_drive, np.ascontiguousarray(m.real)))
        # the drive eigenvalues of every sample, one block of 4 each
        self._w_drive = np.concatenate([w for w, _ in self._drive])
        t = problem.target
        if t.kind == "unitary":
            self._columns = np.eye(4, dtype=complex)
            self._score_op = (vf_h @ t.unitary @ vf).conj()
            self._state_norm = None
        else:
            norm = math.sqrt(t.rho_initial.purity() * t.rho_target.purity())
            if norm < 1e-12:
                raise ValueError("target states have vanishing purity")
            self._columns = vf_h @ _rank_factor(t.rho_initial.matrix)
            self._score_op = vf_h @ t.rho_target.matrix @ vf
            self._state_norm = norm

    def _fidelities(self, diagonals, m, drive):
        """Fidelity of every genome at one drive sample, of basis change m
        and drive diagonals (n, 4, B), and the adjoint sums
        h = sum_c Lambda * X at each diagonal factor: X the columns just
        after the factor, Lambda the derivative of the fidelity with respect
        to them.  A factor exp(-i a) changes the fidelity by
        sum_i Im(h_i) da_i."""
        x = self._columns[:, :, None]
        # the columns just after each factor, kept for the backward pass
        states = []
        for k in range(self.n):
            x = diagonals[k][:, None, :] * x
            states.append(x)
            x = _rotate(m.T, x)
            x = drive[k][:, None, :] * x
            states.append(x)
            x = _rotate(m, x)
        x = diagonals[self.n][:, None, :] * x
        if self._state_norm is None:
            z = np.einsum("ij,ijb->b", self._score_op, x)
            fid = np.abs(z) / 4.0
            # d|z| = Re(conj(z) dz) / |z|; no direction ascends from z = 0
            phase = np.divide(z.conj(), 4.0 * np.abs(z), out=np.zeros_like(z), where=z != 0)
            lam = self._score_op[:, :, None] * phase
        else:
            fid = np.einsum("icb,ij,jcb->b", x.conj(), self._score_op, x).real / self._state_norm
            lam = np.einsum("icb,ij->jcb", x.conj(), self._score_op) * (2.0 / self._state_norm)
        # the backward pass: pull Lambda through each factor in reverse
        h_free = [np.einsum("icb,icb->ib", lam, x)]
        h_drive = []
        lam = diagonals[self.n][:, None, :] * lam
        for k in reversed(range(self.n)):
            lam = _rotate(m.T, lam)
            h_drive.append(np.einsum("icb,icb->ib", lam, states[2 * k + 1]))
            lam = drive[k][:, None, :] * lam
            lam = _rotate(m, lam)
            h_free.append(np.einsum("icb,icb->ib", lam, states[2 * k]))
            lam = diagonals[k][:, None, :] * lam
        return fid, np.array(h_free[::-1]).imag, np.array(h_drive[::-1]).imag

    def gradient(self, genomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fitness (B,) (mean fidelity minus optional duration penalty) and
        its exact gradient (B, L) for a batch of genomes, from one forward
        and one backward pass, at most `_CHUNK` genomes per pass.  A duration
        beyond its bound has zero derivative, as `_split` clips it there; at
        the bound it has the derivative from inside the box."""
        g = np.atleast_2d(np.asarray(genomes, dtype=float))
        parts = [self._chunk(g[i : i + _CHUNK]) for i in range(0, max(len(g), 1), _CHUNK)]
        return tuple(np.concatenate(a) for a in zip(*parts))

    def _chunk(self, genomes: np.ndarray):
        taus, ts, phis = _split(self.problem, genomes)
        # diagonal k merges Z_{k-1}, D_f(tau_k) and Z_k^dag (phi_0 = 0); the
        # last one, with no delay and phi_{n+1} = 0, is the final Z_n
        zero = np.zeros((taus.shape[0], 1))
        turns = np.diff(np.hstack([zero, phis, zero]), axis=1)
        angles = _phases(self._w_free, np.hstack([taus, zero])).reshape(-1, self.n + 1, 4)
        diagonals = _cis(angles - turns[:, :, None] * _ZDIAG).transpose(1, 2, 0)
        # the drive diagonals of every pulse and drive sample
        drives = _cis(_phases(self._w_drive, ts.reshape(-1))).reshape(-1, self.n, len(self._drive), 4)
        acc = np.zeros(taus.shape[0])
        # the adjoint sums of the free diagonals, shared by the drive samples,
        # and the pulse-duration derivatives, summed over them
        h_free, d_ts = 0.0, 0.0
        for s, (w_drive, m) in enumerate(self._drive):
            fid, h_f, h_d = self._fidelities(diagonals, m, drives[:, :, s].transpose(1, 2, 0))
            acc += fid
            h_free, d_ts = h_free + h_f, d_ts + _weigh(TWO_PI * w_drive, h_d)
        dur = taus.sum(axis=1) + ts.sum(axis=1)
        fit = acc / len(self.omegas) - self.problem.duration_penalty * dur / TAU_MAX_US
        # each diagonal is exp(-i (2pi w_free tau - turn s_z)); a turn is
        # phi_{k+1} - phi_k, so phi_k moves turns k - 1 and k in opposite ways
        d_turns = -_weigh(_ZDIAG, h_free)
        d_ts = [d_ts] if self.problem.mode == MODE_FREE else []
        grad = np.vstack([_weigh(TWO_PI * self._w_free, h_free[:-1]), *d_ts, d_turns[:-1] - d_turns[1:]]).T
        grad /= len(self.omegas)
        lo, hi = genome_bounds(self.problem)
        dur_genes = genomes[:, : -self.n]
        inside = (dur_genes >= lo[: -self.n]) & (dur_genes <= hi[: -self.n])
        slope = self.problem.duration_penalty / TAU_MAX_US
        grad[:, : -self.n] = np.where(inside, grad[:, : -self.n] - slope, 0.0)
        return fit, grad


# Polish: the stopping tolerances on the relative decrease of the value
# and on the projected gradient (in the width-scaled coordinates the polish
# works on), the L-BFGS memory, the Armijo constant and the most trial steps
# of one line search.  A row of `minimize` ends converged (0), out of budget
# (1) or with a failed line search (2), as scipy's L-BFGS-B numbers them.
_FTOL = 1e-13
_GTOL = 1e-10
_MEMORY = 10
_ARMIJO = 1e-4
_MAX_TRIALS = 20
_RUNNING = -1


def _leader(fit, dur, pop) -> int:
    """Index of the best of the entries fit (R,), dur (R,) and pop (R, L):
    the highest fitness, then the shortest duration, then the genome lowest
    gene by gene; the first on a full tie."""
    keep = fit == fit.max()
    for key in (dur, *pop.T):
        keep &= key == np.where(keep, key, np.inf).min()
    return int(keep.argmax())


@dataclass(frozen=True, eq=False)
class Minimum:
    """Where `minimize` left each row: x (R, L), its value f, its value f0
    at the start (from the first call), status and evals (R,); nfev counts
    the calls of `fun`."""

    x: np.ndarray
    f: np.ndarray
    f0: np.ndarray
    status: np.ndarray
    evals: np.ndarray
    nfev: int


def _dot(a, b) -> np.ndarray:
    """Row-wise dot products over the last axis."""
    return np.einsum("...l,...l->...", a, b)


def _direction(g, free, s_mem, y_mem) -> np.ndarray:
    """-H g in the free coordinates, H the L-BFGS inverse Hessian of each
    row's memory (oldest pair first) restricted to them; a pair of no
    positive curvature there, or an empty slot, adds nothing."""
    s_mem, y_mem = s_mem * free[:, None], y_mem * free[:, None]
    sy, yy = _dot(s_mem, y_mem), _dot(y_mem, y_mem)
    rho = np.divide(1.0, sy, out=np.zeros_like(sy), where=sy > np.finfo(float).eps * yy)
    q, a = np.where(free, g, 0.0), np.zeros_like(rho)
    for j in reversed(range(_MEMORY)):
        a[:, j] = rho[:, j] * _dot(s_mem[:, j], q)
        q = q - a[:, j, None] * y_mem[:, j]
    r = np.divide(sy[:, -1], yy[:, -1], out=np.ones_like(q[:, 0]), where=rho[:, -1] > 0)[:, None] * q
    for j in range(_MEMORY):
        r = r + (a[:, j] - rho[:, j] * _dot(y_mem[:, j], r))[:, None] * s_mem[:, j]
    return -r


def minimize(fun, x0, lower, upper, budget: int) -> Minimum:
    """Projected L-BFGS from every row of x0 (R, L) at once, in the box
    [lower, upper] (an infinite bound leaves a coordinate free).

    `fun` maps points (B, L) to values (B,) and gradients (B, L); each call
    takes every row still running, so the rows share their calls, and
    nothing a row computes depends on the other rows.  Each row holds the
    coordinates at a bound whose gradient points out of the box and steps
    along the projected L-BFGS direction of its last `_MEMORY` steps (the
    steepest descent where that is not downhill, which clears the memory).
    From a unit step (1 / |d| capped at 1 with an empty memory) it backtracks
    to the minimum of a quadratic until the Armijo condition holds.  It stops
    with status 0 when its projected gradient is at most `_GTOL` in every
    coordinate or a step lowers its value by at most `_FTOL` relative to
    max(|f|, 1), 1 when it has spent `budget` evaluations (the first one
    included), 2 when `_MAX_TRIALS` steps fail.  After Byrd, Lu, Nocedal &
    Zhu, SIAM J. Sci. Comput. 16, 1190 (1995), without the generalized
    Cauchy point.
    """
    x = np.clip(np.array(x0, dtype=float), lower, upper)
    f, g = fun(x)
    f0, rows = f.copy(), len(x)
    nfev, evals, status = 1, np.ones(rows, dtype=np.int64), np.full(rows, _RUNNING)
    s_mem, y_mem = np.zeros((2, rows, _MEMORY, x.shape[1]))
    d, alpha, trials = np.zeros_like(x), np.zeros(rows), np.zeros(rows, dtype=np.int64)
    fresh = np.ones(rows, dtype=bool)
    while True:
        # a new direction for each row that has just moved, or started
        new = np.flatnonzero(fresh & (status == _RUNNING))
        xn, gn = x[new], g[new]
        status[new[np.abs(np.clip(xn - gn, lower, upper) - xn).max(axis=1) <= _GTOL]] = 0
        free = ~(((xn <= lower) & (gn > 0)) | ((xn >= upper) & (gn < 0)))
        dn = _direction(gn, free, s_mem[new], y_mem[new])
        uphill = _dot(gn, dn) >= 0
        s_mem[new[uphill]] = y_mem[new[uphill]] = 0.0
        dn[uphill] = np.where(free[uphill], -gn[uphill], 0.0)
        d[new], trials[new], fresh[new] = dn, 0, False
        alpha[new] = np.where(s_mem[new].any(axis=(1, 2)), 1.0, 1.0 / np.maximum(np.sqrt(_dot(dn, dn)), 1.0))
        status[(status == _RUNNING) & (evals >= budget)] = 1
        run = np.flatnonzero(status == _RUNNING)
        if not run.size:
            return Minimum(x, f, f0, status, evals, nfev)
        trial = np.clip(x[run] + alpha[run, None] * d[run], lower, upper)
        f_new, g_new = fun(trial)
        nfev += 1
        evals[run] += 1
        step, f_old = trial - x[run], f[run]
        # the projected step's first-order change, which must be downhill
        change = _dot(g[run], step)
        ok = (change <= 0) & (f_new <= f_old + _ARMIJO * change)
        # an accepted step joins the memory when its curvature is positive
        took, s, y = run[ok], step[ok], g_new[ok] - g[run[ok]]
        curved = _dot(s, y) > np.finfo(float).eps * _dot(y, y)
        for mem, pair in ((s_mem, s), (y_mem, y)):
            mem[took[curved]] = np.concatenate([mem[took[curved], 1:], pair[curved, None]], axis=1)
        x[took], f[took], g[took], fresh[took] = trial[ok], f_new[ok], g_new[ok], True
        scale = np.maximum(np.maximum(np.abs(f_old[ok]), np.abs(f_new[ok])), 1.0)
        status[took[f_old[ok] - f_new[ok] <= _FTOL * scale]] = 0
        # a rejected step shrinks to the minimum of the quadratic through the
        # two values and the first-order change, within [0.1, 0.5] of itself
        back, lin = run[~ok], change[~ok]
        curve = 2.0 * (f_new[~ok] - f_old[~ok] - lin)
        trials[back] += 1
        alpha[back] *= np.clip(np.divide(-lin, curve, out=np.zeros_like(lin), where=curve > 0), 0.1, 0.5)
        status[back[trials[back] >= _MAX_TRIALS]] = 2


def _polish(kernel, genomes, budget) -> Minimum:
    """Deterministic projected L-BFGS refinement of every restart's genome
    (R, L) in lockstep: one evaluation is the fitness and its exact gradient
    for all restarts still running, in one kernel call, and `budget` caps
    each restart's evaluations.  Durations are boxed by `genome_bounds`;
    phases are left unbounded, since the kernel treats them as periodic.  The
    search sees each genome divided by the box widths, which evens out the
    curvature of microsecond delays, short pulses and phases.  Returns the
    `minimize` result in genome units and as fitness: x the polished genomes,
    f their fitness from the last accepted evaluation, f0 the fitness of the
    starts from the first.  The polish accepts only steps that do not lower
    the fitness, so a restart ends no worse than it starts.
    """
    lo, hi = genome_bounds(kernel.problem)
    width = hi - lo
    phases = np.arange(lo.size) >= lo.size - kernel.n
    lower, upper = np.where(phases, -np.inf, lo / width), np.where(phases, np.inf, hi / width)

    def negative_fitness(u):
        fit, grad = kernel.gradient(u * width)
        return -fit, -grad * width

    # `minimize` is looked up in the module namespace at each call, where
    # perfbench's polish span rebinds it
    res = minimize(negative_fitness, genomes / width, lower, upper, budget)
    return replace(res, x=res.x * width, f=-res.f, f0=-res.f0)


def optimize(problem: ControlProblem, ga: GaConfig | None = None) -> OptimResult:
    """Best-of-restarts search (see `GaConfig`): each restart draws one
    uniform genome from its own generator, and `_polish` refines the starts
    in lockstep.  `history` is the winner's fitness at its start and after
    the polish.

    The reported fidelity (and robust fidelity, when a robustness range is
    configured) is re-evaluated from scratch through the propagation and
    fidelity modules, independent of the vectorized kernel used during the
    search.
    """
    ga = ga or GaConfig()
    kernel = _FitnessKernel(problem)
    lo, hi = genome_bounds(problem)
    starts = [np.random.default_rng(s).uniform(lo, hi) for s in np.random.SeedSequence(ga.seed).spawn(ga.restarts)]
    polish = _polish(kernel, np.stack(starts), ga.polish_evals)
    win = _leader(polish.f, _durations(problem, polish.x), polish.x)
    seq = decode(problem, polish.x[win])
    h = build_hamiltonian_subspace(problem.params)
    fid = sequence_fidelity(seq, problem.target, h)
    robust = None
    if problem.robustness is not None:
        robust = robust_fidelity(seq, problem.target, problem.robustness, h)
    return OptimResult(
        best_sequence=seq,
        fidelity=fid,
        robust_fidelity=robust,
        total_duration_us=seq.total_duration_us,
        history=(float(polish.f0[win]), float(polish.f[win])),
        seed=ga.seed,
        best_fitness=float(polish.f[win]),
        polish=polish,
    )


# Row layouts of the three benchmark tables: (target, mode, rabi, n_pulses,
# duration_penalty).  The population-transfer rows of table I carry a duration
# penalty because many durations reach near-unit fidelity there; the penalty
# selects the short solutions those rows report.
_TABLE_ROWS = {
    "I": [
        ("u_p", MODE_FREE, 0.2, 4, 0.1),
        ("u_90", MODE_FREE, 0.2, 2, 0.0),
        ("u_p", MODE_FREE, 0.5, 4, 0.1),
        ("u_90", MODE_FREE, 0.5, 2, 0.0),
        ("u_p", MODE_FREE, 10.0, 4, 0.1),
        ("u_90", MODE_FREE, 10.0, 2, 0.0),
    ],
    "II": [
        ("u_p", MODE_SWITCHED, 10.0, 3, 0.0),
        ("u_90", MODE_SWITCHED, 10.0, 2, 0.0),
        ("u_p", MODE_SWITCHED, 0.5, 3, 0.0),
        ("u_90", MODE_SWITCHED, 0.5, 2, 0.0),
    ],
    "III": [
        ("u_p", MODE_FREE, 0.5, 3, 0.0),
        ("u_p", MODE_FREE, 0.5, 4, 0.0),
        ("u_p", MODE_FREE, 0.5, 5, 0.0),
    ],
}


def table_runs(
    which: str,
    params: SystemParams | None = None,
    ga: GaConfig | None = None,
) -> list[tuple[ControlProblem, GaConfig]]:
    """The problems of benchmark batch `which` in ("I", "II", "III"), each
    with the search config its row runs with: row i runs with seed `ga.seed + i`.

    Table III uses the stronger-field system (nu_C = 0.3 MHz) where the
    m_S = -1 quantization axis tilts to 36.6 degrees.
    """
    if which not in _TABLE_ROWS:
        raise ValueError("which must be 'I', 'II' or 'III'")
    params = params or SystemParams()
    ga = ga or GaConfig()
    if which == "III":
        params = replace(params, nu_c_override=0.3)
    return [
        (
            ControlProblem(
                params=params,
                target=build_target(target_name, params, rabi),
                n_pulses=n_pulses,
                rabi_mhz=rabi,
                mode=mode,
                duration_penalty=penalty,
            ),
            replace(ga, seed=ga.seed + i),
        )
        for i, (target_name, mode, rabi, n_pulses, penalty) in enumerate(_TABLE_ROWS[which])
    ]


def reproduce_tables(
    which: str,
    params: SystemParams | None = None,
    ga: GaConfig | None = None,
) -> list[dict]:
    """Run the benchmark batch `which` (see `table_runs`) and return rows,
    each recording the seed it ran with."""
    rows = []
    for problem, row_ga in table_runs(which, params, ga):
        result = optimize(problem, row_ga)
        rows.append(
            {
                "table": which,
                "target": problem.target.name,
                "mode": problem.mode,
                "rabi_mhz": problem.rabi_mhz,
                "n_pulses": problem.n_pulses,
                "seed": row_ga.seed,
                "fidelity": result.fidelity,
                "duration_us": result.total_duration_us,
            }
        )
    return rows
