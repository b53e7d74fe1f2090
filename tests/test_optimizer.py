import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvctrl as nc
from nvctrl.optimizer import _CHUNK, _FitnessKernel, genome_bounds
from nvctrl.propagation import Delay, Pulse

SMALL_GA = nc.GaConfig(restarts=16, seed=99, polish_evals=200)


@pytest.fixture(scope="module")
def u90_problem(paper):
    return nc.ControlProblem(
        params=paper, target=nc.build_target("u_90", paper, 0.5), n_pulses=2, rabi_mhz=0.5
    )


@pytest.fixture(scope="module")
def up_problem(paper):
    return nc.ControlProblem(
        params=paper, target=nc.build_target("u_p", paper, 0.5), n_pulses=3, rabi_mhz=0.5
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_problem_inputs_reject_non_finite_values(paper, value):
    target = nc.build_target("u_90", paper)
    for build in (
        lambda: nc.ControlProblem(paper, target, rabi_mhz=value),
        lambda: nc.ControlProblem(paper, target, duration_penalty=value),
        lambda: nc.RobustnessRange(value, 0.52),
        lambda: nc.RobustnessRange(0.48, value),
        lambda: nc.PolarizationModel(value, 0.51, 0.50, 1.10, 0.41, 0.022),
        lambda: nc.PolarizationModel(0.31, 0.51, 0.50, 1.10, 0.41, value),
    ):
        with pytest.raises(ValueError, match="finite"):
            build()


def test_duration_penalty_bound_follows_the_mode(paper):
    """The overflow check takes the longest sequence of the problem's mode: a
    penalty that overflows with free-angle pulses (up to two Rabi periods)
    passes with the shorter fixed switched pulse, where its fitness stays
    finite.  A Rabi frequency whose pulse bound overflows fails as such, not
    as a penalty overflow."""
    target = nc.build_target("u_p", paper, 0.5)
    with pytest.raises(ValueError, match="penalty overflows"):
        nc.ControlProblem(paper, target, duration_penalty=5e306)
    switched = nc.ControlProblem(paper, target, mode=nc.MODE_SWITCHED, duration_penalty=5e306)
    fit, _ = _FitnessKernel(switched).gradient(np.vstack(genome_bounds(switched)))
    assert np.isfinite(fit).all()
    for penalty in (0.0, 0.1):
        with pytest.raises(ValueError, match="Rabi frequency too small"):
            nc.ControlProblem(paper, target, rabi_mhz=5e-324, duration_penalty=penalty)


def test_ga_config_bounds_genomes_per_generation():
    """The one kernel call before the polish scores one genome per restart,
    so the restart count is capped, and a huge one fails before one
    generator per restart is spawned."""
    from nvctrl.optimizer import MAX_RESTARTS

    nc.GaConfig(restarts=MAX_RESTARTS)
    for restarts in (MAX_RESTARTS + 1, 100_000_000_000):
        with pytest.raises(ValueError, match="restarts must not exceed"):
            nc.GaConfig(restarts=restarts)


def test_ga_config_rejects_out_of_range_values():
    """A negative seed is refused by name, before numpy sees it; the search
    needs a restart and a polish evaluation, the one that scores the starts;
    the genetic algorithm's settings are not fields."""
    nc.GaConfig(seed=0, restarts=1, polish_evals=1)
    for bad, message in (
        ({"seed": -1}, "seed must be non-negative"),
        ({"restarts": 0}, "restarts must be at least 1"),
        ({"polish_evals": 0}, "polish_evals must be at least 1"),
        ({"polish_evals": -1}, "polish_evals must be at least 1"),
    ):
        with pytest.raises(ValueError, match=message):
            nc.GaConfig(**bad)
    for removed in ("population", "generations"):
        with pytest.raises(TypeError):
            nc.GaConfig(**{removed: 1})


def test_genome_layout_lengths(u90_problem, up_problem, paper):
    assert genome_bounds(u90_problem)[0].size == 6
    switched = nc.ControlProblem(
        params=paper,
        target=nc.build_target("u_p", paper, 0.5),
        n_pulses=3,
        rabi_mhz=0.5,
        mode=nc.MODE_SWITCHED,
    )
    assert genome_bounds(switched)[0].size == 6
    assert genome_bounds(up_problem)[0].size == 9


def test_decode_zero_genome_is_identity(up_problem, h_sub):
    seq = nc.decode(up_problem, np.zeros(9))
    assert seq.total_duration_us == 0.0
    u = nc.sequence_propagator(h_sub, seq)
    assert np.allclose(u, np.eye(4), atol=1e-14)


def test_decode_clamps_and_wraps(up_problem):
    g = np.zeros(9)
    g[3] = 99.0  # pulse duration gene beyond t_max
    g[0] = -5.0  # delay gene below zero
    g[6] = -math.pi  # phase gene wraps
    seq = nc.decode(up_problem, g)
    assert seq.pulses()[0].us == up_problem.t_max_us
    assert seq.delays()[0].us == 0.0
    assert seq.pulses()[0].phase_rad == pytest.approx(math.pi)


def test_decode_bad_length(up_problem):
    with pytest.raises(ValueError, match=r"expected genome of length 9, got shape \(7,\)"):
        nc.decode(up_problem, np.zeros(7))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_encode_decode_round_trip(seed):
    paper = nc.SystemParams()
    problem = nc.ControlProblem(
        params=paper, target=nc.build_target("u_p", paper, 0.5), n_pulses=3, rabi_mhz=0.5
    )
    rng = np.random.default_rng(seed)
    lo, hi = genome_bounds(problem)
    g = rng.uniform(lo, np.nextafter(hi, 0.0))
    seq = nc.decode(problem, g)
    # canonical layout: delay tau_k before pulse (t_k, phi_k), and the genome
    # blocks [tau | t | phi] come back in place from an in-box genome
    assert [type(seg) for seg in seq.segments] == [Delay, Pulse] * 3
    delays, pulses = seq.delays(), seq.pulses()
    assert [d.us for d in delays] == list(g[0:3])
    assert [p.us for p in pulses] == list(g[3:6])
    assert [p.phase_rad for p in pulses] == list(g[6:9])


def test_switched_mode_freezes_flip_angles(paper):
    problem = nc.ControlProblem(
        params=paper,
        target=nc.build_target("u_p", paper, 0.5),
        n_pulses=3,
        rabi_mhz=0.5,
        mode=nc.MODE_SWITCHED,
    )
    seq = nc.decode(problem, np.linspace(0.0, 1.0, 6))
    for pulse in seq.pulses():
        assert pulse.us == pytest.approx(1.0 / (2.0 * 0.5))
    # nothing is dropped: delays and phases come back exactly
    genome = [d.us for d in seq.delays()] + [p.phase_rad for p in seq.pulses()]
    assert genome == list(np.linspace(0.0, 1.0, 6))


def test_switched_mode_with_robustness_smoke(paper, h_sub):
    problem = nc.ControlProblem(
        params=paper,
        target=nc.build_target("u_90", paper, 0.5),
        n_pulses=2,
        rabi_mhz=0.5,
        mode=nc.MODE_SWITCHED,
        robustness=nc.RobustnessRange(0.48, 0.52, 3),
    )
    result = nc.optimize(problem, SMALL_GA)
    redo = nc.robust_fidelity(result.best_sequence, problem.target, problem.robustness, h_sub)
    assert abs(redo - result.robust_fidelity) < 1e-12
    # flip angles stay frozen at the nominal amplitude
    for pulse in result.best_sequence.pulses():
        assert pulse.us == pytest.approx(1.0)


def test_fitness_identity_genome_against_u90(u90_problem):
    f, _ = _FitnessKernel(u90_problem).gradient(np.zeros((1, 6)))
    assert f[0] == pytest.approx(math.cos(math.pi / 4.0), abs=1e-12)


def test_fitness_identity_genome_trivial_state_transfer(paper):
    from nvctrl.fidelity import rho0_state

    target = nc.Target("custom", "state", rho_initial=rho0_state(), rho_target=rho0_state())
    problem = nc.ControlProblem(params=paper, target=target, n_pulses=2, rabi_mhz=0.5)
    f, _ = _FitnessKernel(problem).gradient(np.zeros((1, 6)))
    assert f[0] == pytest.approx(1.0, abs=1e-12)


def test_fitness_matches_direct_recomposition(paper, h_sub):
    """Kernel fitness equals propagate-then-evaluate through the propagation
    and fidelity modules."""
    problems = [
        nc.ControlProblem(
            params=paper, target=nc.build_target("u_90", paper, 0.5), n_pulses=2, rabi_mhz=0.5
        ),
        nc.ControlProblem(
            params=paper, target=nc.build_target("u_p", paper, 0.5), n_pulses=3, rabi_mhz=0.5
        ),
        nc.ControlProblem(
            params=paper,
            target=nc.build_target("u_c", paper, 0.5),
            n_pulses=3,
            rabi_mhz=0.5,
            robustness=nc.RobustnessRange(0.47, 0.53, 3),
        ),
    ]
    rng = np.random.default_rng(17)
    for problem in problems:
        kernel = _FitnessKernel(problem)
        lo, hi = genome_bounds(problem)
        for _ in range(15):
            g = rng.uniform(lo, hi)
            seq = nc.decode(problem, g)
            if problem.robustness is None:
                direct = nc.sequence_fidelity(seq, problem.target, h_sub)
            else:
                direct = nc.robust_fidelity(seq, problem.target, problem.robustness, h_sub)
            assert kernel.gradient(g[None, :])[0][0] == pytest.approx(direct, abs=1e-12)


def _kernel_problem(paper, target, n_pulses=3, robustness=None):
    return nc.ControlProblem(
        params=paper,
        target=nc.build_target(target, paper, 0.5),
        n_pulses=n_pulses,
        rabi_mhz=0.5,
        robustness=robustness,
    )


KERNEL_PROBLEMS = {
    "u_90": ("u_90", 3, None),
    "u_p": ("u_p", 3, None),
    "u_c_dagger": ("u_c_dagger", 3, None),
    "robust_u_90": ("u_90", 2, nc.RobustnessRange(0.48, 0.52, 5)),
}


@pytest.mark.parametrize("case", KERNEL_PROBLEMS.values(), ids=KERNEL_PROBLEMS.keys())
def test_fitness_kernel_batch_matches_trotter_oracle(paper, h_sub, case):
    """A batch of random genomes through the fitness kernel against fidelities of
    the decoded sequences propagated by the independent scipy-expm product,
    averaged over the drive samples of a robust problem."""
    from dataclasses import replace

    from tests_support import trotter_sequence

    problem = _kernel_problem(paper, *case)
    rng = np.random.default_rng(23)
    lo, hi = genome_bounds(problem)
    genomes = rng.uniform(lo, hi, size=(32, lo.size))
    fit, _ = _FitnessKernel(problem).gradient(genomes)
    t = problem.target
    omegas = problem.robustness.samples() if problem.robustness else [problem.rabi_mhz]
    for g, f in zip(genomes, fit):
        seq = nc.decode(problem, g)
        want = 0.0
        for omega in omegas:
            u = trotter_sequence(h_sub, replace(seq, rabi_mhz=float(omega)), dt=0.01)
            if t.kind == "unitary":
                want += nc.gate_fidelity(u, t.unitary)
            else:
                rho = nc.DensityState(u @ t.rho_initial.matrix @ u.conj().T)
                want += nc.state_fidelity(rho, t.rho_target)
        assert f == pytest.approx(want / len(omegas), abs=1e-7)


@pytest.mark.parametrize(
    "case",
    [("u_p", 3, None), ("u_90", 2, None), ("u_c_dagger", 3, None),
     ("u_c", 3, nc.RobustnessRange(0.47, 0.53, 5))],
    ids=["u_p", "u_90", "u_c_dagger", "robust_u_c"],
)
def test_fitness_is_independent_of_batch_position(paper, case):
    """Each genome's fitness and gradient alone equal, bitwise, those at its
    place in a batch of 98, of one kernel chunk (784), of a ragged lockstep
    batch (577), of two kernel chunks and one genome (2 _CHUNK + 1), of
    32 x 98 genomes, and in that batch reversed."""
    problem = _kernel_problem(paper, *case)
    kernel = _FitnessKernel(problem)
    lo, hi = genome_bounds(problem)
    genomes = np.random.default_rng(41).uniform(lo, hi, size=(32 * 98, lo.size))
    alone = np.array([np.concatenate(kernel.gradient(g[None, :]), axis=None) for g in genomes])
    sizes = (98, 784, 577, 2 * _CHUNK + 1, 32 * 98, 32 * 98)
    picks = (slice(0, 98), slice(0, 784), slice(101, 678), slice(5, 6 + 2 * _CHUNK), slice(None), slice(None, None, -1))
    for picked, size in zip(picks, sizes):
        assert genomes[picked].shape[0] == size
        assert np.column_stack(kernel.gradient(genomes[picked])).tobytes() == alone[picked].tobytes()


@pytest.mark.parametrize("case", ["u_p", "robust_u_c", "switched"])
def test_copied_durations_are_independent_of_batch_position(paper, case):
    """Rows that copy duration genes from one another, as GA children did,
    with +0.0 and -0.0 among them: each genome's result alone equals,
    bitwise, its result in the batch and in that batch reversed.  In
    switched mode every pulse duration is the same."""
    problem = _gradient_problem(paper, case)
    kernel = _FitnessKernel(problem)
    lo, hi = genome_bounds(problem)
    n_dur = lo.size - problem.n_pulses
    rng = np.random.default_rng(47)
    genomes = rng.uniform(lo, hi, size=(150, lo.size))
    parents = rng.integers(0, 12, size=len(genomes))
    genomes[:, :n_dur] = np.where(rng.random((len(genomes), n_dur)) < 0.8, genomes[parents, :n_dur], genomes[:, :n_dur])
    genomes[::7, :n_dur] = np.where(rng.random((len(genomes[::7]), n_dur)) < 0.5, 0.0, -0.0)
    _, copies = np.unique(genomes[:, :n_dur].view(np.int64), return_counts=True)
    assert copies.max() > 10 and np.signbit(genomes[:, :n_dur][genomes[:, :n_dur] == 0]).any()
    alone = np.array([np.concatenate(kernel.gradient(g[None, :]), axis=None) for g in genomes])
    batch, reverse = (np.column_stack(kernel.gradient(b)) for b in (genomes, genomes[::-1]))
    assert alone.tobytes() == batch.tobytes() == reverse[::-1].tobytes()


def test_rotate_equals_the_complex_contraction(paper):
    """The real rotation of interleaved columns equals, bitwise, the complex
    einsum of the kernel's M (and M^T) as a complex matrix, on columns with
    exact zeros, -0.0 and identity columns."""
    from nvctrl.optimizer import _rotate

    kernel = _FitnessKernel(_kernel_problem(paper, "u_c", 3, nc.RobustnessRange(0.47, 0.53, 5)))
    rng = np.random.default_rng(53)
    x = rng.normal(size=(4, 4, 60)) + 1j * rng.normal(size=(4, 4, 60))
    x.real[rng.random(x.shape) < 0.2] = 0.0
    x.imag[rng.random(x.shape) < 0.2] = -0.0
    x.real[rng.random(x.shape) < 0.2] = -0.0
    x[:, :, :3] = np.eye(4)[:, :, None]
    x[:, :, 3] = -np.eye(4)
    for _, m in kernel._drive:
        for op in (m, m.T):
            assert op.dtype == float
            want = np.einsum("ij,jcb->icb", op.astype(complex), x)
            assert _rotate(op, x).tobytes() == want.tobytes()


def test_cis_equals_complex_exp():
    """cos a - i sin a equals np.exp(-1j * a) bitwise, signed zeros and
    subnormals, pi, large angles and a million uniform angles included."""
    from nvctrl.optimizer import _cis

    special = np.array([0.0, -0.0, 5e-324, -5e-324, np.pi, -np.pi, 1e5, 2.0**60])
    uniform = np.random.default_rng(59).uniform(-1e4, 1e4, size=10**6)
    for a in (special, uniform, uniform.reshape(1000, 250, 4)[:, ::2]):
        assert _cis(a).tobytes() == np.exp(-1j * a).tobytes()


def test_kernel_refuses_a_complex_drive_basis(paper, monkeypatch):
    """A drive whose eigenbasis change M is not real raises, rather than the
    kernel dropping the imaginary part of M."""
    from nvctrl import optimizer

    monkeypatch.setattr(optimizer, "PSEUDO_SX", nc.spin_model.PSEUDO_SY)
    with pytest.raises(ValueError, match="not real"):
        _FitnessKernel(_kernel_problem(paper, "u_90", 2))


@pytest.mark.parametrize("target", ["u_c", "u_c_dagger", "u_p"])
def test_rank_factor_reproduces_initial_state(paper, target):
    """The kernel carries rank(rho_initial) columns A with A A^dag = rho_initial."""
    from nvctrl.optimizer import _rank_factor

    rho = nc.build_target(target, paper, 0.5).rho_initial.matrix
    a = _rank_factor(rho)
    assert a.shape == (4, 2)
    assert np.abs(a @ a.conj().T - rho).max() <= 1e-15


@pytest.mark.parametrize("problem_name", ["u90_problem", "up_problem"])
def test_first_restarts_do_not_depend_on_the_restart_count(request, problem_name):
    """Restart r draws from the r-th child of the seed, whatever the number
    of restarts: the first 3 polished genomes of a search of 3 restarts and
    of one of 8 are bitwise the same."""
    problem = request.getfixturevalue(problem_name)
    x3, x8 = (nc.optimize(problem, nc.GaConfig(restarts=r, seed=20260809, polish_evals=20)).polish.x for r in (3, 8))
    assert x3.shape == (3, genome_bounds(problem)[0].size) and x8.shape[0] == 8
    assert x3.tobytes() == x8[:3].tobytes()


def _oracle_leader(fit, dur, pop) -> int:
    """Plain-Python winner rule: highest fitness, then shortest duration,
    then lowest genome as a tuple; the first on a full tie."""
    return min(range(len(fit)), key=lambda j: (-fit[j], dur[j], tuple(pop[j])))


@pytest.mark.parametrize("problem_name", ["u90_problem", "up_problem"])
def test_multistart_polishes_each_restarts_best_draw(request, problem_name):
    """The search's polish record equals, bitwise, an oracle built restart by
    restart: one uniform draw of its own generator, the polish of those
    draws, and the fitness of each draw scored alone, at the genome the
    polish's scaling by the box widths gives back.  The polish gains on
    some restart."""
    from nvctrl.optimizer import _polish

    problem = request.getfixturevalue(problem_name)
    kernel = _FitnessKernel(problem)
    ga = nc.GaConfig(restarts=6, seed=11, polish_evals=40)
    polish = nc.optimize(problem, ga).polish
    lo, hi = genome_bounds(problem)
    seeds = np.random.SeedSequence(ga.seed).spawn(ga.restarts)
    draws = np.array([np.random.default_rng(s).uniform(lo, hi) for s in seeds])
    want = _polish(kernel, draws, ga.polish_evals)
    width = hi - lo
    start_fit = np.array([kernel.gradient((d / width * width)[None, :])[0][0] for d in draws])
    for name in ("x", "f", "f0", "status", "evals"):
        assert getattr(polish, name).tobytes() == getattr(want, name).tobytes(), name
    assert polish.nfev == want.nfev
    assert polish.f0.tobytes() == start_fit.tobytes()
    assert np.all(polish.f >= start_fit) and np.any(polish.f > start_fit)


@pytest.mark.parametrize("problem_name", ["u90_problem", "up_problem"])
def test_optimize_reports_the_polish_winner(request, problem_name):
    """The result's best sequence, fitness and history come from the
    polish's winner by `_leader`, and the polish record is not serialized."""
    from nvctrl.optimizer import _durations, _leader, decode

    problem = request.getfixturevalue(problem_name)
    result = nc.optimize(problem, nc.GaConfig(restarts=6, seed=11, polish_evals=40))
    polish = result.polish
    win = _leader(polish.f, _durations(problem, polish.x), polish.x)
    assert result.best_sequence == decode(problem, polish.x[win])
    assert result.history == (polish.f0[win], polish.f[win])
    assert result.best_fitness == polish.f[win]
    assert all(type(v) is float for v in (*result.history, result.best_fitness))
    assert "polish" not in result.to_json_dict()


def test_leaders_pick_what_better_picks():
    """The vectorized pick agrees with a plain-Python oracle, row by row, on
    rows full of exact fitness ties, equal-fitness entries of other
    durations and duplicated genomes (including -0.0 against 0.0)."""
    from nvctrl.optimizer import _leader

    rng = np.random.default_rng(3)
    rows, size, length = 400, 9, 3
    fit = rng.choice([0.25, 0.5, 0.75], size=(rows, size))
    dur = rng.choice([1.0, 2.0, 3.0], size=(rows, size))
    pool = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 1.0], [-0.0, 1.0, 1.0], [0.0, 0.5, 9.0], [1.0, 0.0, 0.0]])
    pop = pool[rng.integers(0, len(pool), size=(rows, size))]
    lead = np.array([_leader(fit[r], dur[r], pop[r]) for r in range(rows)])
    for r in range(rows):
        assert lead[r] == _oracle_leader(fit[r], dur[r], pop[r])
    top = fit == fit.max(axis=1, keepdims=True)
    # the rows exercise every tie-break level
    assert np.any(top.sum(axis=1) > 1)
    assert np.any([len(set(dur[r][top[r]])) > 1 for r in range(rows)])
    assert np.any(lead != np.argmax(fit, axis=1))


def _ascent_gradient(kernel, genome, h=1e-6):
    """Central-difference gradient of the kernel fitness, one genome at a time."""
    grad = np.zeros(genome.size)
    for i in range(genome.size):
        step = np.zeros(genome.size)
        step[i] = h
        up, _ = kernel.gradient((genome + step)[None, :])
        down, _ = kernel.gradient((genome - step)[None, :])
        grad[i] = (up[0] - down[0]) / (2.0 * h)
    return grad


GRADIENT_PROBLEMS = {
    "u_p": ("u_p", 3, None),
    "u_90": ("u_90", 2, None),
    "u_c_dagger": ("u_c_dagger", 3, None),
    "robust_u_c": ("u_c", 3, nc.RobustnessRange(0.47, 0.53, 5)),
}


def _gradient_problem(paper, case):
    if case == "switched":
        return nc.ControlProblem(
            params=paper, target=nc.build_target("u_p", paper, 0.5), n_pulses=3, rabi_mhz=0.5,
            mode=nc.MODE_SWITCHED,
        )
    if case == "penalty":
        return nc.ControlProblem(
            params=paper, target=nc.build_target("u_p", paper, 0.5), n_pulses=4, rabi_mhz=0.5,
            duration_penalty=0.1,
        )
    return _kernel_problem(paper, *GRADIENT_PROBLEMS[case])


GRADIENT_CASES = [*GRADIENT_PROBLEMS, "switched", "penalty"]


@pytest.mark.parametrize("case", GRADIENT_CASES)
def test_gradient_matches_central_differences(paper, case):
    """The adjoint gradient agrees with central differences of the kernel
    fitness at steps 1e-3 to 1e-6, with an error that falls as h^2 until
    round-off takes over."""
    problem = _gradient_problem(paper, case)
    kernel = _FitnessKernel(problem)
    lo, hi = genome_bounds(problem)
    # keep the durations 1e-3 inside the box, so that no step crosses a bound
    genomes = np.random.default_rng(29).uniform(lo + 1e-3, hi - 1e-3, size=(3, lo.size))
    _, grad = kernel.gradient(genomes)
    for g, exact in zip(genomes, grad):
        errors = {h: np.abs(_ascent_gradient(kernel, g, h) - exact).max() for h in (1e-3, 1e-4, 1e-5, 1e-6)}
        assert errors[1e-3] < 1e-3 and errors[1e-6] < 1e-9
        assert 50.0 < errors[1e-3] / errors[1e-4] < 200.0
        for h, error in errors.items():
            assert error <= 1.5 * errors[1e-3] * (h / 1e-3) ** 2 + 1e-9, (h, error)


def test_gradient_at_and_beyond_the_box(paper):
    """A duration beyond its bound has zero derivative, as the kernel clips it
    there; a duration at its bound has the one-sided derivative from inside
    the box; every other coordinate agrees with central differences."""
    problem = _kernel_problem(paper, "u_90", 3)
    kernel = _FitnessKernel(problem)
    t_max = problem.t_max_us
    # tau_1 at 0, tau_2 below 0, tau_3 at its top; t_1 beyond t_max, t_2 at t_max
    genome = np.array([0.0, -0.5, 10.0, t_max + 1.0, t_max, 0.7, 1.1, 4.0, 2.5])
    (fit,), (grad,) = kernel.gradient(genome[None, :])
    assert grad[1] == 0.0 and grad[3] == 0.0
    h = 1e-7
    for i, inward in ((0, h), (2, -h), (4, -h)):
        step = np.zeros(genome.size)
        step[i] = inward
        one_sided = (kernel.gradient((genome + step)[None, :])[0][0] - fit) / inward
        assert abs(one_sided - grad[i]) < 1e-5
        assert abs(grad[i]) > 1e-3
    central = _ascent_gradient(kernel, genome)
    for i in (5, 6, 7, 8):
        assert abs(central[i] - grad[i]) < 1e-8


@pytest.mark.parametrize("case", GRADIENT_CASES)
def test_gradient_is_independent_of_batch_position(paper, case):
    """Each genome's fitness and gradient alone equal, bitwise, those at its
    place in a batch of 98 and in that batch reversed."""
    problem = _gradient_problem(paper, case)
    kernel = _FitnessKernel(problem)
    lo, hi = genome_bounds(problem)
    genomes = np.random.default_rng(43).uniform(lo, hi, size=(98, lo.size))
    alone = [np.concatenate(kernel.gradient(g[None, :]), axis=None) for g in genomes]
    batch, reverse = (np.column_stack(kernel.gradient(b)) for b in (genomes, genomes[::-1]))
    assert np.array(alone).tobytes() == batch.tobytes() == reverse[::-1].tobytes()


def test_minimize_agrees_with_scipy_on_a_boxed_quadratic():
    """On an ill-conditioned convex quadratic whose unconstrained minimum lies
    outside the box of its boxed coordinates, every row of one lockstep call
    converges, inside its budget, to the minimizer scipy's L-BFGS-B finds."""
    from scipy.optimize import minimize as scipy_minimize

    from nvctrl.optimizer import minimize

    rng = np.random.default_rng(11)
    length = 7
    lower = np.array([0.0, 0.0, 0.0, -1.0, -np.inf, -np.inf, -np.inf])
    upper = np.array([1.0, 1.0, 1.0, 0.5, np.inf, np.inf, np.inf])
    q = np.linalg.qr(rng.normal(size=(length, length)))[0]
    a = q @ np.diag(np.geomspace(0.1, 30.0, length)) @ q.T
    center = np.array([1.6, -0.4, 0.5, 0.9, 0.2, -1.0, 2.0])

    def quadratic(x):
        g = np.einsum("ij,rj->ri", a, x - center)
        return 0.5 * np.einsum("ri,ri->r", x - center, g), g

    starts = rng.uniform(0.0, 1.0, size=(6, length))
    res = minimize(quadratic, starts, lower, upper, 500)
    assert np.all(res.status == 0) and isinstance(res.nfev, int)
    assert res.nfev == res.evals.max() < 500
    want = scipy_minimize(
        lambda x: (0.5 * (x - center) @ a @ (x - center), a @ (x - center)),
        starts[0], jac=True, method="L-BFGS-B", bounds=list(zip(lower, upper)),
        options={"ftol": 1e-15, "gtol": 1e-12},
    )
    assert want.x[0] == 1.0 and want.x[1] == 0.0
    assert np.abs(res.x - want.x).max() < 1e-5


@pytest.mark.parametrize("problem_name", ["u90_problem", "up_problem"])
def test_polish_ascends_to_a_box_stationary_point(request, problem_name):
    """From random in-box genomes, polished in one lockstep call, the polish
    never loses fitness, every restart converges inside its budget, and each
    ends where the box-projected gradient vanishes."""
    from nvctrl.optimizer import _polish

    problem = request.getfixturevalue(problem_name)
    kernel = _FitnessKernel(problem)
    lo, hi = genome_bounds(problem)
    starts = np.random.default_rng(31).uniform(lo, hi, size=(4, lo.size))
    start_fit, _ = kernel.gradient(starts)
    res = _polish(kernel, starts, 4000)
    assert np.all(res.status == 0) and res.evals.max() < 4000
    assert np.all(res.f >= start_fit)
    # the polish leaves phases unbounded: the kernel treats them as periodic
    lo[-problem.n_pulses :], hi[-problem.n_pulses :] = -np.inf, np.inf
    for x in res.x:
        assert np.all(x >= lo) and np.all(x <= hi)
        grad = _ascent_gradient(kernel, x)
        projected = np.clip(x + grad, lo, hi) - x
        assert np.max(np.abs(projected)) < 1e-6


@pytest.mark.parametrize("budget", [1, 3, 10])
def test_polish_budget_caps_batched_kernel_calls(up_problem, budget):
    """One polish evaluation is one genome's fitness and exact gradient; a
    lockstep call evaluates every restart still running, and the budget caps
    each restart's evaluations exactly.  The polished genomes are not
    evaluated again: their fitness, from the polish's own evaluations,
    equals the kernel's bitwise."""
    from nvctrl.optimizer import _polish

    kernel = _FitnessKernel(up_problem)
    batches = []
    real_gradient = kernel.gradient

    def counting_gradient(genomes):
        batches.append(len(genomes))
        return real_gradient(genomes)

    kernel.gradient = counting_gradient
    lo, hi = genome_bounds(up_problem)
    res = _polish(kernel, np.random.default_rng(7).uniform(lo, hi, size=(5, lo.size)), budget)
    assert res.evals.max() == budget and np.all(res.status[res.evals == budget] <= 1)
    assert np.all(res.status[res.evals < budget] == 0)
    assert len(batches) == res.nfev == budget
    assert batches[0] == 5 and sum(batches) == res.evals.sum()
    assert res.f.tobytes() == real_gradient(res.x)[0].tobytes()


@pytest.mark.parametrize(("restarts", "budget"), [(24, 30), (_CHUNK, 3)])
def test_search_makes_one_kernel_pass_per_polish_call(u90_problem, monkeypatch, restarts, budget):
    """A search of at most `_CHUNK` restarts passes through the kernel once
    per lockstep call of the polish, and the first pass scores all the
    starts: nothing scores them apart from the polish."""
    from nvctrl import optimizer

    rows = []
    real_chunk = optimizer._FitnessKernel._chunk

    def counting_chunk(self, genomes):
        rows.append(len(genomes))
        return real_chunk(self, genomes)

    monkeypatch.setattr(optimizer._FitnessKernel, "_chunk", counting_chunk)
    res = nc.optimize(u90_problem, nc.GaConfig(restarts=restarts, seed=5, polish_evals=budget)).polish
    assert len(rows) == res.nfev and rows[0] == restarts
    assert sum(rows) == res.evals.sum()


def test_polish_restart_alone_matches_lockstep(up_problem):
    """A restart polished alone reaches bitwise the genome, fitness, status
    and evaluation count it reaches inside a lockstep batch of 16."""
    from nvctrl.optimizer import _polish

    kernel = _FitnessKernel(up_problem)
    lo, hi = genome_bounds(up_problem)
    starts = np.random.default_rng(37).uniform(lo, hi, size=(16, lo.size))
    lockstep = _polish(kernel, starts, 4000)
    assert len(set(lockstep.evals.tolist())) > 1
    for r, start in enumerate(starts):
        alone = _polish(kernel, start[None, :], 4000)
        assert alone.x[0].tobytes() == lockstep.x[r].tobytes()
        assert (alone.f[0], alone.status[0], alone.evals[0]) == (lockstep.f[r], lockstep.status[r], lockstep.evals[r])


FIXTURE_PINS = {
    "up_free3_result": 0.999167495939,
    "u90_result": 0.974224874778,
    "up_short_result": 0.922953765243,
    "up_switched_result": 0.590934808507,
}


@pytest.mark.parametrize(("fixture", "best_fitness"), FIXTURE_PINS.items())
def test_fixture_best_fitness_is_pinned(request, fixture, best_fitness):
    """The polished optima of the shared search fixtures at the acceptance seed."""
    assert request.getfixturevalue(fixture).best_fitness == pytest.approx(best_fitness, abs=1e-9)


def test_best_known_covers_every_job_and_bounds_the_pins():
    """tools/best_known.json has a value for each of the 21 search jobs of
    ga_jobs.py, and no pinned fixture optimum lies above its job's best
    known value."""
    from pathlib import Path

    from ga_jobs import jobs

    best = json.loads((Path(__file__).resolve().parents[1] / "tools" / "best_known.json").read_text())
    assert list(best) == list(jobs(nc.GaConfig())) and len(best) == 21
    for fixture, pinned in FIXTURE_PINS.items():
        assert pinned <= best[fixture.removesuffix("_result")] + 1e-12


def test_optimize_deterministic_for_a_seed(u90_problem):
    r1 = nc.optimize(u90_problem, SMALL_GA)
    r2 = nc.optimize(u90_problem, SMALL_GA)
    assert r1.best_sequence == r2.best_sequence
    assert r1.fidelity == r2.fidelity
    assert r1.history == r2.history


def test_optimize_history_monotone(u90_problem):
    result = nc.optimize(u90_problem, SMALL_GA)
    assert all(a <= b + 1e-15 for a, b in zip(result.history, result.history[1:]))


def test_optimize_audit_reproduces_fidelity(u90_problem, h_sub):
    result = nc.optimize(u90_problem, SMALL_GA)
    redo = nc.sequence_fidelity(result.best_sequence, u90_problem.target, h_sub)
    assert abs(redo - result.fidelity) < 1e-12


def test_optimize_robust_audit(paper, h_sub):
    problem = nc.ControlProblem(
        params=paper,
        target=nc.build_target("u_c", paper, 0.5),
        n_pulses=2,
        rabi_mhz=0.5,
        robustness=nc.RobustnessRange(0.47, 0.53, 3),
    )
    result = nc.optimize(problem, SMALL_GA)
    redo = nc.robust_fidelity(result.best_sequence, problem.target, problem.robustness, h_sub)
    assert abs(redo - result.robust_fidelity) < 1e-12


def test_optim_result_serialization(u90_problem):
    result = nc.optimize(u90_problem, SMALL_GA)
    # the payload survives JSON text unchanged
    data = json.loads(json.dumps(result.to_json_dict()))
    assert data["seed"] == SMALL_GA.seed
    assert data["fidelity"] == result.fidelity and data["history"] == list(result.history)
    assert nc.PulseSequence.from_json_dict(data["sequence"]) == result.best_sequence


# -- benchmark reproductions (session-scoped search fixtures) ----------------


def test_up_acceptance_configuration(up_short_result):
    assert up_short_result.fidelity >= 0.99
    assert up_short_result.total_duration_us <= 10.0


def test_u90_reaches_benchmark_fidelity(u90_result):
    assert u90_result.fidelity >= 0.95


def test_table_three_pattern(table3_rows):
    by_n = {row["n_pulses"]: row for row in table3_rows}
    assert by_n[5]["fidelity"] >= 0.99
    assert by_n[5]["fidelity"] > by_n[3]["fidelity"]
    assert all(row["table"] == "III" for row in table3_rows)


def test_switched_population_transfer_is_poor(up_switched_result, up_free3_result):
    assert up_switched_result.fidelity <= 0.75
    assert up_free3_result.fidelity >= 0.99
    # dominance gap between free and switched control for the transfer
    assert up_free3_result.fidelity - up_switched_result.fidelity >= 0.2


def test_table_one_rows(paper):
    rows = nc.reproduce_tables("I")
    by_key = {(r["target"], r["rabi_mhz"]): r for r in rows}
    assert by_key[("u_p", 0.5)]["fidelity"] >= 0.99
    assert by_key[("u_p", 0.5)]["duration_us"] <= 10.0
    assert by_key[("u_p", 10.0)]["fidelity"] >= 0.99
    assert by_key[("u_90", 0.5)]["fidelity"] >= 0.95
    assert by_key[("u_90", 10.0)]["fidelity"] >= 0.97


def test_table_two_rows(paper):
    rows = nc.reproduce_tables("II")
    by_key = {(r["target"], r["rabi_mhz"]): r for r in rows}
    assert by_key[("u_p", 0.5)]["fidelity"] <= 0.75
    assert by_key[("u_p", 10.0)]["fidelity"] <= 0.75
    # switched control still synthesizes the pseudo-Hadamard well
    assert by_key[("u_90", 0.5)]["fidelity"] >= 0.9
    assert all(r["mode"] == nc.MODE_SWITCHED for r in rows)


def test_reproduce_tables_validates_name():
    with pytest.raises(ValueError):
        nc.reproduce_tables("IV")
