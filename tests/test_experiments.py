import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvctrl as nc
from nvctrl import experiments
from nvctrl.errors import NoConvergence
from nvctrl.experiments import default_tau_grid, ideal_reset
from nvctrl.fidelity import u_t_sequence
from nvctrl.signals import top_peaks
from nvctrl.spin_model import nuclear_block_hamiltonians
from tests_support import fwhm, oracle_fid, random_sequence

finite = dict(allow_nan=False, allow_infinity=False)

GRID_300 = np.linspace(0.0, 299.0, 300)


def test_analytic_fid_reference_points(paper):
    trace = nc.analytic_fid("uc", paper, [0.0, 1.0, 2.0])
    assert trace.signal[0] == pytest.approx(0.5, abs=1e-15)
    prime = nc.analytic_fid("uc_prime", paper, default_tau_grid(300.0))
    assert prime.signal[0] == pytest.approx(0.5, abs=1e-15)
    # cosine means die out over a long record
    assert prime.signal.mean() == pytest.approx(0.25, abs=0.01)


@given(
    st.floats(min_value=-1.0, max_value=1.0, **finite),
    st.floats(min_value=0.01, max_value=1.0, **finite),
    st.floats(min_value=0.01, max_value=1.0, **finite),
)
@settings(max_examples=100, deadline=None)
def test_analytic_fid_signal_bounds(a_zz, a_zx, nu_c):
    p = nc.SystemParams(a_zz=a_zz, a_zx=a_zx, nu_c_override=nu_c)
    for kind in ("uc", "uc_prime"):
        trace = nc.analytic_fid(kind, p, np.linspace(0.0, 57.0, 191))
        assert np.all(trace.signal >= -1e-12)
        assert np.all(trace.signal <= 0.5 + 1e-12)


def test_analytic_fid_rejects_unknown_kind(paper):
    with pytest.raises(ValueError):
        nc.analytic_fid("other", paper, [0.0, 1.0])


@pytest.mark.parametrize("step", [0.0, -1.0])
def test_default_tau_grid_rejects_a_step_that_is_not_positive(step):
    """Checked before np.arange, which divides by the step."""
    with pytest.raises(ValueError, match="tau step must be positive"):
        default_tau_grid(200.0, step)


def test_fid_uc_ideal_matches_closed_form(paper):
    trace = nc.fid_uc(paper, None, None, GRID_300)
    reference = nc.analytic_fid("uc", paper, GRID_300)
    assert np.max(np.abs(trace.signal - reference.signal)) < 1e-10
    assert trace.signal[0] == pytest.approx(0.5, abs=1e-12)
    assert trace.protocol == "uc_readout"


def test_fid_uc_prime_ideal_matches_closed_form(paper):
    trace = nc.fid_uc_prime(paper, None, None, GRID_300)
    reference = nc.analytic_fid("uc_prime", paper, GRID_300)
    assert np.max(np.abs(trace.signal - reference.signal)) < 1e-10
    assert trace.signal[0] == pytest.approx(0.5, abs=1e-12)


def test_fid_uc_optimized_sequences_peak_at_transitions(paper, robust_results):
    seq_uc = robust_results["u_c"].best_sequence
    seq_dag = robust_results["u_c_dagger"].best_sequence
    trace = nc.fid_uc(paper, seq_uc, seq_dag)
    spec = nc.spectrum_from_fid(trace)
    nu_c, nu_minus, _ = nc.nuclear_frequencies(paper)
    peaks = sorted(f for f, _ in top_peaks(spec, 2))
    assert peaks[0] == pytest.approx(nu_minus, abs=spec.resolution_mhz)
    assert peaks[1] == pytest.approx(nu_c, abs=spec.resolution_mhz)


def test_fid_uc_prime_optimized_sequences_peak_at_transitions(paper, robust_results):
    seq_uc = robust_results["u_c"].best_sequence
    seq_dag = robust_results["u_c_dagger"].best_sequence
    trace = nc.fid_uc_prime(paper, seq_uc, seq_dag)
    spec = nc.spectrum_from_fid(trace)
    _, nu_minus, nu_plus = nc.nuclear_frequencies(paper)
    peaks = sorted(f for f, _ in top_peaks(spec, 2))
    assert peaks[0] == pytest.approx(nu_minus, abs=spec.resolution_mhz)
    assert peaks[1] == pytest.approx(nu_plus, abs=spec.resolution_mhz)


def test_fid_u90_subspace_zero_extremal_at_zero_delay(paper):
    trace = nc.fid_u90(paper, 0, None, None, np.linspace(0.0, 100.0, 101))
    assert trace.signal[0] == pytest.approx(1.0, abs=1e-10)
    assert trace.signal.min() < 0.05


@pytest.mark.parametrize("subspace,expected", [(0, "nu_c"), (-1, "nu_minus"), (+1, "nu_plus")])
def test_fid_u90_oscillation_frequencies(paper, subspace, expected):
    nu_c, nu_minus, nu_plus = nc.nuclear_frequencies(paper)
    nu = {"nu_c": nu_c, "nu_minus": nu_minus, "nu_plus": nu_plus}[expected]
    trace = nc.fid_u90(paper, subspace, None, None)
    spec = nc.spectrum_from_fid(trace)
    peak = top_peaks(spec, 1)[0][0]
    assert peak == pytest.approx(nu, abs=spec.resolution_mhz)
    assert trace.protocol == {0: "u90_ms0", -1: "u90_ms-1", +1: "u90_ms+1"}[subspace]


def test_fid_u90_with_readout_gate_keeps_frequencies(paper):
    seq_ut = u_t_sequence(paper, 0.5)
    nu_c, nu_minus, nu_plus = nc.nuclear_frequencies(paper)
    for subspace, nu in ((0, nu_c), (-1, nu_minus), (+1, nu_plus)):
        trace = nc.fid_u90(paper, subspace, None, seq_ut)
        spec = nc.spectrum_from_fid(trace)
        assert top_peaks(spec, 1)[0][0] == pytest.approx(nu, abs=spec.resolution_mhz)


def test_fid_u90_full_contrast_at_right_angle_tilt():
    """When the m_S = -1 axis lies exactly in the transverse plane, the
    180-degree transfer creates an equal-weight superposition and the signal
    oscillates with full contrast."""
    p = nc.SystemParams(a_zz=-0.152, nu_c_override=0.152)
    assert nc.quantization_angles(p)[1] == pytest.approx(90.0, abs=1e-12)
    _, nu_minus, _ = nc.nuclear_frequencies(p)
    period = 1.0 / nu_minus
    # extremes sit at odd quarter periods: the readout rotation converts the
    # sine component of the precession into population
    grid = np.unique(
        np.concatenate(
            [np.linspace(0.0, 3 * period, 400), (2 * np.arange(6) + 1) * period / 4.0]
        )
    )
    trace = nc.fid_u90(p, -1, None, None, grid)
    assert trace.signal.max() == pytest.approx(1.0, abs=1e-9)
    assert trace.signal.min() == pytest.approx(0.0, abs=1e-9)


def test_fid_u90_contrast_scales_with_tilt(paper):
    """Peak-to-peak amplitude of the transfer protocol equals sin(theta):
    projecting |up> onto the tilted eigenbasis leaves a sin(theta) precession
    amplitude, which the readout rotation maps onto population."""
    theta = math.radians(nc.quantization_angles(paper)[1])
    _, nu_minus, _ = nc.nuclear_frequencies(paper)
    period = 1.0 / nu_minus
    grid = np.unique(
        np.concatenate(
            [np.linspace(0.0, 2 * period, 500), (2 * np.arange(4) + 1) * period / 4.0]
        )
    )
    trace = nc.fid_u90(paper, -1, None, None, grid)
    assert trace.signal.max() - trace.signal.min() == pytest.approx(
        math.sin(theta), abs=1e-9
    )


def test_fid_u90_polarization_scales_signal(paper):
    full = nc.fid_u90(paper, 0, None, None, np.linspace(0.0, 50.0, 200))
    half = nc.fid_u90(
        paper, 0, None, None, np.linspace(0.0, 50.0, 200), initial_polarization=0.5
    )
    amp_full = full.signal.max() - full.signal.min()
    amp_half = half.signal.max() - half.signal.min()
    assert amp_half == pytest.approx(0.5 * amp_full, rel=1e-6)


def random_params(rng):
    return nc.SystemParams(
        b_mt=float(rng.uniform(1.0, 40.0)),
        a_zz=float(rng.uniform(-0.5, 0.5)),
        a_zx=float(rng.uniform(-0.5, 0.5)),
    )


def test_subspace_hamiltonian_is_block_diagonal_in_the_6_level_blocks():
    """The 4-level working Hamiltonian is blockdiag(h_zero, h_minus), so the
    FID protocols may precess in the 6-level blocks exactly."""
    rng = np.random.default_rng(21)
    for params in [nc.SystemParams()] + [random_params(rng) for _ in range(20)]:
        _, h_zero, h_minus = nuclear_block_hamiltonians(params)
        want = np.zeros((4, 4), dtype=complex)
        want[:2, :2], want[2:, 2:] = h_zero, h_minus
        assert np.abs(nc.build_hamiltonian_subspace(params).matrix - want).max() <= 1e-15


@pytest.mark.parametrize("protocol", ["uc", "uc_prime", 0, -1, +1])
def test_fid_protocols_match_expm_oracle(protocol):
    """Every sequence-driven FID protocol against an independent scipy-expm
    oracle, one delay at a time, for random sequences and parameters."""
    rng = np.random.default_rng(31)
    for params in (nc.SystemParams(), random_params(rng)):
        for _ in range(3):
            tau = np.sort(rng.uniform(0.0, 40.0, 6))
            prep, read = random_sequence(rng), random_sequence(rng)
            if protocol in ("uc", "uc_prime"):
                fid = nc.fid_uc if protocol == "uc" else nc.fid_uc_prime
                got, p = fid(params, prep, read, tau).signal, 0.0
            else:
                p = float(rng.uniform(-1.0, 1.0))
                got = nc.fid_u90(params, protocol, prep, read, tau, initial_polarization=p).signal
            assert np.abs(got - oracle_fid(params, protocol, tau, prep, read, p)).max() <= 1e-9


@pytest.mark.parametrize("protocol", ["uc", "uc_prime", 0, -1, +1])
def test_fid_evolved_in_chunks_is_bitwise_the_whole_grid(monkeypatch, paper, protocol):
    """Chunks of 1, 3 and 7 delays (the last one short) give the same bits
    as one pass over the whole grid, with and without sequences."""
    rng = np.random.default_rng(41)
    tau = np.sort(rng.uniform(0.0, 60.0, 31))
    prep, read = random_sequence(rng), random_sequence(rng)
    if protocol in ("uc", "uc_prime"):
        fid = nc.fid_uc if protocol == "uc" else nc.fid_uc_prime
        runs = [lambda: fid(paper, None, None, tau), lambda: fid(paper, prep, read, tau)]
    else:
        runs = [lambda: nc.fid_u90(paper, protocol, None, None, tau, initial_polarization=0.3),
                lambda: nc.fid_u90(paper, protocol, prep, read, tau, initial_polarization=-0.6)]
    whole = [run().signal.tobytes() for run in runs]
    for chunk in (1, 3, 7):
        monkeypatch.setattr(experiments, "_FID_CHUNK", chunk)
        assert [run().signal.tobytes() for run in runs] == whole


def test_spectrum_pure_cosine_peak_location():
    tau = np.arange(0.0, 200.0, 1.0)
    signal = 0.3 + 0.2 * np.cos(2 * math.pi * 0.159 * tau)
    spec = nc.spectrum_from_fid(nc.FidTrace(tau, signal), zerofill_factor=4)
    assert top_peaks(spec, 1)[0][0] == pytest.approx(0.159, abs=spec.resolution_mhz)


def test_spectrum_longer_record_narrower_line(paper):
    s200 = nc.spectrum_from_fid(nc.fid_uc(paper))
    s300 = nc.spectrum_from_fid(nc.fid_uc_prime(paper))
    _, nu_minus, _ = nc.nuclear_frequencies(paper)
    assert fwhm(s300, nu_minus) < fwhm(s200, nu_minus)


def test_spectrum_two_tone_amplitudes_comparable(paper):
    trace = nc.analytic_fid("uc", paper, default_tau_grid(200.0))
    spec = nc.spectrum_from_fid(trace)
    peaks = top_peaks(spec, 2)
    assert len(peaks) == 2
    amps = sorted(a for _, a in peaks)
    assert amps[1] / amps[0] == pytest.approx(1.0, abs=0.1)


def test_spectrum_resolution_metadata(paper):
    trace = nc.fid_uc(paper)
    spec = nc.spectrum_from_fid(trace, zerofill_factor=4)
    n = trace.tau_us.size
    assert spec.resolution_mhz == pytest.approx(1.0 / (4 * n * 1.0))
    assert spec.metadata["zerofill_factor"] == 4
    assert spec.metadata["record_length_us"] == pytest.approx(n * 1.0)


def test_spectrum_mean_subtraction_kills_dc(paper):
    spec = nc.spectrum_from_fid(nc.analytic_fid("uc", paper, default_tau_grid(200.0)))
    assert spec.amplitude[0] < 0.05 * spec.amplitude.max()


def test_spectrum_window_options(paper):
    trace = nc.fid_uc(paper)
    for window, kwargs in (("none", {}), ("hann", {}), ("exponential", {"exp_rate": 0.01})):
        spec = nc.spectrum_from_fid(trace, window=window, **kwargs)
        assert spec.metadata["window"] == window
    with pytest.raises(ValueError):
        nc.spectrum_from_fid(trace, window="hamming")
    with pytest.raises(ValueError):
        nc.spectrum_from_fid(trace, window="exponential")
    # a rate with another window would be recorded beside it but never applied
    for window in ("none", "hann"):
        with pytest.raises(ValueError, match="exp_rate"):
            nc.spectrum_from_fid(trace, window=window, exp_rate=0.01)


def test_spectrum_rejects_nonuniform_grid():
    tau = np.array([0.0, 1.0, 2.5, 3.0])
    trace = nc.FidTrace(tau, np.full(4, 0.25))
    with pytest.raises(ValueError, match="tau grid must be uniformly spaced"):
        nc.spectrum_from_fid(trace)


# -- polarization ------------------------------------------------------------


def test_polarization_curve_reference_points():
    model = nc.paper_polarization_model()
    assert nc.polarization_curve(model, [0.0])[0] == pytest.approx(0.30, abs=1e-12)
    assert nc.polarization_curve(model, [1e6])[0] == pytest.approx(model.c0, abs=1e-9)


def test_polarization_curve_max_matches_grid_oracle():
    model = nc.paper_polarization_model()
    d_star, p_star = nc.polarization_curve_max(model, 0.0, 50.0)
    # independent oracle: dense grid plus local bisection on the derivative
    grid = np.linspace(0.0, 50.0, 200001)
    values = nc.polarization_curve(model, grid)
    i = int(np.argmax(values))
    assert d_star == pytest.approx(grid[i], abs=1e-3)
    assert p_star == pytest.approx(values[i], abs=1e-9)
    assert p_star == pytest.approx(0.7464, abs=1e-3)


@pytest.mark.parametrize("d_max", [50.0, 1e6, 3e6, 1e308])
def test_polarization_curve_max_finds_the_peak_at_any_range(d_max):
    """The maximum near 2.4 us is found however far the range reaches; a
    grid over [0, d_max] steps past it from d_max = 3e6 us on."""
    model = nc.paper_polarization_model()
    d_star, p_star = nc.polarization_curve_max(model, 0.0, d_max)
    grid = np.linspace(0.0, 10.0, 100001)
    peak = nc.polarization_curve(model, grid).max()
    assert d_star == pytest.approx(2.4253, abs=1e-3)
    assert peak <= p_star <= peak + 1e-9


@pytest.mark.parametrize(
    "coefficients",
    [
        (0.31, 0.51, 0.50, 1.51, 0.022),  # interior maximum
        (0.31, 0.51, 0.50, 0.02, 0.5),  # stationary point is a minimum
        (0.31, 0.51, -0.50, 1.51, 0.022),  # no stationary point
        (0.31, 0.0, 0.50, 1.51, 0.022),  # one term only
        (0.31, 0.51, 0.50, 0.5, 0.25),  # equal rates
    ],
)
@pytest.mark.parametrize("d_range", [(0.0, 50.0), (0.0, 1.0), (5.0, 50.0)])
def test_polarization_curve_max_matches_a_dense_grid(coefficients, d_range):
    model = nc.PolarizationModel(*coefficients)
    d_star, p_star = nc.polarization_curve_max(model, *d_range)
    grid = np.linspace(*d_range, 200001)
    values = nc.polarization_curve(model, grid)
    assert d_range[0] <= d_star <= d_range[1]
    assert p_star == pytest.approx(nc.polarization_curve(model, [d_star])[0], abs=1e-15)
    assert values.max() <= p_star + 1e-15
    assert p_star <= values.max() + 1e-9


# synthetic sampling design: dense over the fast pump, extended to resolve the
# slow depolarization rate
FIT_DESIGN = np.concatenate([np.linspace(0.0, 6.0, 60), np.linspace(6.5, 120.0, 140)])


def test_fit_polarization_recovers_noiseless_parameters():
    model = nc.paper_polarization_model()
    d = FIT_DESIGN
    p = nc.polarization_curve(model, d)
    fit = nc.fit_polarization(np.column_stack([d, p]))
    assert fit.c0 == pytest.approx(model.c0, rel=0.01)
    assert fit.c1 == pytest.approx(model.c1, rel=0.01)
    assert fit.c2 == pytest.approx(model.c2, rel=0.01)
    assert fit.pump_rate_per_us == pytest.approx(model.pump_rate_per_us, rel=0.01)
    assert fit.gamma_per_us == pytest.approx(model.gamma_per_us, rel=0.01)


def test_fit_polarization_with_noise_twenty_trials():
    model = nc.paper_polarization_model()
    d = FIT_DESIGN
    clean = nc.polarization_curve(model, d)
    rng = np.random.default_rng(2024)
    for _ in range(20):
        noisy = clean + rng.normal(0.0, 0.01, size=d.size)
        fit = nc.fit_polarization(np.column_stack([d, noisy]))
        assert fit.c0 == pytest.approx(model.c0, rel=0.05)
        assert fit.c1 == pytest.approx(model.c1, rel=0.05)
        assert fit.c2 == pytest.approx(model.c2, rel=0.05)
        assert fit.pump_rate_per_us == pytest.approx(model.pump_rate_per_us, rel=0.05)
        assert fit.gamma_per_us == pytest.approx(model.gamma_per_us, rel=0.05)


def test_fit_polarization_constant_data_degenerates():
    d = np.linspace(0.0, 10.0, 12)
    p = np.full(12, 0.4)
    try:
        fit = nc.fit_polarization(np.column_stack([d, p]))
    except NoConvergence:
        return
    assert abs(fit.c1) < 1e-6 and abs(fit.c2) < 1e-6 or abs(fit.c1 - fit.c2) < 1e-6


def _trf_from(fit, d, p):
    """scipy's trust-region-reflective least squares, started from a fitted
    model with the same non-negative rates: the start and end parameters
    (c0, c1, c2, rate, gamma), the start residual and the end's squared
    residual."""
    from scipy.optimize import least_squares

    def resid(x):
        return x[0] - x[1] * np.exp(-x[3] * d) + x[2] * np.exp(-2.0 * x[4] * d) - p

    x0 = np.array([fit.c0, fit.c1, fit.c2, fit.pump_rate_per_us, fit.gamma_per_us])
    trf = least_squares(resid, x0, bounds=([-np.inf] * 3 + [0.0, 0.0], np.inf),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=2000)
    return x0, trf.x, resid(x0), 2.0 * trf.cost


def _fit_datasets():
    """The paper's curve on FIT_DESIGN, noiseless and at 50 noise draws,
    keyed "noiseless" and "noisy-0" to "noisy-49"."""
    clean = nc.polarization_curve(nc.paper_polarization_model(), FIT_DESIGN)
    rng = np.random.default_rng(2024)
    cases = {"noiseless": clean}
    for k in range(50):
        cases[f"noisy-{k}"] = clean + rng.normal(0.0, 0.01, FIT_DESIGN.size)
    return cases


_FIT_DATASETS = _fit_datasets()


@pytest.mark.parametrize("case", list(_FIT_DATASETS))
def test_fit_polarization_is_a_minimum_of_an_independent_least_squares(case):
    """TRF started from the fit moves no parameter by more than 1e-6
    relative."""
    p = _FIT_DATASETS[case]
    x0, x, _, _ = _trf_from(nc.fit_polarization(np.column_stack([FIT_DESIGN, p])), FIT_DESIGN, p)
    assert np.all(np.abs(x - x0) <= 1e-6 * np.abs(x0))


def _degenerate_cases():
    short = np.linspace(0.0, 10.0, 12)
    return {
        "constant": (short, np.full(12, 0.4)),
        "zero": (short, np.zeros(12)),
        # two distinct durations: every design has rank 2
        "two-durations": (np.repeat([0.0, 1.0], 3), np.array([0.1, 0.2, 0.3, 0.5, 0.6, 0.4])),
        # a short span, where the amplitudes grow large and nearly cancel
        "short-span": (np.linspace(0.0, 0.5, 8), np.linspace(0.1, 0.3, 8) ** 2),
    }


@pytest.mark.parametrize("case", sorted(_degenerate_cases()))
def test_fit_polarization_degenerate_data_fails_or_is_a_minimum(case):
    """A degenerate dataset ends in NoConvergence or in a fit whose squared
    residual TRF lowers by no more than its round-off: a few ulps of the
    terms summed into each residual."""
    d, p = _degenerate_cases()[case]
    try:
        fit = nc.fit_polarization(np.column_stack([d, p]))
    except NoConvergence:
        return
    x0, _, r, after = _trf_from(fit, d, p)
    terms = np.abs(x0[0]) + np.abs(x0[1]) * np.exp(-x0[3] * d) + np.abs(x0[2]) * np.exp(-2.0 * x0[4] * d) + np.abs(p)
    roundoff = np.linalg.norm(8.0 * np.finfo(float).eps * terms)
    assert r @ r - after <= 2.0 * np.linalg.norm(r) * roundoff + roundoff**2


def _grid_oracle(d, p):
    """The squared residual of each start-grid point's amplitudes, solved by
    lstsq one point at a time, in (rate, gamma) row-major order."""
    scores = []
    for rate in np.geomspace(1e-2, 30.0, 8):
        for gamma in np.geomspace(1e-4, 3.0, 8):
            design = np.column_stack([np.ones_like(d), -np.exp(-rate * d), np.exp(-2.0 * gamma * d)])
            r = design @ np.linalg.lstsq(design, p, rcond=None)[0] - p
            scores.append(r @ r)
    return np.array(scores)


def _grid_cases():
    """The fit datasets, the degenerate ones and 100 more noisy paper curves
    on FIT_DESIGN, which are perfbench's readout delays."""
    cases = {case: (FIT_DESIGN, p) for case, p in _FIT_DATASETS.items()} | _degenerate_cases()
    clean = nc.polarization_curve(nc.paper_polarization_model(), FIT_DESIGN)
    rng = np.random.default_rng(34)
    for k in range(100):
        cases[f"readout-{k}"] = (FIT_DESIGN, clean + rng.normal(0.0, 0.01, FIT_DESIGN.size))
    return cases


_GRID_CASES = _grid_cases()


def test_grid_start_is_the_per_point_lstsq_argmin():
    """The batched grid picks np.argmin of the per-point lstsq scores on 155
    datasets; on FIT_DESIGN every point is batched, and the batched residual
    norms lie within their stated bound of lstsq's."""
    for case, (d, p) in _GRID_CASES.items():
        scores = _grid_oracle(d, p)
        assert experiments._grid_start(d, p) == np.argmin(scores), case
        norm, bound, good = experiments._batched_grid_norms(d, p)
        if d is FIT_DESIGN:
            assert good.all(), case
        assert np.all(np.abs(norm - np.sqrt(scores))[good] <= bound[good]), case


@pytest.mark.parametrize("gram_cond", [1.0, 1e4])
def test_grid_start_with_the_lstsq_fallback_forced(monkeypatch, gram_cond):
    """With no point batched (bound 1), or only the better-conditioned ones
    (1e4), the pick is still the per-point lstsq argmin."""
    monkeypatch.setattr(experiments, "_GRAM_COND", gram_cond)
    batched = []
    for case, (d, p) in _GRID_CASES.items():
        batched.append(experiments._batched_grid_norms(d, p)[2].sum())
        assert experiments._grid_start(d, p) == np.argmin(_grid_oracle(d, p)), case
    if gram_cond == 1.0:
        assert max(batched) == 0
    else:
        assert any(0 < n < 64 for n in batched)


@pytest.mark.parametrize("scale", [1e200, -1.7e308])
def test_grid_start_past_float_range_is_the_lstsq_argmin(scale):
    """Residuals that overflow leave no batched point and a non-finite lstsq
    score, so lstsq scores the whole grid; the batched pass itself warns of
    nothing."""
    p = scale * _FIT_DATASETS["noisy-0"]
    with pytest.warns(RuntimeWarning):
        scores = _grid_oracle(FIT_DESIGN, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not experiments._batched_grid_norms(FIT_DESIGN, p)[2].any()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert experiments._grid_start(FIT_DESIGN, p) == np.argmin(scores)


@pytest.mark.parametrize("fit", ["polarization", "sinusoid"])
@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fits_reject_a_non_finite_sample_before_lapack(capfd, fit, column, bad):
    """A NaN or inf sample is a ValueError that names its column, and LAPACK
    prints nothing."""
    data = np.column_stack([FIT_DESIGN, _FIT_DATASETS["noisy-0"]])
    data[17, column] = bad
    name = {"polarization": ("d", "p"), "sinusoid": ("tau", "P")}[fit][column]
    with pytest.raises(ValueError, match=f"^the {name} column holds {bad!r} at sample 17"):
        if fit == "polarization":
            nc.fit_polarization(data)
        else:
            nc.fit_fid_amplitude(data, 0.158)
    assert capfd.readouterr() == ("", "")


def test_fit_polarization_needs_enough_points():
    with pytest.raises(ValueError):
        nc.fit_polarization(np.array([[0.0, 0.3], [1.0, 0.4]]))


def test_fit_fid_amplitude_consistent_with_analytic_trace():
    """Couplings chosen so the two protocol tones complete integer cycle
    counts over the record (4 and 3 cycles in 25 us); the tones and offset
    are then exactly orthogonal on the grid and each fitted amplitude is the
    closed-form 1/8."""
    p = nc.SystemParams(a_zz=-0.088, a_zx=0.096, nu_c_override=0.16)
    nu_c, nu_minus, _ = nc.nuclear_frequencies(p)
    assert nu_c == pytest.approx(0.16) and nu_minus == pytest.approx(0.12)
    tau = np.arange(0.0, 50.0, 0.5)
    trace = nc.analytic_fid("uc", p, tau)
    for nu in (nu_c, nu_minus):
        a, b, c = nc.fit_fid_amplitude(np.column_stack([tau, trace.signal]), nu)
        assert b == pytest.approx(0.125, abs=1e-6)
        # cosine = sine with a 90-degree phase
        assert math.cos(c) == pytest.approx(0.0, abs=1e-6)
    assert a == pytest.approx(0.25, abs=1e-6)


def test_fit_fid_amplitude_exact_recovery():
    tau = np.linspace(0.0, 40.0, 160)
    a, b, c = 0.25, 0.13, 0.4
    nu = 0.158
    data = np.column_stack([tau, a + b * np.sin(2 * math.pi * nu * tau + c)])
    fa, fb, fc = nc.fit_fid_amplitude(data, nu)
    assert fa == pytest.approx(a, abs=1e-9)
    assert fb == pytest.approx(b, abs=1e-9)
    assert fc == pytest.approx(c, abs=1e-9)


def test_fit_fid_amplitude_constant_data():
    tau = np.linspace(0.0, 40.0, 100)
    data = np.column_stack([tau, np.full(100, 0.3)])
    _, b, _ = nc.fit_fid_amplitude(data, 0.158)
    assert b == pytest.approx(0.0, abs=1e-12)


def test_fit_fid_amplitude_nonnegative_b():
    tau = np.linspace(0.0, 40.0, 100)
    data = np.column_stack([tau, 0.2 - 0.1 * np.sin(2 * math.pi * 0.158 * tau)])
    _, b, c = nc.fit_fid_amplitude(data, 0.158)
    assert b == pytest.approx(0.1, abs=1e-9)
    assert math.sin(c) == pytest.approx(math.sin(math.pi), abs=1e-6) or b >= 0


@pytest.mark.parametrize("tau", [np.full(8, 2.5), np.repeat([0.0, 1.5], 4)], ids=["one-delay", "two-delays"])
def test_fit_fid_amplitude_rejects_a_rank_deficient_design(tau):
    with pytest.raises(ValueError, match="rank deficient"):
        nc.fit_fid_amplitude(np.column_stack([tau, np.linspace(0.2, 0.3, 8)]), 0.158)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nu", [1e308, math.nan])
def test_fit_fid_amplitude_rejects_a_phase_past_float_range(nu):
    tau = np.linspace(0.0, 40.0, 100)
    with pytest.raises(ValueError, match="not finite"):
        nc.fit_fid_amplitude(np.column_stack([tau, np.full(100, 0.3)]), nu)


@pytest.mark.filterwarnings("error")
def test_exponential_window_past_float_range_keeps_only_the_first_sample(paper):
    """exp_rate * tau overflows to inf past the first sample, whose weights
    are then 0: the spectrum is that sample's flat transform."""
    trace = nc.analytic_fid("uc", paper, default_tau_grid(20.0))
    spec = nc.spectrum_from_fid(trace, window="exponential", exp_rate=1e308)
    first = trace.signal[0] - trace.signal.mean()
    np.testing.assert_allclose(spec.amplitude, abs(first), rtol=1e-15)


def test_estimate_experimental_fidelities_reference_values():
    est = nc.estimate_experimental_fidelities(0.13, 0.11, 0.20, 0.7)
    assert est.f_180 == pytest.approx(0.920, abs=0.005)
    assert est.f_u90 == pytest.approx(0.742, abs=0.005)
    assert est.f_uc == pytest.approx(0.910, abs=0.005)
    assert not est.unphysical


def test_estimate_experimental_fidelities_degenerate_and_flagged():
    est = nc.estimate_experimental_fidelities(0.2, 0.2, 0.2, 0.2 / 0.2)
    assert est.f_180 == pytest.approx(1.0)
    assert est.f_u90 == pytest.approx(1.0)
    assert est.f_uc == pytest.approx(1.0)
    flagged = nc.estimate_experimental_fidelities(0.1, 0.2, 0.2, 0.5)
    assert flagged.f_180 > 1.0
    assert flagged.unphysical
    with pytest.raises(ValueError, match="b0 must be positive"):
        nc.estimate_experimental_fidelities(0.0, 0.1, 0.1, 0.5)
    # b1 / b0 overflows to inf, and underflows to 0 under F_Uc's division
    with pytest.raises(ValueError, match="F_180 is not finite"):
        nc.estimate_experimental_fidelities(1e-308, 1e308, 1.0, 1.0)
    with pytest.raises(ValueError, match="F_Uc is not finite"):
        nc.estimate_experimental_fidelities(1e308, 1e-308, 1.0, 1.0)


def test_ideal_reset_preserves_carbon():
    rho = np.diag([0.3, 0.2, 0.4, 0.1]).astype(complex)
    out = ideal_reset(rho)
    assert np.trace(out).real == pytest.approx(1.0)
    assert out[0, 0] == pytest.approx(0.7)
    assert out[1, 1] == pytest.approx(0.3)
    assert np.allclose(out[2:, 2:], 0.0)


def test_polarization_protocol_ideal_swap(paper):
    """A perfect transfer |0,down> <-> |-1,up> polarizes the carbon fully."""
    u = np.eye(4, dtype=complex)[:, [0, 2, 1, 3]]
    outcome = nc.polarization_protocol_sim(paper, u)
    assert outcome.polarization == pytest.approx(1.0, abs=1e-12)
    assert outcome.peak_ratio == pytest.approx(1.0, abs=1e-12)


def test_polarization_protocol_identity_sequence(paper):
    outcome = nc.polarization_protocol_sim(paper, nc.PulseSequence(0.5, ()))
    assert outcome.polarization == pytest.approx(0.0, abs=1e-12)


def test_polarization_protocol_with_optimized_sequence(paper, robust_results):
    outcome = nc.polarization_protocol_sim(paper, robust_results["u_p"].best_sequence)
    assert outcome.polarization >= 0.95
    assert outcome.peak_ratio >= 0.9


def test_trajectory_of_optimized_transfer_polarizes_carbon(paper, robust_results):
    """Following the Bloch trajectory of the transfer sequence, the carbon
    ends close to the north pole."""
    from nvctrl.fidelity import rho0_state

    h = nc.build_hamiltonian_subspace(paper)
    seq = robust_results["u_p"].best_sequence
    rows = nc.trajectory(h, seq, rho0_state(), dt_us=0.05)
    assert rows[-1, 6] >= 0.95  # final c_z
