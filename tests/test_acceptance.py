"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as `pytest tests/test_acceptance.py -v -s`.  The stochastic criteria use
the session-scoped seeded optimizations from conftest (the default budget,
best of 16 restarts).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import nvctrl as nc
from nvctrl.signals import top_peaks
from tests_support import fwhm, random_hamiltonian, random_sequence, trotter_sequence


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_frequency_closure(paper):
    start = time.monotonic()
    nu_c, nu_minus, nu_plus = nc.nuclear_frequencies(paper)
    assert nu_c == pytest.approx(0.159, abs=0.002)
    assert nu_minus == pytest.approx(0.111, abs=0.002)
    assert nu_plus == pytest.approx(0.328, abs=0.002)
    h = nc.build_hamiltonian_subspace(paper).matrix
    w0 = np.linalg.eigvalsh(h[:2, :2])
    wm = np.linalg.eigvalsh(h[2:, 2:])
    assert abs((w0[1] - w0[0]) - nu_c) < 1e-9
    assert abs((wm[1] - wm[0]) - nu_minus) < 1e-9
    hp = (paper.a_zz - nu_c) * np.array([[0.5, 0], [0, -0.5]]) + paper.a_zx * np.array(
        [[0, 0.5], [0.5, 0]]
    )
    wp = np.linalg.eigvalsh(hp)
    assert abs((wp[1] - wp[0]) - nu_plus) < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"(nu_C, nu-, nu+) = ({nu_c:.4f}, {nu_minus:.4f}, {nu_plus:.4f}) MHz, "
              f"eigen-gap closure < 1e-9, {elapsed:.3f} s")


def test_criterion_2_angle_closure(paper):
    start = time.monotonic()
    _, theta_minus = nc.quantization_angles(paper)
    assert theta_minus == pytest.approx(86.0, abs=1.0)
    _, theta_strong = nc.quantization_angles(replace(paper, nu_c_override=0.3))
    assert theta_strong == pytest.approx(36.6, abs=0.1)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"theta_minus = {theta_minus:.2f} deg at 14.8 mT, "
              f"{theta_strong:.2f} deg at nu_C = 0.3 MHz, {elapsed:.3f} s")


def test_criterion_3_optimizer_reproduction(
    up_short_result, u90_result, table3_rows, up_switched_result, up_free3_result
):
    assert up_short_result.fidelity >= 0.99
    assert up_short_result.total_duration_us <= 10.0
    assert u90_result.fidelity >= 0.95
    by_n = {row["n_pulses"]: row["fidelity"] for row in table3_rows}
    assert by_n[5] >= 0.99
    assert by_n[5] > by_n[3]
    assert up_switched_result.fidelity <= 0.75
    assert up_free3_result.fidelity >= 0.99
    report(
        3,
        "population transfer {:.4f} @ {:.2f} us; pseudo-Hadamard {:.4f}; "
        "stronger-field pattern n=5 {:.4f} > n=3 {:.4f}; switched {:.3f} vs free {:.4f}".format(
            up_short_result.fidelity,
            up_short_result.total_duration_us,
            u90_result.fidelity,
            by_n[5],
            by_n[3],
            up_switched_result.fidelity,
            up_free3_result.fidelity,
        ),
    )


def test_criterion_4_robustness_suite(robust_results):
    thresholds = {"u_c": 0.92, "u_c_dagger": 0.92, "u_p": 0.95, "u_90": 0.89}
    values = {}
    for name, threshold in thresholds.items():
        values[name] = robust_results[name].robust_fidelity
        assert values[name] >= threshold, f"{name}: {values[name]:.4f} < {threshold}"
    report(4, "robust fidelities " + ", ".join(f"{k} {v:.4f}" for k, v in values.items()))


def test_criterion_5_fid_equivalence_and_spectra(paper):
    grid = np.linspace(0.0, 299.0, 300)
    worst = 0.0
    for kind, fn in (("uc", nc.fid_uc), ("uc_prime", nc.fid_uc_prime)):
        simulated = fn(paper, None, None, grid)
        closed = nc.analytic_fid(kind, paper, grid)
        worst = max(worst, float(np.max(np.abs(simulated.signal - closed.signal))))
    assert worst < 1e-10

    nu_c, nu_minus, nu_plus = nc.nuclear_frequencies(paper)
    s200 = nc.spectrum_from_fid(nc.fid_uc(paper))
    peaks = sorted(f for f, _ in top_peaks(s200, 2))
    assert peaks[0] == pytest.approx(nu_minus, abs=s200.resolution_mhz)
    assert peaks[1] == pytest.approx(nu_c, abs=s200.resolution_mhz)

    s300 = nc.spectrum_from_fid(nc.fid_uc_prime(paper))
    peaks = sorted(f for f, _ in top_peaks(s300, 2))
    assert peaks[0] == pytest.approx(nu_minus, abs=s300.resolution_mhz)
    assert peaks[1] == pytest.approx(nu_plus, abs=s300.resolution_mhz)

    w200, w300 = fwhm(s200, nu_minus), fwhm(s300, nu_minus)
    assert w300 < w200
    report(5, f"analytic-numeric max deviation {worst:.2e}; peak pairs within one bin; "
              f"linewidth {w300*1e3:.2f} kHz (300 us) < {w200*1e3:.2f} kHz (200 us)")


def test_criterion_6_amplitude_ratio_pipeline():
    est = nc.estimate_experimental_fidelities(0.13, 0.11, 0.20, 0.7)
    assert est.f_180 == pytest.approx(0.92, abs=0.005)
    assert est.f_u90 == pytest.approx(0.74, abs=0.005)
    assert est.f_uc == pytest.approx(0.91, abs=0.005)
    report(6, f"(F_180, F_U90, F_Uc) = ({est.f_180:.3f}, {est.f_u90:.3f}, {est.f_uc:.3f})")


def test_criterion_7_polarization_model(paper, robust_results):
    model = nc.paper_polarization_model()
    design = np.concatenate([np.linspace(0.0, 6.0, 60), np.linspace(6.5, 120.0, 140)])
    clean = nc.polarization_curve(model, design)
    fit = nc.fit_polarization(np.column_stack([design, clean]))
    for got, want in (
        (fit.c0, model.c0),
        (fit.c1, model.c1),
        (fit.c2, model.c2),
        (fit.pump_rate_per_us, model.pump_rate_per_us),
        (fit.gamma_per_us, model.gamma_per_us),
    ):
        assert got == pytest.approx(want, rel=0.01)

    rng = np.random.default_rng(2024)
    for _ in range(20):
        noisy = clean + rng.normal(0.0, 0.01, size=design.size)
        noisy_fit = nc.fit_polarization(np.column_stack([design, noisy]))
        for got, want in (
            (noisy_fit.c0, model.c0),
            (noisy_fit.c1, model.c1),
            (noisy_fit.c2, model.c2),
            (noisy_fit.pump_rate_per_us, model.pump_rate_per_us),
            (noisy_fit.gamma_per_us, model.gamma_per_us),
        ):
            assert got == pytest.approx(want, rel=0.05)

    outcome = nc.polarization_protocol_sim(paper, robust_results["u_p"].best_sequence)
    assert outcome.polarization >= 0.95
    report(7, f"fit recovery within 1%/5%; protocol polarization p = "
              f"{outcome.polarization:.4f} with the robust transfer sequence")


def test_criterion_8_property_suites(paper):
    rng = np.random.default_rng(20260809)

    # Hermiticity of randomized Hamiltonians
    for _ in range(100):
        p = nc.SystemParams(
            a_zz=rng.uniform(-1, 1), a_zx=rng.uniform(-1, 1), nu_c_override=rng.uniform(0.01, 1)
        )
        m = nc.build_hamiltonian_subspace(p).matrix
        assert np.linalg.norm(m - m.conj().T) <= 1e-12 * max(np.linalg.norm(m), 1.0)

    # Unitarity of randomized sequence propagators
    for _ in range(100):
        h = random_hamiltonian(rng)
        seq = random_sequence(rng)
        u = nc.sequence_propagator(h, seq)
        assert np.linalg.norm(u @ u.conj().T - np.eye(4)) <= 1e-10

    # Fine-step product oracle equivalence
    for _ in range(100):
        h = random_hamiltonian(rng)
        seq = random_sequence(rng, n_segments=3, max_us=1.5)
        u = nc.sequence_propagator(h, seq)
        assert np.linalg.norm(u - trotter_sequence(h, seq)) < 1e-7

    # search determinism: a repeat with the same seed
    problem = nc.ControlProblem(
        params=paper, target=nc.build_target("u_90", paper, 0.5), n_pulses=2, rabi_mhz=0.5
    )
    cfg = nc.GaConfig(restarts=16, seed=7, polish_evals=100)
    results = [nc.optimize(problem, cfg) for _ in range(2)]
    assert results[0].best_sequence == results[1].best_sequence
    assert results[0].fidelity == results[1].fidelity
    assert results[0].history == results[1].history

    # fidelity bounds and phase invariance
    from scipy.linalg import expm

    for _ in range(100):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u1 = expm(-1j * (a + a.conj().T) / 2.0)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u2 = expm(-1j * (b + b.conj().T) / 2.0)
        f = nc.gate_fidelity(u1, u2)
        assert 0.0 <= f <= 1.0 + 1e-12
        alpha = rng.uniform(0, 2 * math.pi)
        assert nc.gate_fidelity(np.exp(1j * alpha) * u1, u1) == pytest.approx(1.0, abs=1e-10)

    report(8, "hermiticity, unitarity, fine-step oracle (1e-7), search repeat "
              "determinism, fidelity bounds and phase invariance on randomized instances")
