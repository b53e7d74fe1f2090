import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvctrl as nc
from nvctrl import propagation
from nvctrl.errors import InvariantViolation
from nvctrl.propagation import Delay, Pulse, _evolve, _propagators
from nvctrl.spin_model import TWO_PI
from tests_support import build_hamiltonian_ec, oracle_bloch, random_hamiltonian, random_sequence, trotter_sequence

finite = dict(allow_nan=False, allow_infinity=False)


def zero_hamiltonian():
    return nc.Hamiltonian(np.zeros((4, 4), dtype=complex))


def one_segment(h, seg, rabi_mhz=0.5):
    """Propagator of a single delay or pulse."""
    return nc.sequence_propagator(h, nc.PulseSequence(rabi_mhz, (seg,)))


def test_free_propagator_zero_time_is_identity(h_sub):
    assert np.allclose(one_segment(h_sub, Delay(0.0)), np.eye(4), atol=1e-14)


def test_free_propagator_diagonal_hamiltonian():
    diag = np.array([0.3, -0.1, 0.7, 0.0])
    h = nc.Hamiltonian(np.diag(diag).astype(complex))
    tau = 1.7
    expected = np.diag(np.exp(-1j * TWO_PI * diag * tau))
    assert np.allclose(one_segment(h, Delay(tau)), expected, atol=1e-14)


def test_free_propagator_matches_fine_step_oracle(paper, h_sub):
    tau = 1.0 / (2.0 * abs(paper.a_zz))
    seq = nc.PulseSequence(0.5, (Delay(tau),))
    u = nc.sequence_propagator(h_sub, seq)
    assert np.linalg.norm(u - trotter_sequence(h_sub, seq)) < 1e-8


def test_free_propagator_rejects_negative_time():
    with pytest.raises(ValueError):
        nc.PulseSequence(0.5, (Delay(-0.1),))


def test_pulse_propagator_bare_pi_rotation():
    u = one_segment(zero_hamiltonian(), Pulse(1.0, 0.0))
    # flip angle 2*pi*0.5*1 = pi about x on the electron pseudo-spin
    expected = np.kron(np.array([[0.0, -1j], [-1j, 0.0]]), np.eye(2))
    assert np.allclose(u, expected, atol=1e-12)


def test_pulse_propagator_zero_time(h_sub):
    assert np.allclose(one_segment(h_sub, Pulse(0.0, 1.0)), np.eye(4), atol=1e-14)


def test_pulse_propagator_matches_fine_step_oracle(h_sub):
    seq = nc.PulseSequence(0.5, (Pulse(0.3, math.pi / 2.0),))
    u = nc.sequence_propagator(h_sub, seq)
    assert np.linalg.norm(u - trotter_sequence(h_sub, seq)) < 1e-8


def test_pulse_propagator_dimension_mismatch(paper):
    """The drive acts on the 4-dim subspace: a pulse under the 6-dim
    electron-carbon Hamiltonian is refused, while a delay propagates."""
    h6 = build_hamiltonian_ec(paper)
    with pytest.raises(ValueError, match="pulse propagation requires the 4-dim subspace Hamiltonian"):
        one_segment(h6, Pulse(1.0, 0.0))
    assert one_segment(h6, Delay(1.0)).shape == (6, 6)


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_batched_core_matches_scipy_expm(dim):
    """The one eigendecomposition propagator against scipy's Pade expm."""
    from scipy.linalg import expm

    rng = np.random.default_rng(dim)
    times = np.array([0.0, 0.013, 0.5, 1.7, 12.0])
    for _ in range(10):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2.0
        batch = _propagators(h, times)
        assert batch.shape == (times.size, dim, dim)
        for t, u in zip(times, batch):
            assert np.linalg.norm(u - expm(-1j * TWO_PI * h * t)) < 1e-10


def test_sequence_propagator_empty_is_identity(h_sub):
    assert np.allclose(nc.sequence_propagator(h_sub, nc.PulseSequence(0.5, ())), np.eye(4))


def test_sequence_propagator_single_delay(h_sub):
    from scipy.linalg import expm

    seq = nc.PulseSequence(0.5, (Delay(2.3),))
    assert np.allclose(nc.sequence_propagator(h_sub, seq), expm(-1j * TWO_PI * h_sub.matrix * 2.3))


def test_sequence_drive_only_inverse():
    """With no static Hamiltonian, the reversed sequence with opposite phases
    undoes the original."""
    h0 = zero_hamiltonian()
    seq = nc.PulseSequence(0.5, (Pulse(0.4, 0.3), Delay(1.0), Pulse(1.3, 2.0)))
    inverse = nc.PulseSequence(
        0.5, (Pulse(1.3, 2.0 + math.pi), Delay(1.0), Pulse(0.4, 0.3 + math.pi))
    )
    u = nc.sequence_propagator(h0, inverse) @ nc.sequence_propagator(h0, seq)
    assert np.allclose(u, np.eye(4), atol=1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_propagators_unitary(seed):
    rng = np.random.default_rng(seed)
    h = random_hamiltonian(rng)
    seq = random_sequence(rng)
    u = nc.sequence_propagator(h, seq)
    assert np.linalg.norm(u @ u.conj().T - np.eye(4)) <= 1e-10


@given(st.integers(0, 2**31 - 1), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_sequence_composition(seed, cut):
    rng = np.random.default_rng(seed)
    h = random_hamiltonian(rng)
    seq = random_sequence(rng, n_segments=4)
    left = nc.PulseSequence(seq.rabi_mhz, seq.segments[:cut])
    right = nc.PulseSequence(seq.rabi_mhz, seq.segments[cut:])
    whole = nc.sequence_propagator(h, seq)
    split = nc.sequence_propagator(h, right) @ nc.sequence_propagator(h, left)
    assert np.linalg.norm(whole - split) <= 1e-10


def test_sequence_matches_trotter_oracle_bulk():
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = random_hamiltonian(rng)
        seq = random_sequence(rng, n_segments=3, max_us=1.5)
        u = nc.sequence_propagator(h, seq)
        assert np.linalg.norm(u - trotter_sequence(h, seq)) < 1e-7


def test_evolve_identity(paper):
    rho = nc.DensityState(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    out = _evolve(np.eye(4, dtype=complex)[None], rho.matrix)
    assert out.shape == (1, 4, 4)
    assert np.allclose(out[0], rho.matrix)


def test_evolve_preserves_purity_and_spectrum(h_sub):
    rng = np.random.default_rng(3)
    ket = rng.normal(size=4) + 1j * rng.normal(size=4)
    ket /= np.linalg.norm(ket)
    rho = nc.DensityState(np.outer(ket, ket.conj()))
    out = nc.DensityState(_evolve(one_segment(h_sub, Delay(1.2))[None], rho.matrix)[0])
    assert out.purity() == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(
        np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix), atol=1e-10
    )


def test_evolve_optimized_coherence_transfer(paper, robust_results):
    """The robust coherence-transfer sequence carries rho0 close to its
    target state."""
    from nvctrl.fidelity import rho0_state, rho_c_state

    seq = robust_results["u_c"].best_sequence
    u = nc.sequence_propagator(nc.build_hamiltonian_subspace(paper), seq)
    rho = nc.DensityState(u @ rho0_state().matrix @ u.conj().T)
    assert nc.state_fidelity(rho, rho_c_state(paper)) >= 0.95


def test_trajectory_start_row_of_reference_states(paper, h_sub):
    """The t = 0 row of a trajectory holds the initial state's Bloch
    components: the closed forms, and the trace oracle's values."""
    from nvctrl.fidelity import rho0_state, rho_c_state, rho_p_state

    def start(rho):
        row = nc.trajectory(h_sub, nc.PulseSequence(0.5, ()), rho)[0]
        assert row[1:4] == pytest.approx(oracle_bloch(rho, "electron"), abs=1e-12)
        assert row[4:7] == pytest.approx(oracle_bloch(rho, "carbon"), abs=1e-12)
        return tuple(row[1:4]), tuple(row[4:7])

    e, c = start(rho0_state())
    assert e == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)
    assert c == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    e, c = start(rho_p_state())
    assert e == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
    assert c == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    # tracing the coherence state gives (-cos(theta)/2, 1/2, sin(theta)/2):
    # norm sqrt(1/2) regardless of the tilt angle
    theta = math.radians(nc.quantization_angles(paper)[1])
    _, (x, y, z) = start(rho_c_state(paper))
    assert (x, y, z) == pytest.approx(
        (-math.cos(theta) / 2.0, 0.5, math.sin(theta) / 2.0), abs=1e-12
    )
    assert math.hypot(x, math.hypot(y, z)) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert y > 0 and z > 0


def test_trajectory_empty_sequence(h_sub):
    from nvctrl.fidelity import rho0_state

    rows = nc.trajectory(h_sub, nc.PulseSequence(0.5, ()), rho0_state())
    assert rows.shape == (1, 7)
    t, e_x, e_y, e_z, c_x, c_y, c_z = rows[0]
    assert t == 0.0
    assert e_z == pytest.approx(1.0)


def test_trajectory_endpoint_matches_sequence_propagator(h_sub):
    from nvctrl.fidelity import rho0_state

    seq = nc.PulseSequence(0.5, (Delay(0.37), Pulse(0.81, 1.1), Delay(0.2)))
    rows = nc.trajectory(h_sub, seq, rho0_state(), dt_us=0.05)
    assert rows[-1, 0] == pytest.approx(seq.total_duration_us, abs=1e-9)
    # every sample is a physical state: both Bloch vectors inside the sphere
    assert np.all(np.linalg.norm(rows[:, 1:4], axis=1) <= 1.0 + 1e-9)
    assert np.all(np.linalg.norm(rows[:, 4:7], axis=1) <= 1.0 + 1e-9)
    u = nc.sequence_propagator(h_sub, seq)
    final = nc.DensityState(u @ rho0_state().matrix @ u.conj().T)
    assert rows[-1, 1:4] == pytest.approx(oracle_bloch(final, "electron"), abs=1e-10)
    assert rows[-1, 4:7] == pytest.approx(oracle_bloch(final, "carbon"), abs=1e-10)


def test_trajectory_endpoint_matches_trotter_oracle(h_sub):
    from nvctrl.fidelity import rho0_state

    rng = np.random.default_rng(11)
    for _ in range(5):
        seq = random_sequence(rng, n_segments=4, max_us=1.5)
        end = nc.trajectory(h_sub, seq, rho0_state(), dt_us=0.1)[-1]
        u = trotter_sequence(h_sub, seq)
        final = nc.DensityState(u @ rho0_state().matrix @ u.conj().T)
        assert end[0] == pytest.approx(seq.total_duration_us, abs=1e-9)
        assert end[1:4] == pytest.approx(oracle_bloch(final, "electron"), abs=1e-9)
        assert end[4:7] == pytest.approx(oracle_bloch(final, "carbon"), abs=1e-9)


def test_trajectory_carbon_precession_frequency(paper, h_sub):
    """A pure m_S = 0 coherence rotates at nu_C: locate the peak of the DFT
    of the sampled transverse component."""
    from nvctrl.fidelity import s0_ket

    ket = np.zeros(4, dtype=complex)
    ket[:2] = s0_ket()
    rho = nc.DensityState(np.outer(ket, ket.conj()))
    dt = 0.25
    n = 256
    seq = nc.PulseSequence(0.5, (Delay(n * dt),))
    x = nc.trajectory(h_sub, seq, rho, dt_us=dt)[:n, 4]
    spectrum = np.abs(np.fft.rfft(x - x.mean(), n=8 * n))
    freqs = np.fft.rfftfreq(8 * n, d=dt)
    peak = freqs[np.argmax(spectrum)]
    assert peak == pytest.approx(paper.nu_c, abs=1.0 / (8 * n * dt))


def test_energy_conserved_during_free_evolution(h_sub):
    from nvctrl.fidelity import rho_c_state

    rho = rho_c_state(nc.SystemParams())
    taus = np.arange(0.0, 5.0 + 1e-9, 0.5)
    states = _evolve(np.stack([one_segment(h_sub, Delay(tau)) for tau in taus]), rho.matrix)
    energies = np.einsum("ij,tji->t", h_sub.matrix, states).real
    assert np.ptp(energies) < 1e-10


def test_trajectory_sample_bound(monkeypatch, h_sub):
    """The sample count is fixed before any state is built: exactly the
    bound passes, one more sample raises, and so do segments whose step
    count would not fit in memory."""
    from nvctrl.fidelity import rho0_state

    monkeypatch.setattr(propagation, "_MAX_TRAJECTORY_SAMPLES", 11)
    rows = nc.trajectory(h_sub, nc.PulseSequence(0.5, (Delay(1.0),)), rho0_state(), dt_us=0.1)
    assert rows.shape == (11, 7)
    for seq, dt in (
        (nc.PulseSequence(0.5, (Delay(1.05),)), 0.1),
        (nc.PulseSequence(0.5, (Delay(0.5), Pulse(0.55, 0.0))), 0.1),
        (nc.PulseSequence(0.5, (Delay(1e20),)), 0.01),
        (nc.PulseSequence(0.5, (Pulse(1e300, 0.0),)), 1e-300),
    ):
        with pytest.raises(ValueError, match="samples"):
            nc.trajectory(h_sub, seq, rho0_state(), dt_us=dt)


def test_density_state_validation():
    def mixed(off_diagonal):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = m[1, 0] = off_diagonal
        return m

    # the last has purity 0.5 if its Hermiticity error, which overflows, goes unseen
    for bad, message in (
        (np.diag([0.7, 0.5, 0.0, 0.0]), "trace"),
        (np.diag([1.5, -0.5, 0.0, 0.0]), "positive"),
        (np.diag([np.nan, 1.0]), "finite"),
        (mixed(np.nan), "finite"),
        (mixed(np.inf), "finite"),
        ([[0.5, 1e200], [0, 0.5]], "Hermitian"),
    ):
        with pytest.raises(ValueError, match=message):
            nc.DensityState(bad)


def test_non_unitary_core_fails_the_postcondition(monkeypatch, h_sub):
    """A propagation core whose phase factors have magnitude 1.001 cannot
    pass the unitarity check of sequence_propagator."""
    core = propagation._propagators
    monkeypatch.setattr(propagation, "_propagators", lambda h, times: 1.001 * core(h, times))
    seq = nc.PulseSequence(0.5, (Delay(0.37), Pulse(0.81, 1.1)))
    with pytest.raises(InvariantViolation):
        nc.sequence_propagator(h_sub, seq)


def test_pulse_sequence_validation_and_phases():
    with pytest.raises(ValueError):
        nc.PulseSequence(0.5, (Delay(-1.0),))
    seq = nc.PulseSequence(0.5, (Pulse(1.0, -math.pi),))
    assert 0.0 <= seq.pulses()[0].phase_rad < TWO_PI
    assert seq.total_duration_us == 1.0


@pytest.mark.parametrize("phase", [-1e-17, -5e-324, -0.0])
def test_phase_just_below_zero_wraps_to_zero(phase):
    """A phase whose remainder mod 2pi rounds up to 2pi is stored as 0.0,
    which the JSON round trip keeps."""
    seq = nc.PulseSequence(0.5, (Pulse(1.0, phase),))
    stored = seq.pulses()[0].phase_rad
    assert stored == 0.0 and math.copysign(1.0, stored) == 1.0
    assert nc.PulseSequence.from_json_dict(seq.to_json_dict()).pulses()[0].phase_rad == stored


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_pulse_sequence_rejects_non_finite_values(value):
    for rabi, segments in (
        (value, ()),
        (0.5, (Delay(value),)),
        (0.5, (Pulse(value, 0.0),)),
        (0.5, (Delay(1.0), Pulse(1.0, value))),
    ):
        with pytest.raises(ValueError, match="finite"):
            nc.PulseSequence(rabi, segments)


duration = st.floats(min_value=0.0, max_value=50.0, **finite)
phase = st.floats(min_value=0.0, max_value=TWO_PI - 1e-9, **finite)
segment = st.one_of(
    st.builds(Delay, duration),
    st.builds(Pulse, duration, phase),
)


@given(st.floats(min_value=0.01, max_value=20.0, **finite), st.lists(segment, max_size=8))
@settings(max_examples=100, deadline=None)
def test_pulse_sequence_json_round_trip_bit_exact(rabi, segments):
    import json

    seq = nc.PulseSequence(rabi, tuple(segments))
    restored = nc.PulseSequence.from_json_dict(json.loads(json.dumps(seq.to_json_dict())))
    assert restored == seq


def test_pulse_sequence_file_round_trip(tmp_path):
    seq = nc.PulseSequence(0.5, (Delay(0.1), Pulse(1.234567890123456, 0.987654321)))
    path = tmp_path / "seq.json"
    seq.save(path)
    assert nc.PulseSequence.load(path) == seq
