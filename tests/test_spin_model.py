import json
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import nvctrl as nc
from nvctrl.fidelity import rot_half
from nvctrl.signals import local_maxima
from nvctrl.spin_model import (
    GAMMA_C13_MHZ_PER_MT,
    SY2,
    build_hamiltonian_subspace_plus,
    nuclear_block_hamiltonians,
)
from tests_support import (
    A_N14_MHZ,
    D_SPLITTING_MHZ,
    GAMMA_E_MHZ_PER_MT,
    GAMMA_N14_MHZ_PER_MT,
    P_N14_MHZ,
    build_hamiltonian_ec,
    build_hamiltonian_full,
)

finite = dict(allow_nan=False, allow_infinity=False)

coupling = st.floats(min_value=-1.0, max_value=1.0, **finite)
frequency = st.floats(min_value=1e-3, max_value=1.0, **finite)


def random_params(a_zz, a_zx, nu_c):
    return nc.SystemParams(a_zz=a_zz, a_zx=a_zx, nu_c_override=nu_c)


def esr_carrier(p):
    """The m_S = 0 <-> -1 transition frequency at m_N = +1 with the 13C
    couplings dropped: D + nu_e - A_N."""
    return D_SPLITTING_MHZ + GAMMA_E_MHZ_PER_MT * p.b_mt - A_N14_MHZ


def axis_frame_blocks(p):
    """The m_S = +1 and -1 carbon blocks of the electron-carbon Hamiltonian,
    each conjugated by the y-rotation rot_half(SY2, theta) through its own
    quantization angle, and the norm that scales their tolerances."""
    m = build_hamiltonian_ec(p).matrix
    theta_plus, theta_minus = nc.quantization_angles(p)
    blocks = []
    for block, theta in ((m[0:2, 0:2], theta_plus), (m[4:6, 4:6], theta_minus)):
        r = rot_half(SY2, math.radians(theta))
        blocks.append(r.conj().T @ block @ r)
    return blocks, max(np.linalg.norm(m), 1.0)


def test_nuclear_frequencies_match_measured_values(paper):
    nu_c, nu_minus, nu_plus = nc.nuclear_frequencies(paper)
    assert nu_c == pytest.approx(0.159, abs=2e-3)
    assert nu_minus == pytest.approx(0.111, abs=2e-3)
    assert nu_plus == pytest.approx(0.328, abs=2e-3)


def test_nuclear_frequencies_isotropic_limit():
    p = nc.SystemParams(a_zz=-0.152, a_zx=0.0, nu_c_override=0.4)
    nu_c, nu_minus, nu_plus = nc.nuclear_frequencies(p)
    assert nu_minus == pytest.approx(abs(0.4 + (-0.152)), abs=1e-15)
    assert nu_plus == pytest.approx(abs(0.4 - (-0.152)), abs=1e-15)


def test_nuclear_frequency_stronger_field():
    p = nc.SystemParams(nu_c_override=0.3)
    _, nu_minus, _ = nc.nuclear_frequencies(p)
    assert nu_minus == pytest.approx(math.hypot(0.110, 0.148), abs=1e-12)
    # cross-check against the dense-diagonalization oracle
    w = np.linalg.eigvalsh(nc.build_hamiltonian_subspace(p).matrix[2:, 2:])
    assert w[1] - w[0] == pytest.approx(nu_minus, abs=1e-12)


def test_quantization_angles_paper_system(paper):
    theta_plus, theta_minus = nc.quantization_angles(paper)
    assert theta_minus == pytest.approx(86.0, abs=1.0)
    # two-argument arctangent places theta_plus in the second quadrant
    assert theta_plus == pytest.approx(160.5, abs=0.1)


def test_quantization_angle_stronger_field():
    p = nc.SystemParams(nu_c_override=0.3)
    _, theta_minus = nc.quantization_angles(p)
    assert theta_minus == pytest.approx(36.6, abs=0.1)


def test_quantization_angle_no_transverse_coupling():
    p = nc.SystemParams(a_zz=0.7, a_zx=0.0, nu_c_override=0.2)
    theta_plus, theta_minus = nc.quantization_angles(p)
    assert theta_plus == 0.0
    assert theta_minus == 0.0


def test_quantization_angle_degenerate_axis():
    p = nc.SystemParams(a_zz=-0.3, a_zx=0.0, nu_c_override=0.3)
    with pytest.raises(ValueError, match="quantization axis undefined"):
        nc.quantization_angles(p)


def test_angles_reported_in_half_open_interval():
    p = nc.SystemParams(a_zz=-0.5, a_zx=0.0, nu_c_override=0.2)
    theta_plus, theta_minus = nc.quantization_angles(p)
    assert theta_plus == 180.0
    assert theta_minus == 180.0


def test_full_hamiltonian_zero_coupling_spectrum():
    """At zero field and zero 13C coupling each level D m_S^2 + P m_N^2 +
    A_N m_S m_N is doubly degenerate in the 13C spin."""
    p = nc.SystemParams(b_mt=0.0, a_zz=0.0, a_zx=0.0)
    h = build_hamiltonian_full(p)
    w = np.sort(np.linalg.eigvalsh(h.matrix))
    closed_form = sorted(
        D_SPLITTING_MHZ * m_s**2 + P_N14_MHZ * m_n**2 + A_N14_MHZ * m_s * m_n
        for m_s in (1, 0, -1)
        for m_n in (1, 0, -1)
        for _ in range(2)
    )
    assert w == pytest.approx(closed_form, abs=1e-9)


def _sector_blocks(h18):
    """2x2 carbon blocks of the m_N = +1 sector, keyed by m_S."""
    m = h18.matrix
    return {
        +1: m[np.ix_([0, 1], [0, 1])],
        0: m[np.ix_([6, 7], [6, 7])],
        -1: m[np.ix_([12, 13], [12, 13])],
    }


def test_full_hamiltonian_ms0_gap_is_nu_c(paper):
    blocks = _sector_blocks(build_hamiltonian_full(paper))
    w = np.linalg.eigvalsh(blocks[0])
    assert w[1] - w[0] == pytest.approx(paper.nu_c, abs=1e-9)


def test_full_hamiltonian_esr_center_and_offsets(paper):
    blocks = _sector_blocks(build_hamiltonian_full(paper))
    w0 = np.linalg.eigvalsh(blocks[0])
    wm = np.linalg.eigvalsh(blocks[-1])
    transitions = [em - e0 for em in wm for e0 in w0]
    carrier = esr_carrier(paper)
    assert np.mean(transitions) == pytest.approx(carrier, rel=1e-12)
    offsets = sorted(t - carrier for t in transitions)
    expected = sorted(o for o, _ in nc.esr_lines(paper, -1))
    assert offsets == pytest.approx(expected, abs=1e-9)


def test_subspace_zero_couplings_zero_matrix():
    p = nc.SystemParams(a_zz=0.0, a_zx=0.0, nu_c_override=0.0)
    h = nc.build_hamiltonian_subspace(p)
    assert np.allclose(h.matrix, 0.0)


def test_subspace_gaps_match_closed_forms(paper, h_sub):
    nu_c, nu_minus, _ = nc.nuclear_frequencies(paper)
    m = h_sub.matrix
    w0 = np.linalg.eigvalsh(m[:2, :2])
    wm = np.linalg.eigvalsh(m[2:, 2:])
    assert w0[1] - w0[0] == pytest.approx(nu_c, abs=1e-9)
    assert wm[1] - wm[0] == pytest.approx(nu_minus, abs=1e-9)


@pytest.mark.parametrize("p", [
    nc.SystemParams(),
    nc.SystemParams(nu_c_override=0.3),  # table III
    nc.SystemParams(b_mt=31.0, a_zz=0.21, a_zx=-0.074),
], ids=["paper", "table-III", "off-default"])
@pytest.mark.parametrize("m_s", [-1, +1], ids=["ms-1", "ms+1"])
def test_subspace_matches_full_sector_up_to_uniform_shift(p, m_s):
    """The {0, m_S} rotating-frame Hamiltonian is, entry by entry, the m_N = +1
    sector of the 18-level one with each manifold's electron and 14N energy
    removed: blockdiag(B_0, B_m - c_m) - c_0, where c_0 = P_N - gamma_N B and
    c_m = D - m_S (gamma_e B - A_N)."""
    blocks = _sector_blocks(build_hamiltonian_full(p))
    c_0 = P_N14_MHZ - GAMMA_N14_MHZ_PER_MT * p.b_mt
    c_m = D_SPLITTING_MHZ - m_s * (GAMMA_E_MHZ_PER_MT * p.b_mt - A_N14_MHZ)
    expected = block_diag(blocks[0], blocks[m_s] - c_m * np.eye(2)) - c_0 * np.eye(4)
    build = nc.build_hamiltonian_subspace if m_s == -1 else build_hamiltonian_subspace_plus
    assert np.max(np.abs(build(p).matrix - expected)) < 1e-9


def test_diagonalizing_transform_identity_when_axes_upright():
    p = nc.SystemParams(a_zz=0.5, a_zx=0.0, nu_c_override=0.1)
    for theta in nc.quantization_angles(p):
        assert np.allclose(rot_half(SY2, math.radians(theta)), np.eye(2))
    for block in axis_frame_blocks(p)[0]:
        assert np.allclose(block, np.diag(np.diag(block)))


def test_diagonalizing_transform_kills_carbon_offdiagonals(paper):
    blocks, scale = axis_frame_blocks(paper)
    for block in blocks:
        assert abs(block[0, 1]) < 1e-10 * scale


def test_rotation_y_inverse(paper):
    _, theta_minus = nc.quantization_angles(paper)
    t = math.radians(theta_minus)
    assert np.allclose(rot_half(SY2, t) @ rot_half(SY2, -t), np.eye(2), atol=1e-14)


def test_esr_lines_no_transverse_coupling():
    p = nc.SystemParams(a_zz=0.4, a_zx=0.0, nu_c_override=0.1)
    nu_c, nu_minus, _ = nc.nuclear_frequencies(p)
    lines = nc.esr_lines(p, -1)
    strong = sorted(offset for offset, prob in lines if prob > 0.5)
    weak = [prob for _, prob in lines if prob <= 0.5]
    assert strong == pytest.approx([-(nu_minus - nu_c) / 2, (nu_minus - nu_c) / 2])
    assert weak == pytest.approx([0.0, 0.0], abs=1e-15)


def test_esr_lines_paper_branch_minus(paper):
    nu_c, nu_minus, _ = nc.nuclear_frequencies(paper)
    lines = nc.esr_lines(paper, -1)
    inner = [(o, p) for o, p in lines if abs(o) == pytest.approx(abs(nu_minus - nu_c) / 2)]
    outer = [(o, p) for o, p in lines if abs(o) == pytest.approx((nu_minus + nu_c) / 2)]
    assert len(inner) == 2 and len(outer) == 2
    assert nu_minus - nu_c == pytest.approx(-0.048, abs=2e-3)
    # near-90-degree tilt: inner (cos^2) doublet slightly stronger than outer
    assert inner[0][1] > outer[0][1]


def test_esr_lines_match_eigenvector_oracle(paper):
    """Offsets from eigenvalue differences, probabilities from squared nuclear
    overlaps of the 6-dim electron-carbon Hamiltonian."""
    h6 = build_hamiltonian_ec(paper)
    m = h6.matrix
    carrier = esr_carrier(paper)
    w0, v0 = np.linalg.eigh(m[2:4, 2:4])
    wm, vm = np.linalg.eigh(m[4:6, 4:6])
    oracle = []
    for j in range(2):
        for i in range(2):
            offset = (wm[j] - w0[i]) - carrier
            prob = abs(np.vdot(vm[:, j], v0[:, i])) ** 2
            oracle.append((offset, prob))
    lines = nc.esr_lines(paper, -1)
    for offset, prob in lines:
        matches = [p for o, p in oracle if abs(o - offset) < 1e-9]
        assert matches and matches[0] == pytest.approx(prob, abs=1e-9)


@given(coupling, coupling, frequency)
@settings(max_examples=100, deadline=None)
def test_esr_probabilities_sum_to_two(a_zz, a_zx, nu_c):
    p = random_params(a_zz, a_zx, nu_c)
    for branch in (+1, -1):
        try:
            lines = nc.esr_lines(p, branch)
        except ValueError as exc:
            assert "quantization axis undefined" in str(exc)
            continue
        assert sum(prob for _, prob in lines) == pytest.approx(2.0, abs=1e-12)


def test_esr_spectrum_single_line_peak_location():
    grid = np.linspace(-1.0, 1.0, 2001)
    spec = nc.esr_spectrum([(0.25, 1.0)], 0.05, grid)
    peak = grid[np.argmax(spec.amplitude)]
    assert abs(peak - 0.25) <= grid[1] - grid[0]


def test_esr_spectrum_two_resolved_lines():
    grid = np.linspace(-1.0, 1.0, 4001)
    spec = nc.esr_spectrum([(-0.5, 1.0), (0.5, 1.0)], 0.02, grid)
    assert len(local_maxima(spec.amplitude)) == 2


def test_esr_spectrum_paper_branch_minus_four_maxima(paper):
    lines = nc.esr_lines(paper, -1)
    grid = np.linspace(-0.3, 0.3, 6001)
    spec = nc.esr_spectrum(lines, 0.02, grid)
    assert len(local_maxima(spec.amplitude)) == 4


def test_esr_spectrum_bad_grid():
    with pytest.raises(ValueError, match="grid must be non-empty and strictly increasing"):
        nc.esr_spectrum([(0.0, 1.0)], 0.05, np.array([]))
    with pytest.raises(ValueError, match="grid must be non-empty and strictly increasing"):
        nc.esr_spectrum([(0.0, 1.0)], 0.05, np.array([0.0, 0.0, 1.0]))


@given(coupling, coupling, frequency)
@settings(max_examples=100, deadline=None)
def test_builders_are_hermitian(a_zz, a_zx, nu_c):
    p = random_params(a_zz, a_zx, nu_c)
    for build in (nc.build_hamiltonian_subspace, build_hamiltonian_ec, build_hamiltonian_full):
        m = build(p).matrix
        assert np.linalg.norm(m - m.conj().T) <= 1e-12 * max(np.linalg.norm(m), 1.0)


@given(coupling, coupling, frequency)
@settings(max_examples=100, deadline=None)
def test_closed_form_frequencies_match_eigen_gaps(a_zz, a_zx, nu_c):
    p = random_params(a_zz, a_zx, nu_c)
    nu_c_out, nu_minus, nu_plus = nc.nuclear_frequencies(p)
    h = nc.build_hamiltonian_subspace(p).matrix
    w0 = np.linalg.eigvalsh(h[:2, :2])
    wm = np.linalg.eigvalsh(h[2:, 2:])
    assert w0[1] - w0[0] == pytest.approx(nu_c_out, abs=1e-9)
    assert wm[1] - wm[0] == pytest.approx(nu_minus, abs=1e-9)
    hp, _, _ = nuclear_block_hamiltonians(p)
    wp = np.linalg.eigvalsh(hp)
    assert wp[1] - wp[0] == pytest.approx(nu_plus, abs=1e-9)


@given(coupling, coupling, frequency)
@settings(max_examples=60, deadline=None)
def test_diagonalizing_transform_property(a_zz, a_zx, nu_c):
    p = random_params(a_zz, a_zx, nu_c)
    try:
        blocks, scale = axis_frame_blocks(p)
    except ValueError as exc:
        assert "quantization axis undefined" in str(exc)
        return
    for block in blocks:
        assert abs(block[0, 1]) < 1e-10 * scale


def test_theta_minus_crosses_90_where_denominator_vanishes(paper):
    """Bisection on theta_minus(nu_C) - 90 locates the sign change of
    A_zz + nu_C."""

    def angle(nu_c):
        return nc.quantization_angles(replace(paper, nu_c_override=nu_c))[1] - 90.0

    lo, hi = 0.01, 1.0
    assert angle(lo) * angle(hi) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if angle(lo) * angle(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(-paper.a_zz, abs=1e-10)


def test_eigenstructure_vectors_orthonormal(paper):
    """The m_S = -1 nuclear eigenstates that the coherence target is built
    from are orthonormal eigenvectors of that manifold's nuclear Hamiltonian."""
    from nvctrl.fidelity import _minus_eigenstates

    phi, psi = _minus_eigenstates(paper)
    _, _, h_minus = nuclear_block_hamiltonians(paper)
    for v in (phi, psi):
        assert np.vdot(v, v) == pytest.approx(1.0)
        hv = h_minus @ v
        assert np.linalg.norm(hv - np.vdot(v, hv) * v) < 1e-14
    assert abs(np.vdot(phi, psi)) < 1e-14


def test_params_serialization_round_trip(paper):
    """A params block echoed into a JSON manifest rebuilds the same system."""
    block = json.loads(json.dumps(asdict(paper)))
    assert nc.SystemParams(**block) == paper
    assert set(block) == {"b_mt", "a_zz", "a_zx", "nu_c_override"}


def test_params_rejects_unknown_keys():
    # the lab-frame constants are module constants, not fields
    for key in ("bogus", "d_mhz", "gamma_e", "nu_e_override"):
        with pytest.raises(TypeError):
            nc.SystemParams(**{"b_mt": 14.8, key: 1.0})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_values(value):
    for f in fields(nc.SystemParams):
        with pytest.raises(ValueError, match=f.name):
            nc.SystemParams(**{f.name: value})
    with pytest.raises(ValueError):
        nc.SystemParams(**json.loads('{"b_mt": NaN}'))


def test_params_overrides_supersede_products():
    assert nc.SystemParams(nu_c_override=0.3).nu_c == 0.3
    q = nc.SystemParams()
    assert q.nu_c == GAMMA_C13_MHZ_PER_MT * q.b_mt


def test_every_param_reaches_the_working_model(paper):
    """A change of any field moves the subspace Hamiltonian, the nuclear
    blocks or the nuclear frequencies: no field is carried unread."""

    def outputs(p):
        return np.concatenate([
            nc.build_hamiltonian_subspace(p).matrix.ravel(),
            np.ravel(nuclear_block_hamiltonians(p)),
            nc.nuclear_frequencies(p),
        ])

    def moved(name):
        value = getattr(paper, name)
        return replace(paper, **{name: 0.3 if value is None else value * 1.1})

    base = outputs(paper)
    unread = [f.name for f in fields(nc.SystemParams) if np.array_equal(outputs(moved(f.name)), base)]
    assert unread == []


def test_hamiltonian_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    # the last is far from Hermitian, though its Frobenius norm overflows
    for bad, message in ((m, "Hermitian"), (np.diag([np.nan, 0, 0, 0]), "non-finite"),
                         (np.diag([np.inf, 0, 0, 0]), "non-finite"), ([[1e308, 1e308], [0, 1e308]], "Hermitian")):
        with pytest.raises(ValueError, match=message):
            nc.Hamiltonian(bad)
    with pytest.raises(ValueError, match="square"):
        nc.Hamiltonian(np.zeros((4, 3)))
    assert nc.Hamiltonian(np.eye(6)).dim == 6
    assert nc.Hamiltonian([[1e308, 1e308], [1e308, -1e308]]).dim == 2
