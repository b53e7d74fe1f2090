import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nvctrl as nc
from nvctrl import cli, propagation
from nvctrl.cli import main
from nvctrl.signals import MAX_GRID_SAMPLES, read_csv, write_csv
from tests_support import oracle_bloch

TINY_GA = [
    "--set", "optimize.ga.restarts=8",
    "--set", "optimize.ga.polish_evals=50",
]
TINY_TABLES_GA = [
    "--set", "tables.ga.restarts=1",
    "--set", "tables.ga.polish_evals=1",
]


def run(args):
    return main([str(a) for a in args])


def test_angles_command(tmp_path):
    out = tmp_path / "angles"
    assert run(["angles", "--out", out]) == 0
    data = json.loads((out / "angles.json").read_text())
    assert data["theta_minus_deg"] == pytest.approx(86.63, abs=0.01)
    assert data["nu_c_mhz"] == pytest.approx(0.1585, abs=1e-3)
    assert (out / "manifest.json").exists()


def test_angles_with_override(tmp_path):
    out = tmp_path / "angles03"
    assert run(["angles", "--out", out, "--set", "params.nu_c_override=0.3"]) == 0
    data = json.loads((out / "angles.json").read_text())
    assert data["theta_minus_deg"] == pytest.approx(36.62, abs=0.01)


def test_angles_no_transverse(tmp_path):
    out = tmp_path / "angles0"
    assert run([
        "angles", "--out", out,
        "--set", "params.a_zx=0.0",
        "--set", "params.a_zz=0.5",
    ]) == 0
    data = json.loads((out / "angles.json").read_text())
    assert data["theta_minus_deg"] == 0.0


def test_esr_command(tmp_path):
    out = tmp_path / "esr"
    assert run(["esr", "--out", out]) == 0
    lines = json.loads((out / "esr_lines.json").read_text())
    assert len(lines["lines"]) == 4
    assert sum(l["probability"] for l in lines["lines"]) == pytest.approx(2.0)
    freq, amp = read_csv(out / "esr_spectrum.csv", ("freq_mhz", "amplitude"))
    assert freq.size > 100


def test_esr_command_other_branch(tmp_path):
    out = tmp_path / "esrp"
    assert run(["esr", "--out", out, "--set", "esr.branch=1"]) == 0
    lines = json.loads((out / "esr_lines.json").read_text())
    assert lines["branch"] == 1
    expected = nc.esr_lines(nc.SystemParams(), +1)
    got = sorted(l["offset_mhz"] for l in lines["lines"])
    assert got == pytest.approx(sorted(o for o, _ in expected))


def test_optimize_writes_artifacts(tmp_path):
    out = tmp_path / "opt"
    code = run(["optimize", "--out", out, "--seed", "5",
                "--set", "optimize.target=u_90",
                "--set", "optimize.n_pulses=2"] + TINY_GA)
    assert code == 0
    seq = nc.PulseSequence.load(out / "sequence.json")
    result = json.loads((out / "result.json").read_text())
    h = nc.build_hamiltonian_subspace(nc.SystemParams())
    redo = nc.sequence_fidelity(seq, nc.build_target("u_90", nc.SystemParams()), h)
    assert redo == pytest.approx(result["fidelity"], abs=1e-12)
    start, polished = result["history"]
    assert polished >= start and result["best_fitness"] == polished
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "result.json", "sequence.json"]


def test_optimize_unknown_target_usage_error(tmp_path):
    code = run(["optimize", "--out", tmp_path / "x", "--set", "optimize.target=u_bogus"])
    assert code == 2


def test_optimize_default_transfer_reaches_high_fidelity(tmp_path):
    """Full-default search on the default target (the population transfer)."""
    out = tmp_path / "up"
    assert run(["optimize", "--out", out, "--seed", "20260809"]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["fidelity"] >= 0.99


def test_optimize_multistart_without_generations(tmp_path):
    """The search polishes uniform starts, the history holds the winner's
    fitness at its start and after the polish, and no history.csv is
    written."""
    out = tmp_path / "multistart"
    assert run(["optimize", "--out", out, "--seed", "4",
                "--set", "optimize.ga.restarts=8", "--set", "optimize.ga.polish_evals=30"]) == 0
    result = json.loads((out / "result.json").read_text())
    assert len(result["history"]) == 2 and result["history"][1] >= result["history"][0]
    assert result["best_fitness"] == result["history"][1]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "result.json", "sequence.json"]


def test_optimize_switched_mode(tmp_path):
    out = tmp_path / "sw"
    code = run(["optimize", "--out", out, "--seed", "4",
                "--set", "optimize.target=u_90",
                "--set", "optimize.n_pulses=2",
                "--set", "optimize.mode=switched"] + TINY_GA)
    assert code == 0
    seq = nc.PulseSequence.load(out / "sequence.json")
    for pulse in seq.pulses():
        assert pulse.us == pytest.approx(1.0)


def test_optimize_with_robustness_block(tmp_path):
    """The `optimize.robust` keys are RobustnessRange's fields."""
    assert list(cli._BLOCKS["optimize.robust"]) == [f.name for f in fields(nc.RobustnessRange)]
    out = tmp_path / "rob"
    code = run(["optimize", "--out", out, "--seed", "3",
                "--set", "optimize.target=u_90",
                "--set", "optimize.n_pulses=2",
                "--set", 'optimize.robust={"lo_mhz": 0.48, "hi_mhz": 0.52, "n_samples": 3}',
                ] + TINY_GA)
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert result["robust_fidelity"] is not None
    seq = nc.PulseSequence.load(out / "sequence.json")
    h = nc.build_hamiltonian_subspace(nc.SystemParams())
    redo = nc.robust_fidelity(
        seq, nc.build_target("u_90", nc.SystemParams()), nc.RobustnessRange(0.48, 0.52, 3), h
    )
    assert redo == pytest.approx(result["robust_fidelity"], abs=1e-12)


def test_fid_analytic_and_spectrum_pipeline(tmp_path):
    out1 = tmp_path / "fid"
    assert run(["fid", "--out", out1, "--set", "fid.protocol=analytic_uc"]) == 0
    out2 = tmp_path / "spec"
    assert run(["spectrum", "--out", out2,
                "--set", f"spectrum.fid_csv={out1 / 'fid.csv'}"]) == 0
    peaks = json.loads((out2 / "peaks.json").read_text())
    found = sorted(p["freq_mhz"] for p in peaks["peaks"][:2])
    params = nc.SystemParams()
    nu_c, nu_minus, _ = nc.nuclear_frequencies(params)
    assert found[0] == pytest.approx(nu_minus, abs=peaks["resolution_mhz"])
    assert found[1] == pytest.approx(nu_c, abs=peaks["resolution_mhz"])


@pytest.mark.parametrize("protocol", ["uc", "u90_ms0"])
def test_spectrum_of_a_csv_claims_no_protocol(tmp_path, protocol):
    """fid.csv holds only delays and signals, so its spectrum records the
    protocol as unknown, whichever protocol wrote the trace."""
    fid_out, spec_out = tmp_path / "fid", tmp_path / "spec"
    assert run(["fid", "--out", fid_out, "--set", f"fid.protocol={protocol}", "--set", "fid.record_us=20"]) == 0
    assert run(["spectrum", "--out", spec_out, "--set", f"spectrum.fid_csv={fid_out / 'fid.csv'}"]) == 0
    assert json.loads((spec_out / "peaks.json").read_text())["metadata"]["protocol"] is None


def test_fid_missing_sequence_file(tmp_path):
    code = run(["fid", "--out", tmp_path / "x",
                "--set", "fid.protocol=uc",
                "--set", "fid.sequence=/nonexistent/seq.json"])
    assert code == 3
    assert not (tmp_path / "x").exists()


def test_fid_unknown_protocol(tmp_path):
    code = run(["fid", "--out", tmp_path / "x", "--set", "fid.protocol=zzz"])
    assert code == 2


def test_fid_u90_protocol(tmp_path):
    out = tmp_path / "u90fid"
    assert run(["fid", "--out", out, "--set", "fid.protocol=u90_ms-1"]) == 0
    trace = nc.FidTrace.from_csv(out / "fid.csv")
    spec = nc.spectrum_from_fid(trace)
    from nvctrl.signals import top_peaks

    _, nu_minus, _ = nc.nuclear_frequencies(nc.SystemParams())
    assert top_peaks(spec, 1)[0][0] == pytest.approx(nu_minus, abs=spec.resolution_mhz)


def test_bloch_command(tmp_path):
    seq = nc.PulseSequence(0.5, (nc.Delay(0.2), nc.Pulse(1.0, 0.5)))
    seq_path = tmp_path / "seq.json"
    seq.save(seq_path)
    out = tmp_path / "bloch"
    assert run(["bloch", "--out", out,
                "--set", f"bloch.sequence={seq_path}",
                "--set", "bloch.dt_us=0.05"]) == 0
    cols = read_csv(out / "trajectory.csv",
                    ("time_us", "e_x", "e_y", "e_z", "c_x", "c_y", "c_z"))
    assert cols[0][0] == 0.0
    assert cols[0][-1] == pytest.approx(seq.total_duration_us)
    final = json.loads((out / "bloch.json").read_text())
    h = nc.build_hamiltonian_subspace(nc.SystemParams())
    from nvctrl.fidelity import rho0_state

    u = nc.sequence_propagator(h, seq)
    expect = oracle_bloch(nc.DensityState(u @ rho0_state().matrix @ u.conj().T), "carbon")
    assert final["carbon"]["z"] == pytest.approx(expect[2], abs=1e-9)


def test_non_unitary_core_is_runtime_error(tmp_path, monkeypatch, capsys):
    """With phase factors of magnitude 1.001 in the propagation core, the
    trajectory's trace check and the sequence propagator's unitarity check
    stop the command with exit 3 before anything is written."""
    core = propagation._propagators
    monkeypatch.setattr(propagation, "_propagators", lambda h, times: 1.001 * core(h, times))
    seq_path = tmp_path / "seq.json"
    nc.PulseSequence(0.5, (nc.Delay(0.2), nc.Pulse(1.0, 0.5))).save(seq_path)
    for argv in (
        ["bloch", "--set", f"bloch.sequence={seq_path}"],
        ["fid", "--set", "fid.protocol=uc", "--set", f"fid.sequence={seq_path}"],
    ):
        out = tmp_path / argv[0]
        assert run(argv + ["--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


def test_bloch_missing_sequence_is_usage_error(tmp_path):
    assert run(["bloch", "--out", tmp_path / "x"]) == 2


def test_polarize_command(tmp_path):
    out = tmp_path / "pol"
    assert run(["polarize", "--out", out]) == 0
    data = json.loads((out / "polarize.json").read_text())
    assert data["curve_max"]["p"] == pytest.approx(0.7464, abs=1e-3)
    d, p = read_csv(out / "polarization.csv", ("d_l_us", "p"))
    assert p[0] == pytest.approx(0.30, abs=1e-9)


def test_polarize_with_sequence_protocol(tmp_path):
    seq = nc.PulseSequence(0.5, (nc.Delay(0.1), nc.Pulse(1.0, 0.0)))
    seq_path = tmp_path / "seq.json"
    seq.save(seq_path)
    out = tmp_path / "polseq"
    assert run(["polarize", "--out", out, "--set", f"polarize.sequence={seq_path}"]) == 0
    data = json.loads((out / "polarize.json").read_text())
    expect = nc.polarization_protocol_sim(nc.SystemParams(), seq)
    assert data["protocol"]["polarization"] == pytest.approx(expect.polarization, abs=1e-12)


def test_commands_do_not_mutate_inputs(tmp_path):
    seq = nc.PulseSequence(0.5, (nc.Delay(0.2), nc.Pulse(0.5, 1.0)))
    seq_path = tmp_path / "seq.json"
    seq.save(seq_path)
    config = {"params": {"nu_c_override": 0.2}, "bloch": {"sequence": str(seq_path), "dt_us": 0.05}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    before = (seq_path.read_bytes(), cfg_path.read_bytes())
    assert run(["bloch", "--config", cfg_path, "--out", tmp_path / "out"]) == 0
    assert (seq_path.read_bytes(), cfg_path.read_bytes()) == before


def test_fit_fidelities_command(tmp_path):
    out = tmp_path / "fitf"
    assert run(["fit", "fidelities", "--out", out,
                "--b0", 0.13, "--b1", 0.11, "--bm1", 0.20, "--f", 0.7]) == 0
    data = json.loads((out / "fidelities.json").read_text())
    assert data["f_180"] == pytest.approx(0.920, abs=0.005)
    assert data["f_u90"] == pytest.approx(0.742, abs=0.005)
    assert data["f_uc"] == pytest.approx(0.910, abs=0.005)


def test_fit_sinusoid_command(tmp_path):
    tau = np.linspace(0.0, 40.0, 120)
    signal = 0.25 + 0.13 * np.sin(2 * math.pi * 0.158 * tau + 0.4)
    trace = nc.FidTrace(tau, signal)
    data_path = tmp_path / "data.csv"
    trace.to_csv(data_path)
    out = tmp_path / "fits"
    assert run(["fit", "sinusoid", "--out", out, "--data", data_path, "--nu", 0.158]) == 0
    data = json.loads((out / "fit_sinusoid.json").read_text())
    assert data["b"] == pytest.approx(0.13, abs=1e-9)


def test_fit_polarization_command(tmp_path):
    model = nc.paper_polarization_model()
    d = np.concatenate([np.linspace(0.0, 6.0, 60), np.linspace(6.5, 120.0, 140)])
    p = nc.polarization_curve(model, d)
    data_path = tmp_path / "pol.csv"
    write_csv(data_path, ("d_l_us", "p"), (d, p))
    out = tmp_path / "fitp"
    assert run(["fit", "polarization", "--out", out, "--data", data_path]) == 0
    data = json.loads((out / "fit_polarization.json").read_text())
    assert data["pump_rate_per_us"] == pytest.approx(model.pump_rate_per_us, rel=1e-3)
    assert data["gamma_per_us"] == pytest.approx(model.gamma_per_us, rel=1e-3)


def test_fitted_polarization_model_is_a_polarize_block(tmp_path):
    """`fit polarization` writes the fields of PolarizationModel, which are
    the model keys of the `polarize` block: a fit of a noisy paper curve,
    given to `polarize` as its block, draws the fitted model's curve and its
    maximum."""
    d = np.concatenate([np.linspace(0.0, 6.0, 60), np.linspace(6.5, 120.0, 140)])
    paper = nc.paper_polarization_model()
    p = nc.polarization_curve(paper, d) + np.random.default_rng(7).normal(0.0, 0.01, d.size)
    write_csv(tmp_path / "pol.csv", ("d_l_us", "p"), (d, p))
    assert run(["fit", "polarization", "--data", tmp_path / "pol.csv", "--out", tmp_path / "fit"]) == 0
    fitted = json.loads((tmp_path / "fit" / "fit_polarization.json").read_text())
    assert set(fitted) == {f.name for f in fields(nc.PolarizationModel)}
    model = nc.PolarizationModel(**fitted)
    assert model != paper
    (tmp_path / "cfg.json").write_text(json.dumps({"polarize": fitted}))
    assert run(["polarize", "--config", tmp_path / "cfg.json", "--out", tmp_path / "pol"]) == 0
    block = cli._BLOCKS["polarize"]
    grid = np.linspace(0.0, block["d_max_us"], block["n_points"])
    d_out, p_out = read_csv(tmp_path / "pol" / "polarization.csv", ("d_l_us", "p"))
    assert np.array_equal(d_out, grid) and np.array_equal(p_out, nc.polarization_curve(model, grid))
    d_star, p_star = nc.polarization_curve_max(model, 0.0, block["d_max_us"])
    curve_max = json.loads((tmp_path / "pol" / "polarize.json").read_text())["curve_max"]
    assert curve_max == {"d_l_us": d_star, "p": p_star}


def test_fit_missing_data_file(tmp_path):
    assert run(["fit", "polarization", "--out", tmp_path / "x",
                "--data", "/nonexistent.csv"]) == 3
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("below", [False, True], ids=["out-is-a-file", "out-below-a-file"])
def test_out_that_cannot_be_a_directory_is_usage_error(tmp_path, capsys, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep me\n")
    out = blocker / "sub" if below else blocker
    assert run(["angles", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1 and "Traceback" not in err
    assert blocker.read_text() == "keep me\n"


def test_failed_write_is_runtime_error(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    assert run(["angles", "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


# runs every command in a fresh interpreter, with scipy unimportable
# ("blocked") or imported first ("eager")
SCIPY_PROBE = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
else:
    import scipy.linalg, scipy.optimize
import nvctrl.cli
root, inputs = sys.argv[2], sys.argv[3]
commands = {
    "angles": ["angles"],
    "esr": ["esr"],
    "fid": ["fid"],
    "spectrum": ["spectrum", "--set", f"spectrum.fid_csv={root}/fid/fid.csv"],
    "bloch": ["bloch", "--set", f"bloch.sequence={inputs}/seq.json"],
    "polarize": ["polarize", "--set", f"polarize.sequence={inputs}/seq.json"],
    "optimize": ["optimize", "--set", "optimize.ga.restarts=4", "--set", "optimize.ga.polish_evals=5"],
    "tables": ["tables", "--which", "III", "--set", "tables.ga.restarts=1", "--set", "tables.ga.polish_evals=1"],
    "fit-polarization": ["fit", "polarization", "--data", f"{inputs}/pol.csv"],
    "fit-sinusoid": ["fit", "sinusoid", "--data", f"{root}/fid/fid.csv", "--nu", "0.158"],
    "fit-fidelities": ["fit", "fidelities", "--b0", "0.13", "--b1", "0.11", "--bm1", "0.2", "--f", "0.7"],
}
for name, argv in commands.items():
    if nvctrl.cli.main(argv + ["--out", f"{root}/{name}"]) != 0:
        sys.exit(f"{name} failed")
"""


def test_every_command_runs_without_scipy(tmp_path):
    """Every command, `fit polarization` among them, runs where `import
    scipy` fails, and writes the same bytes as with scipy imported first."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    nc.PulseSequence(0.5, (nc.Delay(0.2), nc.Pulse(1.0, 0.5))).save(inputs / "seq.json")
    d = np.linspace(0.0, 120.0, 200)
    write_csv(inputs / "pol.csv", ("d_l_us", "p"), (d, nc.polarization_curve(nc.paper_polarization_model(), d)))
    env = dict(os.environ, PYTHONPATH=str(Path(nc.__file__).parents[1]))
    for mode in ("blocked", "eager"):
        subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, mode, str(tmp_path / mode), str(inputs)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
    blocked = sorted(p.relative_to(tmp_path / "blocked") for p in (tmp_path / "blocked").rglob("*") if p.is_file())
    eager = sorted(p.relative_to(tmp_path / "eager") for p in (tmp_path / "eager").rglob("*") if p.is_file())
    ran = {json.loads(p.read_text())["command"] for p in (tmp_path / "blocked").glob("*/manifest.json")}
    assert ran == {name[4:].replace("_", " ") for name in vars(cli) if name.startswith("cmd_")}
    assert blocked == eager
    for rel in blocked:
        blocked_bytes = (tmp_path / "blocked" / rel).read_bytes()
        eager_bytes = (tmp_path / "eager" / rel).read_bytes()
        if rel.name == "manifest.json":
            # the manifests name their own output paths
            blocked_bytes = blocked_bytes.replace(b"/blocked/", b"/eager/")
        assert blocked_bytes == eager_bytes, rel


def test_manifest_reproduces_outputs_bitwise(tmp_path):
    """Every command re-runs from its own manifest, which names the command
    (with the fit kind), and writes the same files bitwise."""
    seq_path = tmp_path / "seq.json"
    nc.PulseSequence(0.5, (nc.Delay(0.2), nc.Pulse(1.0, 0.5))).save(seq_path)
    tau = np.linspace(0.0, 40.0, 120)
    nc.FidTrace(tau, 0.25 + 0.13 * np.sin(2 * math.pi * 0.158 * tau + 0.4)).to_csv(tmp_path / "fid.csv")
    d = np.linspace(0.0, 120.0, 200)
    pol = nc.polarization_curve(nc.paper_polarization_model(), d)
    write_csv(tmp_path / "pol.csv", ("d_l_us", "p"), (d, pol))
    cases = [
        (["optimize"], ["--seed", "5", "--set", "optimize.target=u_90", "--set", "optimize.n_pulses=2",
                        *TINY_GA]),
        (["angles"], ["--set", "params.nu_c_override=0.3"]),
        (["esr"], ["--set", "esr.branch=1", "--set", "esr.n_points=101"]),
        (["fid"], ["--set", "fid.protocol=uc", "--set", f"fid.sequence={seq_path}", "--set", "fid.record_us=20"]),
        (["spectrum"], ["--set", f"spectrum.fid_csv={tmp_path / 'fid.csv'}", "--set", "spectrum.zerofill_factor=2"]),
        (["bloch"], ["--set", f"bloch.sequence={seq_path}", "--set", "bloch.dt_us=0.05"]),
        (["polarize"], ["--set", f"polarize.sequence={seq_path}", "--set", "polarize.n_points=51"]),
        (["tables"], ["--which", "III", "--seed", "3", "--set", "tables.ga.restarts=4",
                      "--set", "tables.ga.polish_evals=5"]),
        # the fit commands read their inputs from config keys, which their options alias
        (["fit", "polarization"], ["--data", tmp_path / "pol.csv"]),
        (["fit", "sinusoid"], ["--data", tmp_path / "fid.csv", "--nu", 0.158]),
        (["fit", "fidelities"], ["--b0", 0.13, "--b1", 0.11, "--bm1", 0.20, "--f", 0.7]),
    ]
    for command, options in cases:
        out1, out2 = tmp_path / f"{'-'.join(command)}-1", tmp_path / f"{'-'.join(command)}-2"
        assert run(command + options + ["--out", out1]) == 0
        assert json.loads((out1 / "manifest.json").read_text())["command"] == " ".join(command)
        assert run(command + ["--config", out1 / "manifest.json", "--out", out2]) == 0
        files = sorted(p.name for p in out1.iterdir())
        assert files == sorted(p.name for p in out2.iterdir()) and len(files) >= 2
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (command, name)


def test_cached_parser_carries_no_state_between_calls(tmp_path, capsys):
    """`main` parses with one parser per process; an option or --set given
    to one call is absent from the next, and a repeated call writes the
    same bytes."""
    tau = np.linspace(0.0, 40.0, 120)
    nc.FidTrace(tau, 0.25 + 0.13 * np.sin(2 * math.pi * 0.1 * tau)).to_csv(tmp_path / "fid.csv")
    fit = ["fit", "sinusoid", "--data", tmp_path / "fid.csv"]

    def files(out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    assert run(fit + ["--nu", 0.1, "--out", tmp_path / "nu"]) == 0
    assert run(fit + ["--out", tmp_path / "no-nu"]) == 2
    assert "fit.nu_mhz" in capsys.readouterr().err and not (tmp_path / "no-nu").exists()
    assert run(fit + ["--nu", 0.1, "--out", tmp_path / "nu-again"]) == 0
    assert files(tmp_path / "nu-again") == files(tmp_path / "nu")

    assert run(["esr", "--set", "esr.branch=1", "--out", tmp_path / "branch"]) == 0
    assert run(["esr", "--out", tmp_path / "plain"]) == 0
    manifest = json.loads((tmp_path / "plain" / "manifest.json").read_text())
    assert manifest == {"command": "esr", "config": {"seed": cli.DEFAULT_SEED}}
    assert run(["esr", "--out", tmp_path / "plain-again"]) == 0
    assert files(tmp_path / "plain-again") == files(tmp_path / "plain")
    assert json.loads((tmp_path / "plain" / "esr_lines.json").read_text())["branch"] == -1


def test_config_file_loading(tmp_path):
    config = {"params": {"nu_c_override": 0.3}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["angles", "--config", cfg_path, "--out", out]) == 0
    data = json.loads((out / "angles.json").read_text())
    assert data["theta_minus_deg"] == pytest.approx(36.62, abs=0.01)


def test_missing_config_file(tmp_path):
    assert run(["angles", "--config", "/nonexistent.json", "--out", tmp_path / "x"]) == 3


# every input a command reads from a file, by the option or key that names it
FILE_INPUTS = {
    "config": ["angles", "--config", "{path}"],
    "fid.sequence": ["fid", "--set", "fid.protocol=uc", "--set", "fid.sequence={path}"],
    "fid.sequence_dagger": [
        "fid", "--set", "fid.protocol=uc", "--set", "fid.sequence={seq}", "--set", "fid.sequence_dagger={path}",
    ],
    "fid.sequence_readout": [
        "fid", "--set", "fid.protocol=u90_ms0", "--set", "fid.sequence={seq}",
        "--set", "fid.sequence_readout={path}",
    ],
    "spectrum.fid_csv": ["spectrum", "--set", "spectrum.fid_csv={path}"],
    "bloch.sequence": ["bloch", "--set", "bloch.sequence={path}"],
    "polarize.sequence": ["polarize", "--set", "polarize.sequence={path}"],
    "fit polarization": ["fit", "polarization", "--data", "{path}"],
    "fit sinusoid": ["fit", "sinusoid", "--data", "{path}", "--nu", "0.1"],
}


@pytest.mark.parametrize("argv", FILE_INPUTS.values(), ids=FILE_INPUTS.keys())
def test_unreadable_input_file_keeps_exit_contract(tmp_path, capsys, argv):
    """A directory or a missing path where a command reads a file exits 3
    with the OS error, which names the path; an empty file or a path with a
    NUL byte exits 2.  No case prints a traceback or writes --out.  A file
    without read permission is not among the cases, because a process
    running as root reads it anyway."""
    seq = tmp_path / "seq.json"
    nc.PulseSequence(0.5, (nc.Delay(0.2), nc.Pulse(1.0, 0.5))).save(seq)
    (tmp_path / "dir").mkdir()
    (tmp_path / "empty").write_text("")
    out = tmp_path / "out"
    for path, want in ((tmp_path / "dir", 3), (tmp_path / "missing", 3), (tmp_path / "empty", 2), ("nul\0", 2)):
        code = run([a.format(path=path, seq=seq) for a in argv] + ["--out", out])
        err = capsys.readouterr().err
        assert code == want, (path, err)
        if want == 3:
            assert err.startswith("error:") and str(path) in err, err
        else:
            assert err.startswith("usage error:"), err
        assert err.count("\n") == 1 and "Traceback" not in err and not out.exists()


def test_tables_command_structure(tmp_path):
    out = tmp_path / "tables"
    code = run(["tables", "--which", "III", "--out", out, "--seed", "7",
                "--set", "tables.ga.restarts=4",
                "--set", "tables.ga.polish_evals=100"])
    assert code == 0
    text = (out / "table_III.csv").read_text().strip().splitlines()
    assert text[0].startswith("table,target,mode,rabi_mhz,n_pulses,seed")
    assert len(text) == 4  # header + three pulse counts
    # row i runs with the top-level seed + i
    assert [line.split(",")[5] for line in text[1:]] == ["7", "8", "9"]


MALFORMED = {
    "fid-dt-zero": ["fid", "--set", "fid.dt_us=0"],
    "fid-dt-nan": ["fid", "--set", "fid.dt_us=NaN"],
    "fid-record-negative": ["fid", "--set", "fid.record_us=-5"],
    "esr-linewidth-negative": ["esr", "--set", "esr.linewidth_mhz=-1"],
    "sequence-not-json": ["fid", "--set", "fid.protocol=uc", "--set", "fid.sequence={not_json}"],
    "sequence-no-phase": ["bloch", "--set", "bloch.sequence={no_phase}"],
    "sequence-nan": ["polarize", "--set", "polarize.sequence={nan_delay}"],
    "params-nan": ["angles", "--set", "params.b_mt=NaN"],
    # the zero-field splitting is a constant of the spin model, not a key
    "params-d-mhz": ["angles", "--set", "params.d_mhz=2870"],
    "config-not-json": ["angles", "--config", "{not_json}"],
    "optimize-no-pulses": ["optimize", "--set", "optimize.n_pulses=0"],
    # the removed keys of the genetic algorithm are unknown, whatever their value
    "optimize-population-one": ["optimize", "--set", "optimize.ga.population=1", "--set", "optimize.ga.generations=1"],
    "optimize-ga-generations-negative": ["optimize", *TINY_GA, "--set", "optimize.ga.generations=-1"],
    "spectrum-zerofill-zero": [
        "spectrum", "--set", "spectrum.fid_csv={fid_csv}", "--set", "spectrum.zerofill_factor=0",
    ],
    "spectrum-window-unknown": [
        "spectrum", "--set", "spectrum.fid_csv={fid_csv}", "--set", "spectrum.window=bogus",
    ],
    "spectrum-fid-bad-header": ["spectrum", "--set", "spectrum.fid_csv={bad_header_csv}"],
    "polarize-pump-rate-negative": ["polarize", "--set", "polarize.pump_rate_per_us=-1"],
    # the paper's alpha and beta are not keys: only their sum is identifiable
    "polarize-alpha-unknown": ["polarize", "--set", "polarize.alpha=1.1"],
    "polarize-points-negative": ["polarize", "--set", "polarize.n_points=-2"],
    "polarize-dmax-nan": ["polarize", "--set", "polarize.d_max_us=NaN"],
    "esr-points-negative": ["esr", "--set", "esr.n_points=-3"],
    "esr-branch-not-int": ["esr", "--set", "esr.branch=x"],
    "esr-range-inverted": ["esr", "--set", "esr.f_min_mhz=1", "--set", "esr.f_max_mhz=0"],
    "esr-fmin-nan": ["esr", "--set", "esr.f_min_mhz=NaN"],
    "esr-fmax-overflow": ["esr", "--set", "esr.f_max_mhz=1e308"],
    "esr-fmin-overflow": ["esr", "--set", "esr.f_min_mhz=-1e308"],
    "polarize-c0-nan": ["polarize", "--set", "polarize.c0=NaN"],
    "optimize-rabi-nan": ["optimize", "--set", "optimize.rabi_mhz=NaN"],
    # the readout target is built from the Rabi frequency before the problem checks it
    "optimize-u-t-rabi-zero": ["optimize", "--set", "optimize.target=u_t", "--set", "optimize.rabi_mhz=0"],
    "optimize-penalty-nan": ["optimize", "--set", "optimize.duration_penalty=NaN"],
    "optimize-bounds-nan": ["optimize", "--set", 'optimize.bounds={{"t_max_us": NaN, "tau_max_us": 10}}'],
    "optimize-robust-nan": ["optimize", "--set", 'optimize.robust={{"lo_mhz": NaN, "hi_mhz": 0.52}}'],
    # an empty band names no drive amplitudes; it is not a nominal search
    "optimize-robust-empty": ["optimize", *TINY_GA, "--set", "optimize.robust={{}}"],
    "spectrum-peaks-negative": [
        "spectrum", "--set", "spectrum.fid_csv={fid_csv}", "--set", "spectrum.n_peaks=-1",
    ],
    "spectrum-fid-empty": ["spectrum", "--set", "spectrum.fid_csv={empty_csv}"],
    "fit-sinusoid-nu-zero": ["fit", "sinusoid", "--data", "{fid_csv}", "--nu", "0"],
    "fit-sinusoid-two-rows": ["fit", "sinusoid", "--data", "{two_rows_csv}", "--nu", "0.1"],
    "fit-polarization-one-column": ["fit", "polarization", "--data", "{one_column_csv}"],
    # a non-finite CSV value is refused where the file is read
    "fit-sinusoid-nan": ["fit", "sinusoid", "--data", "{nan_csv}", "--nu", "0.1"],
    "spectrum-fid-inf": ["spectrum", "--set", "spectrum.fid_csv={inf_csv}"],
    "fit-polarization-nan": ["fit", "polarization", "--data", "{nan_polarization_csv}"],
    "fit-fidelities-b0-negative": [
        "fit", "fidelities", "--b0", "-1", "--b1", "0.11", "--bm1", "0.2", "--f", "0.7",
    ],
    "fit-fidelities-b0-nan": [
        "fit", "fidelities", "--b0", "nan", "--b1", "0.11", "--bm1", "0.2", "--f", "0.7",
    ],
    # amplitude ratios beyond float range: F_180 overflows, or underflows to 0 under F_Uc
    "fit-fidelities-ratio-overflow": [
        "fit", "fidelities", "--b0", "1e-308", "--b1", "1e308", "--bm1", "1", "--f", "1",
    ],
    "fit-fidelities-ratio-underflow": [
        "fit", "fidelities", "--b0", "1e308", "--b1", "1e-308", "--bm1", "1", "--f", "1",
    ],
    "fit-sinusoid-no-nu": ["fit", "sinusoid", "--data", "{fid_csv}"],
    "fit-fidelities-missing-ratios": ["fit", "fidelities", "--b0", "0.13"],
    "fit-polarization-key-misspelt": ["fit", "polarization", "--data", "{fid_csv}", "--set", "fit.dta=x"],
    "polarize-gamma-overflow": ["polarize", "--set", "polarize.gamma_per_us=1e308"],
    # a closed-form FID phase 2 pi nu tau beyond float range, refused before np.cos
    "fid-analytic-phase-overflow": ["fid", "--set", "params.b_mt=1e308", "--set", "fid.protocol=analytic_uc"],
    # ESR linewidths whose half width squared underflows: the grid's first
    # point is a line center, where the Lorentzian is 0 / 0, and at 1e-170
    # every amplitude would be written as 0
    "esr-linewidth-underflow-nan": [
        "esr", "--set", "esr.linewidth_mhz=1e-200", "--set", "esr.f_min_mhz=0.13433763714164568",
        "--set", "esr.f_max_mhz=0.2", "--set", "esr.n_points=3",
    ],
    "esr-linewidth-underflow-zero": ["esr", "--set", "esr.linewidth_mhz=1e-170"],
    "esr-key-misspelt": ["esr", "--set", "esr.linewdith_mhz=5"],
    # a top-level key that names no config block, given by --set or by --config
    "root-key-misspelt": ["angles", "--set", "paramz.b_gauss=1"],
    "config-root-key-unknown": ["angles", "--config", "{unknown_root}"],
    "fid-key-misspelt": ["fid", "--set", "fid.dt=0.5"],
    # a fid key the protocol does not read would be recorded in the manifest but never used
    "fid-analytic-uc-sequence": [
        "fid", "--set", "fid.protocol=analytic_uc", "--set", "fid.sequence=/nonexistent.json",
        "--set", "fid.polarization=0.3",
    ],
    "fid-uc-sequence-readout": ["fid", "--set", "fid.protocol=uc", "--set", "fid.sequence_readout={sequence}"],
    "fid-uc-polarization": ["fid", "--set", "fid.protocol=uc", "--set", "fid.polarization=0.3"],
    "fid-u90-ms0-sequence-dagger": ["fid", "--set", "fid.protocol=u90_ms0", "--set", "fid.sequence_dagger={sequence}"],
    "bloch-key-misspelt": ["bloch", "--set", "bloch.sequence={sequence}", "--set", "bloch.dt=0.05"],
    "optimize-ga-key-misspelt": ["optimize", *TINY_GA, "--set", "optimize.ga.populaton=12"],
    # the settings of the removed genetic algorithm and the search box are not config keys
    **{
        f"optimize-ga-{key}": ["optimize", *TINY_GA, "--set", f"optimize.ga.{key}={value}"]
        for key, value in (("crossover_rate", 0.5), ("mutation_rate", 0.2), ("mutation_sigma", 0.1),
                           ("elite_count", 1), ("tournament_size", 2), ("population", 1), ("generations", 0))
    },
    "tables-ga-elite-count": ["tables", "--which", "III", *TINY_TABLES_GA, "--set", "tables.ga.elite_count=1"],
    "tables-ga-generations": ["tables", "--which", "III", *TINY_TABLES_GA, "--set", "tables.ga.generations=0"],
    "optimize-robust-key-misspelt": [
        "optimize", *TINY_GA, "--set", 'optimize.robust={{"lo_mhz": 0.47, "hi_mhz": 0.53, "n_sample": 5}}',
    ],
    # 10^6 + 1 samples, one over the trajectory bound, and 10^22 samples; the
    # count is checked before any sample is built, so both fail fast
    "bloch-samples-fine-step": ["bloch", "--set", "bloch.sequence={long_delay}", "--set", "bloch.dt_us=1e-4"],
    "bloch-samples-huge-delay": ["bloch", "--set", "bloch.sequence={huge_delay}"],
    "polarize-pump-rate-overflow": ["polarize", "--set", "polarize.pump_rate_per_us=1e308"],
    "sequence-us-bool": ["bloch", "--set", "bloch.sequence={us_bool}"],
    "sequence-rabi-bool": ["polarize", "--set", "polarize.sequence={rabi_bool}"],
    "sequence-delay-with-phase": ["fid", "--set", "fid.protocol=uc", "--set", "fid.sequence={delay_phase}"],
    "sequence-phase-overflow": ["fid", "--set", "fid.protocol=uc", "--set", "fid.sequence={overflow_pulse}"],
    # a fraction for an integer key and a boolean for a number are rejected, not truncated or taken as 1
    "optimize-ga-restarts-fraction": ["optimize", *TINY_GA, "--set", "optimize.ga.restarts=1.9"],
    "optimize-ga-restarts-bool": ["optimize", *TINY_GA, "--set", "optimize.ga.restarts=true"],
    "optimize-pulses-fraction": ["optimize", *TINY_GA, "--set", "optimize.n_pulses=2.5"],
    # pulse counts above MAX_PULSES fail before the search box is built
    "optimize-pulses-above-cap": ["optimize", *TINY_GA, "--set", "optimize.n_pulses=11"],
    "optimize-pulses-1e12": ["optimize", *TINY_GA, "--set", "optimize.n_pulses=1000000000000"],
    "optimize-robust-samples-fraction": [
        "optimize", *TINY_GA, "--set", 'optimize.robust={{"lo_mhz": 0.48, "hi_mhz": 0.52, "n_samples": 2.9}}',
    ],
    "seed-fraction": ["optimize", *TINY_GA, "--set", "seed=1.5"],
    # the search seed is the top-level seed, not a key of a ga block, and is never negative
    "optimize-ga-seed": ["optimize", *TINY_GA, "--set", "optimize.ga.seed=3"],
    "tables-ga-seed": ["tables", "--which", "III", *TINY_TABLES_GA, "--set", "tables.ga.seed=3"],
    "optimize-seed-negative": ["optimize", *TINY_GA, "--seed", "-1"],
    "tables-seed-negative": ["tables", "--which", "III", *TINY_TABLES_GA, "--seed", "-1"],
    # a finite penalty whose term overflows on the longest sequence
    "optimize-penalty-overflow": ["optimize", *TINY_GA, "--set", "optimize.duration_penalty=1e308"],
    # restarts above the bound fail before any start is drawn
    "optimize-ga-restarts-huge": ["optimize", *TINY_GA, "--set", "optimize.ga.restarts=100000000000"],
    # the polish's first evaluation scores the starts, so a search spends at least one
    "optimize-ga-polish-zero": ["optimize", *TINY_GA, "--set", "optimize.ga.polish_evals=0"],
    # more drive-amplitude samples than MAX_DRIVE_SAMPLES fail before the
    # kernel builds one eigendecomposition per sample
    "optimize-robust-samples-huge": [
        "optimize", *TINY_GA, "--set", 'optimize.robust={{"lo_mhz": 0.4, "hi_mhz": 0.5, "n_samples": 1000000}}',
    ],
    "optimize-robust-samples-above-cap": [
        "optimize", *TINY_GA, "--set", 'optimize.robust={{"lo_mhz": 0.4, "hi_mhz": 0.5, "n_samples": 1001}}',
    ],
    "optimize-robust-negative": [
        "optimize", *TINY_GA, "--set", "optimize.target=u_90", "--set", "optimize.n_pulses=2",
        "--set", 'optimize.robust={{"lo_mhz": -0.5, "hi_mhz": 0.52}}',
    ],
    # grids above MAX_GRID_SAMPLES fail before any sample is built: 10^9
    # samples (8 GB a grid, which may be granted and then exhaust memory) and
    # 10^15 (more than any machine can allocate)
    "esr-points-huge": ["esr", "--set", "esr.n_points=1000000000000000"],
    "polarize-points-huge": ["polarize", "--set", "polarize.n_points=1000000000000000"],
    "fid-record-huge": ["fid", "--set", "fid.record_us=1e15"],
    "esr-points-1e9": ["esr", "--set", "esr.n_points=1000000000"],
    "polarize-points-1e9": ["polarize", "--set", "polarize.n_points=1000000000"],
    "fid-record-1e9": ["fid", "--set", "fid.protocol=analytic_uc", "--set", "fid.record_us=1e9"],
    # zero-filling the 4-sample FID 500000 times asks for 10^6 + 1 frequency
    # bins, one over the cap, and 10^12 times for about 2 x 10^12
    "spectrum-zerofill-above-cap": [
        "spectrum", "--set", "spectrum.fid_csv={fid_csv}", "--set", "spectrum.zerofill_factor=500000",
    ],
    "spectrum-zerofill-1e12": [
        "spectrum", "--set", "spectrum.fid_csv={fid_csv}", "--set", "spectrum.zerofill_factor=1000000000000",
    ],
    "seed-bool": ["angles", "--set", "seed=true"],
    "esr-branch-bool": ["esr", "--set", "esr.branch=true"],
    "esr-points-fraction": ["esr", "--set", "esr.n_points=3.9"],
    "spectrum-peaks-fraction": [
        "spectrum", "--set", "spectrum.fid_csv={fid_csv}", "--set", "spectrum.n_peaks=2.7",
    ],
    "spectrum-zerofill-fraction": [
        "spectrum", "--set", "spectrum.fid_csv={fid_csv}", "--set", "spectrum.zerofill_factor=2.5",
    ],
    # a rate given with another window would be recorded but never applied
    "spectrum-exp-rate-unused": ["spectrum", "--set", "spectrum.fid_csv={fid_csv}", "--set", "spectrum.exp_rate=0.5"],
    "spectrum-exp-rate-bool": [
        "spectrum", "--set", "spectrum.fid_csv={fid_csv}", "--set", "spectrum.window=exponential",
        "--set", "spectrum.exp_rate=true",
    ],
    "fid-record-bool": ["fid", "--set", "fid.record_us=true"],
    "fid-polarization-bool": ["fid", "--set", "fid.protocol=u90_ms0", "--set", "fid.polarization=true"],
    "params-field-bool": ["angles", "--set", "params.b_mt=true"],
    "params-override-bool": ["angles", "--set", "params.nu_c_override=true"],
    "polarize-c0-bool": ["polarize", "--set", "polarize.c0=true"],
    # bad data in a readable file, and parameters with no nuclear quantization axis
    "spectrum-fid-nonuniform": ["spectrum", "--set", "spectrum.fid_csv={nonuniform_csv}"],
    "spectrum-fid-repeated-delay": ["spectrum", "--set", "spectrum.fid_csv={repeated_csv}"],
    "fit-sinusoid-one-delay": ["fit", "sinusoid", "--data", "{one_delay_csv}", "--nu", "0.1"],
    **{
        f"{argv[0]}-degenerate-axis": [
            *argv, "--set", "params.a_zx=0", "--set", "params.a_zz=-0.1", "--set", "params.nu_c_override=0.1",
        ]
        for argv in (["angles"], ["esr"], ["fid", "--set", "fid.protocol=uc"])
    },
}


def test_drive_sample_cap_is_inclusive():
    """A band of exactly MAX_DRIVE_SAMPLES samples is accepted; one more is
    the usage error above."""
    from nvctrl.fidelity import MAX_DRIVE_SAMPLES

    assert nc.RobustnessRange(0.4, 0.5, MAX_DRIVE_SAMPLES).samples().size == MAX_DRIVE_SAMPLES
    with pytest.raises(ValueError, match="n_samples"):
        nc.RobustnessRange(0.4, 0.5, MAX_DRIVE_SAMPLES + 1)


def test_pulse_cap_is_inclusive(paper):
    """A search of exactly MAX_PULSES pulses is accepted; one more is the
    usage error above."""
    from nvctrl.optimizer import MAX_PULSES, genome_bounds

    target = nc.build_target("u_90", paper, 0.5)
    problem = nc.ControlProblem(paper, target, n_pulses=MAX_PULSES)
    assert genome_bounds(problem)[0].size == 3 * MAX_PULSES
    with pytest.raises(ValueError, match=f"n_pulses must not exceed {MAX_PULSES}"):
        nc.ControlProblem(paper, target, n_pulses=MAX_PULSES + 1)


def test_grid_cap_is_inclusive(tmp_path, capsys):
    """A grid of exactly MAX_GRID_SAMPLES samples is accepted; one more is
    the usage error above, and the message names the count and the cap."""
    from nvctrl.experiments import default_tau_grid

    assert default_tau_grid(MAX_GRID_SAMPLES, 1.0).size == MAX_GRID_SAMPLES
    with pytest.raises(ValueError, match=f"{MAX_GRID_SAMPLES + 1} samples, more than the {MAX_GRID_SAMPLES}"):
        default_tau_grid(MAX_GRID_SAMPLES + 0.5, 1.0)
    # a 3-sample FID zero-filled f times has 3f // 2 + 1 frequency bins
    fid = nc.FidTrace(np.arange(3.0), np.array([0.5, 0.75, 0.25]), "uc")
    assert nc.spectrum_from_fid(fid, "none", 666666).freq_mhz.size == MAX_GRID_SAMPLES
    with pytest.raises(ValueError, match=f"{MAX_GRID_SAMPLES + 1} samples, more than the {MAX_GRID_SAMPLES}"):
        nc.spectrum_from_fid(fid, "none", 666667)
    for command in ("esr", "polarize"):
        out = tmp_path / command
        assert run([command, "--set", f"{command}.n_points={MAX_GRID_SAMPLES + 1}", "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"{command}.n_points asks for {MAX_GRID_SAMPLES + 1} samples" in err and not out.exists()


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_usage_error(tmp_path, capsys, argv):
    files = {
        "not_json": "{ this is not JSON\n",
        "no_phase": json.dumps({"rabi_mhz": 0.5, "segments": [{"kind": "pulse", "us": 1.0}]}),
        "sequence": json.dumps({"rabi_mhz": 0.5, "segments": [{"kind": "pulse", "us": 1.0, "phase_rad": 0.0}]}),
        "nan_delay": '{"rabi_mhz": 0.5, "segments": [{"kind": "delay", "us": NaN}]}',
        "long_delay": json.dumps({"rabi_mhz": 0.5, "segments": [{"kind": "delay", "us": 100.0}]}),
        "huge_delay": json.dumps({"rabi_mhz": 0.5, "segments": [{"kind": "delay", "us": 1e20}]}),
        "us_bool": json.dumps({"rabi_mhz": 0.5, "segments": [{"kind": "pulse", "us": True, "phase_rad": 0.0}]}),
        "rabi_bool": json.dumps({"rabi_mhz": True, "segments": [{"kind": "delay", "us": 1.0}]}),
        "delay_phase": json.dumps({"rabi_mhz": 0.5, "segments": [{"kind": "delay", "us": 1, "phase_rad": 3}]}),
        "overflow_pulse": json.dumps({"rabi_mhz": 0.5, "segments": [{"kind": "pulse", "us": 1e308, "phase_rad": 0.0}]}),
        "fid_csv": "tau_us,signal\n0.0,0.5\n1.0,0.75\n2.0,0.25\n3.0,0.5\n",
        "bad_header_csv": "time,value\n0.0,0.5\n1.0,0.75\n",
        "empty_csv": "",
        "two_rows_csv": "tau_us,signal\n0.0,0.5\n1.0,0.75\n",
        "one_column_csv": "d_l_us\n" + "".join(f"{d}.0\n" for d in range(8)),
        "nan_csv": "tau_us,signal\n0.0,0.5\n1.0,nan\n2.0,0.25\n3.0,0.5\n4.0,0.75\n5.0,0.25\n",
        "inf_csv": "tau_us,signal\n0.0,0.5\n1.0,0.75\n2.0,0.25\ninf,0.5\n",
        "nonuniform_csv": "tau_us,signal\n0.0,0.5\n1.0,0.75\n3.0,0.25\n4.0,0.5\n",
        "repeated_csv": "tau_us,signal\n0.0,0.5\n1.0,0.75\n1.0,0.25\n2.0,0.5\n",
        "one_delay_csv": "tau_us,signal\n" + "2.0,0.5\n" * 6,
        "nan_polarization_csv": "d_l_us,p\n" + "".join(f"{d}.0,{'nan' if d == 3 else 0.1 * d}\n" for d in range(8)),
        "unknown_root": json.dumps({"params": {"b_mt": 0.05}, "paramz": {"b_gauss": 1}}),
    }
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    out = tmp_path / "out"
    assert run([a.format(**paths) for a in argv] + ["--out", out]) == 2
    err = capsys.readouterr().err
    # the usage-error line alone: no traceback and no printed warning
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not out.exists()


def test_fid_key_the_protocol_does_not_read_is_named(tmp_path, capsys):
    """For every protocol, each fid key it does not read exits 2 before any
    file is read, and the usage error names the key."""
    values = {"sequence": "/nonexistent.json", "sequence_dagger": "/nonexistent.json",
              "sequence_readout": "/nonexistent.json", "polarization": "0.3"}
    for protocol, keys in cli._FID_KEYS.items():
        assert set(keys) <= values.keys()
        for key in values.keys() - set(keys):
            out = tmp_path / "out"
            assert run(["fid", "--set", f"fid.protocol={protocol}", "--set", f"fid.{key}={values[key]}",
                        "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and repr(key) in err and protocol in err, (protocol, key)
            assert not out.exists()


# each command that runs no search, with every key of the block it reads and the key's declared type
FUZZ_KEYS = {
    command: {f"{block}.{key}": cli._kind(decl) for key, decl in cli._BLOCKS[block].items()}
    for command, block in (("angles", "params"), ("esr", "esr"), ("fid", "fid"), ("spectrum", "spectrum"),
                           ("bloch", "bloch"), ("polarize", "polarize"))
}
FUZZ_PATH_KEYS = {"fid.sequence", "fid.sequence_dagger", "fid.sequence_readout", "spectrum.fid_csv",
                  "bloch.sequence", "polarize.sequence"}
# every value is either rejected or too large to allocate (1e308), so no
# draw builds a big grid
FUZZ_VALUES = ("NaN", "Infinity", "-Infinity", "-1", "0", "0.5", "1e308",
               '"bogus"', "null", "true", "[]", "{}")


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    case=st.sampled_from(sorted(FUZZ_KEYS)).flatmap(
        lambda command: st.tuples(st.just(command), st.sampled_from(sorted(FUZZ_KEYS[command])))
    ),
    value=st.sampled_from(FUZZ_VALUES),
)
def test_fuzzed_config_value_keeps_exit_contract(tmp_path, case, value):
    command, key = case
    seq_path = tmp_path / "seq.json"
    fid_path = tmp_path / "fid.csv"
    if not seq_path.exists():
        nc.PulseSequence(0.5, (nc.Delay(0.2), nc.Pulse(1.0, 0.5))).save(seq_path)
        tau = np.arange(16.0)
        nc.FidTrace(tau, 0.5 + 0.25 * np.cos(math.pi * tau)).to_csv(fid_path)
    base = {
        "spectrum": ["--set", f"spectrum.fid_csv={fid_path}"],
        "bloch": ["--set", f"bloch.sequence={seq_path}"],
    }.get(command, [])
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run([command, *base, "--set", f"{key}={value}", "--out", out])
    # a config value alone causes no OS error; only a path that names no file does
    assert code in (0, 2) or (code == 3 and value == '"bogus"' and key in FUZZ_PATH_KEYS)
    # no key takes a boolean, and an integer key takes no fraction
    if value == "true" or (value == "0.5" and FUZZ_KEYS[command][key] is int):
        assert code == 2
    assert "Traceback" not in err.getvalue()
    assert code == 0 or not out.exists()
    # every JSON output is RFC 8259 JSON, which has no NaN or Infinity
    for path in out.glob("*.json") if code == 0 else ():
        json.loads(path.read_text(), parse_constant=_refuse_constant)
    shutil.rmtree(out, ignore_errors=True)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--set", "spectrum.window=exponential", "--set", "spectrum.exp_rate=1e308"], 0),
    (["fit", "sinusoid", "--nu", "1e308"], 2),
], ids=["spectrum-exp-rate-overflow", "fit-sinusoid-nu-overflow"])
def test_values_past_float_range_raise_no_numpy_warning(tmp_path, argv, code):
    """An exponential window whose weights underflow to 0 is a valid window,
    and a phase 2 pi nu tau past float range is refused before numpy sees it."""
    fid_path = tmp_path / "fid.csv"
    tau = np.arange(16.0)
    nc.FidTrace(tau, 0.5 + 0.25 * np.cos(math.pi * tau)).to_csv(fid_path)
    source = ["--set", f"spectrum.fid_csv={fid_path}"] if argv[0] == "spectrum" else ["--data", fid_path]
    assert run([*argv, *source, "--out", tmp_path / "out"]) == code


# the command that reads each config block, with options that give its
# other keys valid values; every check fails before a file is read or a
# search runs
BLOCK_COMMANDS = {
    "params": ["angles"],
    "esr": ["esr"],
    "optimize": ["optimize", *TINY_GA],
    "optimize.robust": ["optimize", *TINY_GA, "--set", 'optimize.robust={"lo_mhz": 0.48, "hi_mhz": 0.52}'],
    "optimize.ga": ["optimize", *TINY_GA],
    "fid": ["fid"],
    "spectrum": ["spectrum", "--set", "spectrum.fid_csv=fid.csv"],
    "bloch": ["bloch", "--set", "bloch.sequence=seq.json"],
    "polarize": ["polarize"],
    "tables": ["tables", "--set", "tables.which=III", *TINY_TABLES_GA],
    "tables.ga": ["tables", "--which", "III", *TINY_TABLES_GA],
    "fit polarization": ["fit", "polarization"],
    "fit sinusoid": ["fit", "sinusoid", "--set", "fit.data=fid.csv", "--set", "fit.nu_mhz=0.1"],
    "fit fidelities": ["fit", "fidelities", *[a for k in cli._FIT_RATIOS for a in ("--set", f"fit.{k}=0.5")]],
}


def test_every_key_rejects_booleans_and_integer_keys_reject_fractions(tmp_path, capsys):
    """`true` for any key and 0.5 for an integer key exit 2, and the usage
    error names the full dotted key."""
    assert BLOCK_COMMANDS.keys() == cli._BLOCKS.keys()
    for name, spec in cli._BLOCKS.items():
        for key, decl in spec.items():
            dotted = f"{name.split()[0]}.{key}"
            for value in ("true", "0.5") if cli._kind(decl) is int else ("true",):
                out = tmp_path / "out"
                code = run([*BLOCK_COMMANDS[name], "--set", f"{dotted}={value}", "--out", out])
                assert code == 2, (dotted, value)
                err = capsys.readouterr().err
                assert err.startswith("usage error:") and dotted in err, (dotted, value, err)
                assert not out.exists()


VALID_SEQUENCE = {
    "rabi_mhz": 0.5,
    "segments": [{"kind": "delay", "us": 0.2}, {"kind": "pulse", "us": 1.0, "phase_rad": 0.5}],
}
SEQUENCE_COMMANDS = {
    "bloch": ["bloch", "--set", "bloch.sequence={path}"],
    "fid": ["fid", "--set", "fid.protocol=uc", "--set", "fid.sequence={path}"],
    "polarize": ["polarize", "--set", "polarize.sequence={path}"],
}
# where a mutation lands: the document, a top-level key, a segment, or a
# segment's field (including a field the segment's kind does not have)
SEQUENCE_PATHS = [(), ("rabi_mhz",), ("segments",), ("extra",)] + [
    ("segments", i, *key) for i in (0, 1, 2) for key in ((), ("kind",), ("us",), ("phase_rad",))
]
SEQUENCE_VALUES = (None, True, False, 0, -1, 0.5, 10**400, 1e308, -1e308, math.nan, math.inf,
                   "bogus", "delay", "pulse", [], {}, {"kind": "delay", "us": 1e20})


def _mutated(doc, path, action, value):
    """`doc` with the entry at `path` deleted or set to `value`; a path that
    runs through a non-container or a missing entry leaves `doc` as it is."""
    if not path:
        return {} if action == "delete" else value
    node = doc
    for key in path[:-1]:
        if isinstance(node, dict) and key in node:
            node = node[key]
        elif isinstance(node, list) and isinstance(key, int) and key < len(node):
            node = node[key]
        else:
            return doc
    key = path[-1]
    if isinstance(node, dict):
        if action == "delete":
            node.pop(key, None)
        else:
            node[key] = value
    elif isinstance(node, list) and isinstance(key, int):
        if action == "delete":
            del node[key:key + 1]
        elif key < len(node):
            node[key] = value
        else:
            node.append(value)
    return doc


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(sorted(SEQUENCE_COMMANDS)),
    mutations=st.lists(
        st.tuples(
            st.sampled_from(SEQUENCE_PATHS),
            st.sampled_from(("set", "delete")),
            st.sampled_from(SEQUENCE_VALUES),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_fuzzed_sequence_file_keeps_exit_contract(tmp_path, command, mutations):
    """A valid sequence file with a few entries set to odd JSON values or
    deleted: every command that reads one exits 0, 2 or 3, prints no
    traceback, and writes nothing when it fails."""
    doc = json.loads(json.dumps(VALID_SEQUENCE))
    for path, action, value in mutations:
        doc = _mutated(doc, path, action, json.loads(json.dumps(value)))
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run([a.format(path=path) for a in SEQUENCE_COMMANDS[command]] + ["--out", out])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or not out.exists()
    shutil.rmtree(out, ignore_errors=True)
