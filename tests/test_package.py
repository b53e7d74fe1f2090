"""The package namespace: what `import nvctrl` loads and what it exports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nvctrl as nc

# every exported name, by the submodule that defines it
EXPORTS = {
    "errors": ["InvariantViolation", "NoConvergence", "NvctrlError"],
    "experiments": [
        "FidelityEstimates", "PolarizationModel", "PolarizationOutcome", "analytic_fid",
        "estimate_experimental_fidelities", "fid_u90", "fid_uc", "fid_uc_prime", "fit_fid_amplitude",
        "fit_polarization", "paper_polarization_model", "polarization_curve", "polarization_curve_max",
        "polarization_protocol_sim", "spectrum_from_fid",
    ],
    "fidelity": [
        "RobustnessRange", "Target", "build_target", "gate_fidelity", "robust_fidelity",
        "sequence_fidelity", "state_fidelity",
    ],
    "optimizer": [
        "ControlProblem", "GaConfig", "MODE_FREE", "MODE_SWITCHED", "OptimResult", "decode", "optimize",
        "reproduce_tables",
    ],
    "propagation": [
        "Delay", "DensityState", "Pulse", "PulseSequence", "sequence_propagator", "trajectory",
    ],
    "signals": ["FidTrace", "Spectrum"],
    "spin_model": [
        "Hamiltonian", "SystemParams", "build_hamiltonian_subspace", "esr_lines",
        "esr_spectrum", "nuclear_frequencies", "quantization_angles",
    ],
}

# the imports and the work of perfbench's start-up probe, the package's
# submodules that were then loaded, and the two lazy submodules by attribute
STARTUP_PROBE = """
import sys
import nvctrl
from nvctrl.fidelity import build_target
from nvctrl.spin_model import SystemParams, build_hamiltonian_subspace
params = SystemParams()
build_hamiltonian_subspace(params)
for name in ("u_p", "u_90"):
    build_target(name, params, 0.5)
print(" ".join(sorted(m for m in sys.modules if m.startswith("nvctrl."))))
print(nvctrl.optimizer.__name__, nvctrl.experiments.__name__)
"""


def test_import_leaves_the_search_and_the_experiments_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(nc.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE], env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    loaded, resolved = out.splitlines()
    assert {"nvctrl.fidelity", "nvctrl.spin_model"} <= set(loaded.split())
    assert "nvctrl.optimizer" not in loaded.split() and "nvctrl.experiments" not in loaded.split()
    # and each resolves after the bare import
    assert resolved.split() == ["nvctrl.optimizer", "nvctrl.experiments"]


@pytest.mark.parametrize("module", EXPORTS)
def test_every_name_is_the_submodules_own_object(module):
    sub = getattr(nc, module)
    for name in EXPORTS[module]:
        assert getattr(nc, name) is getattr(sub, name), name


def test_all_star_import_and_dir_list_the_exports():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 48
    assert sorted(nc.__all__) == sorted(names)
    star = {}
    exec("from nvctrl import *", star)
    assert star.keys() - {"__builtins__"} == set(names)
    assert all(star[name] is getattr(nc, name) for name in names)
    assert set(names) | {"optimizer", "experiments"} <= set(dir(nc))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'nvctrl' has no attribute 'no_such_name'"):
        nc.no_such_name
    assert not hasattr(nc, "no_such_name")


def test_a_rebound_submodule_function_shows_through(monkeypatch):
    def stand_in(*args, **kwargs):
        return "stand-in"

    monkeypatch.setattr(nc.optimizer, "optimize", stand_in)
    assert nc.optimize is stand_in
    monkeypatch.undo()
    assert nc.optimize is nc.optimizer.optimize
