"""Indirect control of a 13C nuclear spin near an NV center.

Microwave pulses on the electron spin, combined with free precession under an
anisotropic hyperfine coupling, steer the nuclear spin without any
radio-frequency drive.  The package provides the spin model, exact unitary
propagation of short pulse sequences, multistart gradient pulse synthesis for
target gates and state transfers, and simulations of the standard readout
experiments (indirect FID, spectra, nuclear polarization).

`import nvctrl` loads the spin model, the propagators, the fidelity targets
and the signal types.  The search (`optimizer`) and the readout experiments
(`experiments`) load on first access to one of their names.
"""

from importlib import import_module

from .errors import InvariantViolation, NoConvergence, NvctrlError
from .fidelity import (
    RobustnessRange,
    Target,
    build_target,
    gate_fidelity,
    robust_fidelity,
    sequence_fidelity,
    state_fidelity,
)
from .propagation import (
    Delay,
    DensityState,
    Pulse,
    PulseSequence,
    sequence_propagator,
    trajectory,
)
from .signals import FidTrace, Spectrum
from .spin_model import (
    Hamiltonian,
    SystemParams,
    build_hamiltonian_subspace,
    esr_lines,
    esr_spectrum,
    nuclear_frequencies,
    quantization_angles,
)

__version__ = "0.1.0"

# names that load their submodule on first access, by submodule
_LAZY = {
    "experiments": (
        "FidelityEstimates", "PolarizationModel", "PolarizationOutcome", "analytic_fid",
        "estimate_experimental_fidelities", "fid_u90", "fid_uc", "fid_uc_prime", "fit_fid_amplitude",
        "fit_polarization", "paper_polarization_model", "polarization_curve", "polarization_curve_max",
        "polarization_protocol_sim", "spectrum_from_fid",
    ),
    "optimizer": (
        "ControlProblem", "GaConfig", "MODE_FREE", "MODE_SWITCHED", "OptimResult", "decode", "optimize",
        "reproduce_tables",
    ),
}
_LAZY_NAME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "InvariantViolation", "NoConvergence", "NvctrlError",
    "RobustnessRange", "Target", "build_target", "gate_fidelity", "robust_fidelity",
    "sequence_fidelity", "state_fidelity",
    "Delay", "DensityState", "Pulse", "PulseSequence", "sequence_propagator", "trajectory",
    "FidTrace", "Spectrum",
    "Hamiltonian", "SystemParams", "build_hamiltonian_subspace", "esr_lines",
    "esr_spectrum", "nuclear_frequencies", "quantization_angles",
    *_LAZY_NAME,
]


def __getattr__(name):
    # looked up on every access and never stored here, so a rebinding of the
    # submodule's attribute shows through `nvctrl.<name>`
    if name in _LAZY:
        return import_module(f".{name}", __name__)
    if name in _LAZY_NAME:
        return getattr(import_module(f".{_LAZY_NAME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_NAME})
