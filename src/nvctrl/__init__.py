"""Indirect control of a 13C nuclear spin near an NV center.

Microwave pulses on the electron spin, combined with free precession under an
anisotropic hyperfine coupling, steer the nuclear spin without any
radio-frequency drive.  The package provides the spin model, exact unitary
propagation of short pulse sequences, multistart gradient pulse synthesis for
target gates and state transfers, and simulations of the standard readout
experiments (indirect FID, spectra, nuclear polarization).
"""

from .errors import InvariantViolation, NoConvergence, NvctrlError
from .experiments import (
    FidelityEstimates,
    PolarizationModel,
    PolarizationOutcome,
    analytic_fid,
    estimate_experimental_fidelities,
    fid_u90,
    fid_uc,
    fid_uc_prime,
    fit_fid_amplitude,
    fit_polarization,
    paper_polarization_model,
    polarization_curve,
    polarization_curve_max,
    polarization_protocol_sim,
    spectrum_from_fid,
)
from .fidelity import (
    RobustnessRange,
    Target,
    build_target,
    gate_fidelity,
    robust_fidelity,
    sequence_fidelity,
    state_fidelity,
)
from .optimizer import (
    ControlProblem,
    GaConfig,
    MODE_FREE,
    MODE_SWITCHED,
    OptimResult,
    decode,
    optimize,
    reproduce_tables,
)
from .propagation import (
    Delay,
    DensityState,
    Pulse,
    PulseSequence,
    bloch_vector,
    sequence_propagator,
    trajectory,
)
from .signals import FidTrace, Spectrum
from .spin_model import (
    Hamiltonian,
    SystemParams,
    build_hamiltonian_full,
    build_hamiltonian_subspace,
    esr_lines,
    esr_spectrum,
    nuclear_frequencies,
    quantization_angles,
)

__version__ = "0.1.0"
