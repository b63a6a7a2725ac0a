"""Phase-space model of a polarization-rotation sensor with parity readout.

A two-mode squeezed probe passes a rotation stage between two quarter-wave
plates; photon-number parity on one output mode carries the angle signal.
Gaussian states and symplectic transforms form the core; loss and thermal
noise enter through beam-splitter couplings to environment modes; a
truncated number-basis path cross-checks the results.
"""

from .detection import (
    closed_form_sensitivity,
    closed_form_signal,
    optimal_sensitivity,
    outcome_probabilities,
    parity_expectation,
    pipeline_signal,
    pipeline_slope,
    qcrb_sensitivity,
    signal_function,
    visibility,
)
from .elements import (
    PipelineSpec,
    build_pipeline,
    detector_vbs,
    qwp,
    rotator,
    thermal,
    tmsv,
    vacuum,
    vbs_pair,
)
from .phase_space import (
    GaussianState,
    SymplecticTransform,
    apply_transform,
    check_symplectic,
    direct_sum,
    reduce_to_modes,
    symplectic_form,
    validate_state,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianState",
    "PipelineSpec",
    "SymplecticTransform",
    "apply_transform",
    "build_pipeline",
    "check_symplectic",
    "closed_form_sensitivity",
    "closed_form_signal",
    "detector_vbs",
    "direct_sum",
    "optimal_sensitivity",
    "outcome_probabilities",
    "parity_expectation",
    "pipeline_signal",
    "pipeline_slope",
    "qcrb_sensitivity",
    "qwp",
    "reduce_to_modes",
    "rotator",
    "signal_function",
    "symplectic_form",
    "thermal",
    "tmsv",
    "vacuum",
    "validate_state",
    "vbs_pair",
    "visibility",
]
