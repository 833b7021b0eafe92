"""pptlab: purified process tensors of finite-environment open quantum evolutions.

The library builds the purified process tensor (PPT) of a hidden
system-environment evolution as a matrix product state, analyses its
stationary behaviour and memory complexity through its transfer map,
evaluates multi-time correlations, and reconstructs the hidden evolution
from simulated measurements by disentangling tomography and variational
refitting.
"""

from .exceptions import (
    BoundViolationError,
    CapacityError,
    ConversionError,
    ConvergenceError,
    DegenerateStateError,
    DimensionError,
    PptlabError,
    SingularityError,
    UnsupportedPredictionError,
    ValidationError,
)
from .models import (
    OqeModel,
    SchmidtForm,
    near_identity_unitary,
    random_entangled_model,
    random_haar_state,
    random_haar_unitary,
    random_separable_model,
    schmidt_decompose,
)
from .ppt import (
    PptMps,
    build_ppt,
    check_isometry,
    gauge_fidelity,
    memory_size,
    mps_to_oqe,
    overlap,
    ppt_to_process_tensor,
    site_tensor_from_unitary,
    to_right_canonical,
)
from .memory import (
    ComplexityReport,
    evolve_env,
    fig_s2_csv,
    fig_s2_experiment,
    infidelity,
    initial_env_density,
    memory_complexity,
    renyi_complexity,
    stationarity_onset,
    stationary_state,
    uhlmann_fidelity,
)
from .correlations import (
    MultiTimeObservable,
    dense_expectation,
    expectation,
    expectations,
    pair_operator,
)
from .tensor_ops import polar_unitary
from .tomography import (
    MeasurementOracle,
    ReconstructionReport,
    disentangle_reconstruct,
    predict_future,
    reconstruct_entangled_initial,
    variational_fit,
)

__version__ = "0.1.0"

__all__ = [
    "OqeModel",
    "SchmidtForm",
    "PptMps",
    "MultiTimeObservable",
    "MeasurementOracle",
    "ReconstructionReport",
    "ComplexityReport",
    "build_ppt",
    "check_isometry",
    "to_right_canonical",
    "memory_size",
    "mps_to_oqe",
    "ppt_to_process_tensor",
    "site_tensor_from_unitary",
    "overlap",
    "gauge_fidelity",
    "evolve_env",
    "stationary_state",
    "stationarity_onset",
    "renyi_complexity",
    "memory_complexity",
    "uhlmann_fidelity",
    "infidelity",
    "initial_env_density",
    "fig_s2_experiment",
    "fig_s2_csv",
    "expectation",
    "expectations",
    "dense_expectation",
    "pair_operator",
    "polar_unitary",
    "disentangle_reconstruct",
    "variational_fit",
    "predict_future",
    "reconstruct_entangled_initial",
    "random_haar_unitary",
    "near_identity_unitary",
    "random_haar_state",
    "random_separable_model",
    "random_entangled_model",
    "schmidt_decompose",
    "PptlabError",
    "ValidationError",
    "DimensionError",
    "SingularityError",
    "ConvergenceError",
    "CapacityError",
    "DegenerateStateError",
    "ConversionError",
    "BoundViolationError",
    "UnsupportedPredictionError",
]
