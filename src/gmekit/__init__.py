"""gmekit: detect genuine tripartite and quadripartite entanglement.

Sufficient conditions built from local, generally non-hermitian operators:
violation certifies genuine multipartite entanglement, non-violation proves
nothing.  Includes state and operator constructors, a down-conversion
dynamics module on the conserved photon sector, and a derivative-free search
over rank-one local operators.
"""

from .downconv import (
    DownConversionParams,
    SubspaceAmplitudes,
    block_witness,
    even_pair_sum,
    evolve,
    subspace_hamiltonian,
    sweep_rows,
    time_series,
    to_pure_state,
)
from .downconv import witness as downconv_witness
from .exceptions import (
    DegenerateStateError,
    NumericalConsistencyError,
    ShapeError,
    ToolkitError,
    ValidationError,
)
from .linalg import (
    basis_index,
    basis_vector,
    hermitian_evolve,
    kron_all,
)
from .operators import (
    block_ops,
    block_sum,
    boson_annihilation,
    ketbra,
    parse_operator_specs,
    qutrit_lower,
    qutrit_raise,
    sigma_minus,
)
from .search import OptimizationResult, RankOneParams, optimize
from .states import (
    DensityMatrix,
    PureState,
    all_bipartitions,
    haar_random_state,
    load_state,
    random_biseparable,
    state_from_dict,
    superposition,
    white_noise_mix,
)
from .witness import (
    CONDITION_NAMES,
    DEFAULT_TOLERANCE,
    WitnessReport,
    bipartite_dagger,
    bipartite_product,
    condition_arity,
    evaluate_condition,
    noise_margin_curve,
    noise_threshold,
    quadripartite_dagger,
    tripartite_dagger,
    tripartite_product,
)

__version__ = "0.1.0"

__all__ = [
    "CONDITION_NAMES",
    "DEFAULT_TOLERANCE",
    "DegenerateStateError",
    "DensityMatrix",
    "DownConversionParams",
    "NumericalConsistencyError",
    "OptimizationResult",
    "PureState",
    "RankOneParams",
    "ShapeError",
    "SubspaceAmplitudes",
    "ToolkitError",
    "ValidationError",
    "WitnessReport",
    "all_bipartitions",
    "basis_index",
    "basis_vector",
    "bipartite_dagger",
    "bipartite_product",
    "block_ops",
    "block_sum",
    "block_witness",
    "boson_annihilation",
    "condition_arity",
    "downconv_witness",
    "evaluate_condition",
    "even_pair_sum",
    "evolve",
    "haar_random_state",
    "hermitian_evolve",
    "ketbra",
    "kron_all",
    "load_state",
    "noise_margin_curve",
    "noise_threshold",
    "optimize",
    "parse_operator_specs",
    "quadripartite_dagger",
    "qutrit_lower",
    "qutrit_raise",
    "random_biseparable",
    "sigma_minus",
    "state_from_dict",
    "subspace_hamiltonian",
    "superposition",
    "sweep_rows",
    "time_series",
    "to_pure_state",
    "tripartite_dagger",
    "tripartite_product",
    "white_noise_mix",
]
