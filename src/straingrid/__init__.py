"""straingrid: multi-strain co-colonization SIS metapopulation dynamics
and their reduction to a discrete-space replicator system."""

__version__ = "0.1.0"

from .connectivity import (renormalize_to_density, validate_connectivity,
                           volume_matrix)
from .errors import (ConfigError, ConfigParseError, ExtinctPatch,
                     NumericalBlowup, StiffnessFailure, StrainGridError,
                     SubcriticalPatch)
from .fullsim import (FullModel, ModelStack, extract_frequencies, init_on_manifold,
                      rhs_full, simulate_full, transmissible_load)
from .ode import IntegratorConfig, Trajectory, integrate
from .reduction import (Background, drift_matrix, fitness_matrix,
                        fitness_structure, left_eigenvector, migration_matrix,
                        neutral_equilibrium, speed_and_weights)
from .replicator import (ReplicatorSetup, rhs_replicator, setup_from_model,
                         simulate_replicator)
from .types import (ConnectivityMatrix, StrainPerturbations, full_state,
                    require_simplex)
from .validate import (ReductionReport, convergence_study, default_tau_horizon,
                       reduction_error)

__all__ = [
    "Background", "ConfigError", "ConfigParseError", "ConnectivityMatrix",
    "ExtinctPatch", "FullModel", "IntegratorConfig", "ModelStack", "NumericalBlowup",
    "ReductionReport", "ReplicatorSetup", "StiffnessFailure",
    "StrainGridError", "StrainPerturbations", "SubcriticalPatch",
    "Trajectory", "convergence_study", "default_tau_horizon",
    "drift_matrix", "extract_frequencies", "fitness_matrix",
    "fitness_structure", "full_state", "init_on_manifold", "integrate",
    "left_eigenvector", "migration_matrix", "neutral_equilibrium",
    "reduction_error", "renormalize_to_density",
    "require_simplex", "rhs_full", "rhs_replicator",
    "setup_from_model", "simulate_full", "simulate_replicator", "speed_and_weights",
    "transmissible_load", "validate_connectivity", "volume_matrix",
]
