"""straingrid: multi-strain co-colonization SIS metapopulation dynamics
and their reduction to a discrete-space replicator system."""

__version__ = "0.1.0"

from .connectivity import (ConnectivityReport, renormalize_to_density,
                           validate_connectivity, volume_matrix)
from .errors import (ConfigError, ConfigParseError, ExtinctPatch,
                     NumericalBlowup, StiffnessFailure, StrainGridError,
                     SubcriticalPatch)
from .fullsim import (FullModel, extract_frequencies, init_on_manifold,
                      rhs_full, simulate_full, transmissible_load)
from .ode import IntegratorConfig, Trajectory, integrate
from .reduction import (Background, FitnessStructure, LeftEigenvector,
                        MigrationMatrix, NeutralEquilibrium, drift_matrix,
                        fitness_matrix, fitness_structure, left_eigenvector,
                        migration_matrix, neutral_equilibrium,
                        speed_and_weights)
from .replicator import (ReplicatorSetup, rhs_replicator,
                         rhs_replicator_advection, setup_from_model,
                         simulate_replicator)
from .types import (ConnectivityMatrix, FrequencyState, FullState,
                    PatchParams, ScaleParams, StrainPerturbations)
from .validate import (ReductionReport, convergence_study, default_tau_horizon,
                       neutral_limit_check, reduction_error)

__all__ = [
    "Background", "ConfigError", "ConfigParseError", "ConnectivityMatrix",
    "ConnectivityReport", "ExtinctPatch", "FitnessStructure", "FrequencyState",
    "FullModel", "FullState", "IntegratorConfig", "LeftEigenvector",
    "MigrationMatrix",
    "NeutralEquilibrium", "NumericalBlowup", "PatchParams",
    "ReductionReport", "ReplicatorSetup", "ScaleParams", "StiffnessFailure",
    "StrainGridError", "StrainPerturbations", "SubcriticalPatch",
    "Trajectory", "convergence_study", "default_tau_horizon",
    "drift_matrix", "extract_frequencies", "fitness_matrix",
    "fitness_structure", "init_on_manifold", "integrate", "left_eigenvector",
    "migration_matrix", "neutral_equilibrium", "neutral_limit_check",
    "reduction_error", "renormalize_to_density", "rhs_full",
    "rhs_replicator", "rhs_replicator_advection", "setup_from_model",
    "simulate_full", "simulate_replicator", "speed_and_weights",
    "transmissible_load", "validate_connectivity", "volume_matrix",
]
