"""semflow: C0-semigroup simulation under admissible feedback perturbations."""

from .core import (Grid, InputSignal, L1Space, ProductSpace, StateVector,
                   SupSpace, matexp, time_grid)
from .semigroups import (BlockDiag, LeftTranslation, MatrixSemigroup,
                         NilpotentShift, OrbitSeries, orbit)
from .maps import (BoundedControl, DirichletControl, DirectSolve,
                   IdentityControl, Neumann, NeutralBoundaryControl,
                   PerturbationTriple, control_map, estimate_io_norm, invert_io,
                   io_map, observation_map, perturbed_apply, perturbed_orbit)
from .translation import DirichletSpec, MeasureSpec
from .admissibility import (AdmissibilityReport, check_miyadera_voigt,
                            estimate_constants)
from .asymptotics import (AsymptoticVerdict, RobustnessConfig, asymptotics_run,
                          check_bounded, check_mean_ergodic, check_strongly_stable,
                          check_uniformly_ergodic, check_weakly_stable,
                          robustness_experiment)
from .neutral import (NeutralSystem, build_a0, build_perturbation,
                      method_of_steps, neutral_orbit)

__version__ = "0.1.0"

# read by provenance records; every kernel is plain numpy, none is compiled
NUMBA_ENABLED = False

__all__ = [
    "NUMBA_ENABLED", "Grid", "InputSignal", "L1Space", "ProductSpace",
    "StateVector", "SupSpace", "matexp", "time_grid",
    "BlockDiag", "LeftTranslation", "MatrixSemigroup", "NilpotentShift",
    "OrbitSeries", "orbit", "BoundedControl", "DirichletControl",
    "DirectSolve", "IdentityControl", "Neumann", "NeutralBoundaryControl",
    "PerturbationTriple", "control_map", "estimate_io_norm", "invert_io",
    "io_map", "observation_map", "perturbed_apply", "perturbed_orbit",
    "DirichletSpec", "MeasureSpec",
    "AdmissibilityReport", "check_miyadera_voigt", "estimate_constants",
    "AsymptoticVerdict", "RobustnessConfig",
    "asymptotics_run", "check_bounded", "check_mean_ergodic", "check_strongly_stable",
    "check_uniformly_ergodic", "check_weakly_stable", "robustness_experiment",
    "NeutralSystem", "build_a0", "build_perturbation", "method_of_steps",
    "neutral_orbit", "__version__",
]
