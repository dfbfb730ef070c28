"""Ground-state energy bounds from local-energy extrema of trial wavefunctions.

A trial state phi > 0 with S = ln phi turns the eigenvalue problem into a
pointwise one: the global infimum and supremum of the local energy
(H phi)/phi bracket the lowest eigenvalue, with no integrals anywhere.  The
package ships the evaluation engine (:mod:`groundbound.core`), global extremum
searches (:mod:`groundbound.search`), four worked model systems
(:mod:`groundbound.systems`), an iterative bound-refinement loop
(:mod:`groundbound.refine`), independent finite-difference eigensolvers for
validation (:mod:`groundbound.oracle`), and a CLI (``groundbound``).
"""

from .core import (
    AsymptoticLimit,
    BoundsResult,
    Domain,
    Hamiltonian,
    LocalEnergyField,
    LogTrialFunction,
    SingularEvaluationError,
    SingularSet,
)
from .search import (
    ExtremumReport,
    SearchConfig,
    TrialFamily,
    bounds_of_field,
    global_max,
    global_min,
    optimize_parameters,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticLimit",
    "BoundsResult",
    "Domain",
    "ExtremumReport",
    "Hamiltonian",
    "LocalEnergyField",
    "LogTrialFunction",
    "SearchConfig",
    "SingularEvaluationError",
    "SingularSet",
    "TrialFamily",
    "bounds_of_field",
    "global_max",
    "global_min",
    "optimize_parameters",
    "__version__",
]
