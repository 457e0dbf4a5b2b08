"""Lambert W function on its two real branches, in double precision.

The package evaluates W(x), the inverse of y -> y*e^y, by dispatching a
piecewise initial approximation (branch-point series, rational fits,
asymptotic series, or a continued-logarithm recursion, depending on x)
and refining it with a single fourth-order Fritsch step.  A reference
solver (bracketed Newton to a one-ulp bracket), a decimal-places
accuracy metric with grid sweeps, two shower-physics profile inverses, a
command-line utility, and the Halley-vs-Fritsch step count
(``steps_to_converge``) round out the library.  Timing lives outside
the package, in the repository's ``perfbench/`` harness.
"""

from .accuracy import (
    STAGES,
    AccuracyReport,
    DELTA_CAP,
    GridSpec,
    accuracy_sweep,
    default_panels,
    delta_accuracy,
    write_report,
)
from .api import (
    RESIDUAL_TOL,
    EvalResult,
    W0_REGIONS,
    WM1_REGIONS,
    dispatch_region,
    lambert_w,
    lambert_w0,
    lambert_wm1,
    lambert_w_approximation,
    steps_to_converge,
)
from .approx import (
    BRANCH_POINT_COEFFICIENTS,
    BRANCH_POINT_TOL,
    MAX_SERIES_ORDER,
    MINUS_INV_E,
    ApproximationRegion,
    RationalFit,
    W0_FIT_1,
    W0_FIT_2,
    WM1_FIT,
    asymptotic_series,
    branch_point_series,
    continued_log_recursion_wm1,
    derive_branch_coefficients,
    rational_fit_eval,
)
from .branches import Branch
from .errors import DomainError, SingularityError
from .iteration import (
    SCHEMES,
    defining_residual,
    fritsch_step,
    halley_step,
)
from .oracle import reference_w
from .physics import (
    GaisserHillasParams,
    GhRoots,
    MOYAL_PEAK,
    gaisser_hillas,
    gh_inverse,
    gh_profile,
    gh_profile_inverse,
    gh_rescale,
    moyal,
    moyal_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "ApproximationRegion",
    "Branch",
    "BRANCH_POINT_COEFFICIENTS",
    "BRANCH_POINT_TOL",
    "DELTA_CAP",
    "DomainError",
    "EvalResult",
    "GaisserHillasParams",
    "GhRoots",
    "GridSpec",
    "MAX_SERIES_ORDER",
    "MINUS_INV_E",
    "MOYAL_PEAK",
    "RationalFit",
    "RESIDUAL_TOL",
    "SCHEMES",
    "SingularityError",
    "STAGES",
    "W0_FIT_1",
    "W0_FIT_2",
    "W0_REGIONS",
    "WM1_FIT",
    "WM1_REGIONS",
    "accuracy_sweep",
    "asymptotic_series",
    "branch_point_series",
    "continued_log_recursion_wm1",
    "default_panels",
    "defining_residual",
    "delta_accuracy",
    "derive_branch_coefficients",
    "dispatch_region",
    "fritsch_step",
    "gaisser_hillas",
    "gh_inverse",
    "gh_profile",
    "gh_profile_inverse",
    "gh_rescale",
    "halley_step",
    "lambert_w",
    "lambert_w0",
    "lambert_wm1",
    "lambert_w_approximation",
    "moyal",
    "moyal_inverse",
    "rational_fit_eval",
    "reference_w",
    "steps_to_converge",
    "write_report",
]
