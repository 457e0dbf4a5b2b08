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

Each public name loads on first use: reading one imports the submodule
that defines it (``_EXPORTS`` below) and binds all of that submodule's
public names here, so a scalar ``lambert_w0`` call never loads the
accuracy sweeps, the reference solver or the physics inverses.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("accuracy", "STAGES AccuracyReport DELTA_CAP GridSpec accuracy_sweep"
                     " default_panels delta_accuracy write_report"),
        ("api", "RESIDUAL_TOL EvalResult W0_REGIONS WM1_REGIONS dispatch_region"
                " lambert_w lambert_w0 lambert_wm1 lambert_w_approximation"
                " steps_to_converge"),
        ("approx", "BRANCH_POINT_COEFFICIENTS ApproximationRegion RationalFit"
                   " W0_FIT_1 W0_FIT_2 WM1_FIT asymptotic_series branch_point_series"
                   " continued_log_recursion_wm1 rational_fit_eval"),
        ("branches", "BRANCH_POINT_TOL MINUS_INV_E Branch DomainError SingularityError"),
        ("iteration", "SCHEMES defining_residual fritsch_step halley_step"),
        ("oracle", "reference_w"),
        ("physics", "GhRoots MOYAL_PEAK gaisser_hillas gh_inverse moyal"
                    " moyal_inverse"),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name, name)  # a submodule name stands for itself
    if module not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    globals().update((key, getattr(loaded, key))
                     for key, home in _EXPORTS.items() if home == module)
    return globals()[name]


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
