"""Re-derive the rational-fit coefficient tables at full precision.

The coefficient tables in ``lambertw.approx`` are conventionally printed
truncated to six decimals, but the evaluation path wants full doubles.
A free least squares fit cannot recover them: the optimum sits in a
shallow valley (coefficient moves of 1e-3 change the fitted function by
far less than the fit residual), so every reasonable choice of sample
spacing and weighting lands at a different point of the valley, well
outside the printed six-decimal windows.

This script therefore runs a box-constrained least squares fit: each
coefficient is bounded to its truncation window [printed, printed+1e-6)
(sign-aware, truncation is toward zero), and within that box the
linearized residual  w*D(x) - x*N(x)  is minimized with
Sanathanan-Koerner reweighting (rows divided by the previous |D|), which
converges to the true least squares fit of w - Q(x) subject to the box.
The result is the unique full-precision table that both agrees with
every printed digit and is optimal in the least squares sense.

Samples are w-equally-spaced with x = w*e^w spanning each fit window:
[-0.3, 0] and [0.3, 2e] for the two branch 0 fits, and the dispatch
interval [-0.302985, -0.051012] for the branch -1 fit.  The W values at
the window ends are frozen as the doubles the tables were fitted from,
so the fit does not move when the package's reference solver does.

Needs scipy, declared as the ``dev`` extra:  pip install -e '.[dev]'
Run from the repo root:  python tools/refit_rational.py
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import lsq_linear

SAMPLES = 4001
SK_ROUNDS = 50

PRINTED = {
    "W0_FIT_1": {
        # W at x = -0.3 and x = 0.
        "w_ends": (-0.48940222718021487, 0.0),
        "leading_x": True,
        "num": [5.931375, 11.392205, 7.338883, 0.653449],
        "den": [6.931373, 16.823494, 16.430723, 5.115235],
    },
    "W0_FIT_2": {
        # W at x = 0.3 and x = 2e.
        "w_ends": (0.2367553107885593, 1.3748225281836233),
        "leading_x": True,
        "num": [2.445053, 1.343664, 0.148440, 0.000804],
        "den": [3.444708, 3.292489, 0.916460, 0.053068],
    },
    "WM1_FIT": {
        # W_-1 at x = -0.302985 and x = -0.051012.
        "w_ends": (-1.7585768584487387, -4.473970692162747),
        "leading_x": False,
        "num": [-7.814176, 253.888101, 657.949317],
        "den": [-60.439587, 99.985670, 682.607399, 962.178439, 1477.934128],
    },
}


def _samples(w_lo: float, w_hi: float) -> tuple[np.ndarray, np.ndarray]:
    w = np.linspace(w_lo, w_hi, SAMPLES)
    return w * np.exp(w), w


def _truncation_box(printed: list[float]) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(printed)
    lo = np.where(p >= 0.0, p, p - 1e-6)
    hi = np.where(p >= 0.0, p + 1e-6, p)
    return lo, hi


def fit_table(name: str) -> tuple[np.ndarray, np.ndarray]:
    spec = PRINTED[name]
    x, w = _samples(*spec["w_ends"])
    num_printed, den_printed = spec["num"], spec["den"]
    if spec["leading_x"]:
        cols = [x ** (k + 1) for k in range(1, len(num_printed) + 1)]
        target = w - x
    else:
        cols = [x ** k for k in range(len(num_printed))]
        target = w.copy()
    cols += [-w * x ** j for j in range(1, len(den_printed) + 1)]
    design = np.column_stack(cols)
    lo_n, hi_n = _truncation_box(num_printed)
    lo_d, hi_d = _truncation_box(den_printed)
    lo = np.concatenate([lo_n, lo_d])
    hi = np.concatenate([hi_n, hi_d])
    n_num = len(num_printed)
    theta = 0.5 * (lo + hi)
    for _ in range(SK_ROUNDS):
        b = theta[n_num:]
        denom = np.abs(1.0 + sum(bj * x ** (j + 1) for j, bj in enumerate(b)))
        res = lsq_linear(design / denom[:, None], target / denom, bounds=(lo, hi), tol=1e-15)
        if np.allclose(res.x, theta, rtol=0.0, atol=5e-17):
            theta = res.x
            break
        theta = res.x
    return theta[:n_num], theta[n_num:]


def main() -> None:
    for name, spec in PRINTED.items():
        a, b = fit_table(name)
        print(f"{name}:")
        num = ([1.0] if spec["leading_x"] else []) + list(a)
        den = [1.0] + list(b)
        print("    numerator=(", ", ".join(repr(float(v)) for v in num), "),")
        print("    denominator=(", ", ".join(repr(float(v)) for v in den), "),")
        # confirm every coefficient truncates to the printed digits
        for v, p in zip(list(a) + list(b), spec["num"] + spec["den"]):
            trunc = np.trunc(abs(v) * 1e6) / 1e6 * (1 if v >= 0 else -1)
            ok = f"{trunc:.6f}" == f"{p:.6f}"
            if not ok:
                print(f"    DIGIT MISMATCH: {v!r} vs printed {p}")
    print("done")


if __name__ == "__main__":
    main()
