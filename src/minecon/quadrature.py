"""Adaptive Simpson quadrature over a vectorized integrand.

The integrand is called with a numpy array of nodes and must return the
matching array of values; subdivision is driven per interval, with the local
error budget keyed to both an absolute and a relative tolerance.
"""

import math

import numpy as np

from .errors import ConvergenceError


def adaptive_simpson(f, a: float, b: float, rel_tol: float = 1e-10,
                     abs_tol: float = 0.0, max_depth: int = 50):
    """Integrate f over [a, b]; returns (value, error_estimate).

    An interval is accepted once its Richardson error estimate |S2 - S1|/15
    falls below its length-proportional share of max(abs_tol,
    rel_tol * |integral|); accepted contributions use the extrapolated value
    S2 + (S2 - S1)/15. Intervals still open after max_depth bisection levels
    raise ConvergenceError carrying the best estimate and the error actually
    achieved.
    """
    if b == a:
        return 0.0, 0.0
    if b < a:
        raise ValueError("integration interval must satisfy a <= b")
    if rel_tol <= 0 and abs_tol <= 0:
        raise ValueError("at least one of rel_tol, abs_tol must be positive")

    span = b - a
    m0 = 0.5 * (a + b)
    first = np.asarray(f(np.array([a, m0, b])), dtype=float)

    left = np.array([a])
    right = np.array([b])
    f_lo = first[0:1]
    f_mid = first[1:2]
    f_hi = first[2:3]
    simpson = span / 6.0 * (f_lo + 4.0 * f_mid + f_hi)

    accepted_value = 0.0
    accepted_error = 0.0
    # what the error reports if no level runs (max_depth < 0)
    best, achieved = float(simpson[0]), math.inf
    for depth in range(max_depth + 1):
        mid = 0.5 * (left + right)
        lm = 0.5 * (left + mid)
        rm = 0.5 * (mid + right)
        vals = np.asarray(f(np.concatenate([lm, rm])), dtype=float)
        f_lm = vals[: lm.size]
        f_rm = vals[lm.size:]

        h12 = (right - left) / 12.0
        s_left = h12 * (f_lo + 4.0 * f_lm + f_mid)
        s_right = h12 * (f_mid + 4.0 * f_rm + f_hi)
        s2 = s_left + s_right
        err = (s2 - simpson) / 15.0

        scale = abs(accepted_value + float(np.sum(s2)))
        tol = max(abs_tol, rel_tol * scale)
        done = np.abs(err) <= tol * (right - left) / span

        accepted_value += float(np.sum(s2[done] + err[done]))
        accepted_error += float(np.sum(np.abs(err[done])))

        keep = ~done
        if not np.any(keep):
            return accepted_value, accepted_error
        if depth == max_depth:
            best = accepted_value + float(np.sum(s2[keep] + err[keep]))
            achieved = accepted_error + float(np.sum(np.abs(err[keep])))
            break

        # children: [left, mid] and [mid, right]
        left, right = (np.concatenate([left[keep], mid[keep]]),
                       np.concatenate([mid[keep], right[keep]]))
        f_lo, f_mid, f_hi = (np.concatenate([f_lo[keep], f_mid[keep]]),
                             np.concatenate([f_lm[keep], f_rm[keep]]),
                             np.concatenate([f_mid[keep], f_hi[keep]]))
        simpson = np.concatenate([s_left[keep], s_right[keep]])

    raise ConvergenceError(
        f"adaptive Simpson did not reach tolerance within {max_depth} "
        f"refinement levels (achieved error {achieved:.3e})",
        best_estimate=best, achieved_error=achieved)
