"""Adaptive Simpson quadrature over a vectorized integrand.

The integrand is called with a numpy array of nodes and must return the
matching array of values; subdivision is driven per interval, with the local
error budget keyed to both an absolute and a relative tolerance.
`simpson_batch` runs K such integrals side by side, one refinement level at
a time; `adaptive_simpson` is its one-integral case.
"""

import math

import numpy as np

from .errors import ConvergenceError

# open intervals one refinement level may hold, summed over the integrals of
# a batch: about 28 times the widest level an optimizer batch of 64 growth
# rates reaches at the default tolerance (under 19,000), and a process peak
# of about 120 MB when a growth rate at --quad-tol 1e-12 runs into it (119
# MB with the CLI's allocator settings, 123 MB with glibc's defaults)
MAX_OPEN_INTERVALS = 1 << 19


def adaptive_simpson(f, a: float, b: float, rel_tol: float = 1e-10,
                     abs_tol: float = 0.0, max_depth: int = 50):
    """Integrate f over [a, b]; returns (value, error_estimate).

    An interval is accepted once its Richardson error estimate |S2 - S1|/15
    falls below its length-proportional share of max(abs_tol,
    rel_tol * |integral|); accepted contributions use the extrapolated value
    S2 + (S2 - S1)/15. Intervals still open after max_depth bisection levels,
    or a level that would hold more than MAX_OPEN_INTERVALS intervals,
    raise ConvergenceError carrying the best estimate and the error actually
    achieved.
    """
    if b == a:
        return 0.0, 0.0
    if b < a:
        raise ValueError("integration interval must satisfy a <= b")
    if rel_tol <= 0 and abs_tol <= 0:
        raise ValueError("at least one of rel_tol, abs_tol must be positive")
    value, error = simpson_batch(lambda t, owner: f(t), np.array([a]),
                                 np.array([b]), rel_tol, abs_tol, max_depth)
    return float(value[0]), float(error[0])


def simpson_batch(f, a: np.ndarray, b: np.ndarray, rel_tol, abs_tol,
                  max_depth: int = 50) -> tuple:
    """Integrate K integrands over [a_k, b_k] at once; returns (values, errors).

    f(t, owner) gets the nodes, which it must leave unchanged, and, for
    each node, the index k of the integral it belongs to. Each integral
    follows adaptive_simpson's rule with its own tolerances (rel_tol and
    abs_tol are scalars or length-K arrays; b_k >= a_k, and b_k == a_k
    integrates to 0). Its sums run over its own intervals in a fixed
    order, so an integral's value does not depend on the other integrals
    of the batch. A failure raises ConvergenceError for the integral
    holding the most open intervals (the lowest index on a tie), with that
    integral's own estimate and error.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = a.size
    span = b - a
    value = np.zeros(k)
    error = np.zeros(k)

    owner = np.flatnonzero(b != a)
    n = owner.size
    if n == 0:
        return value, error
    left = a[owner]
    right = b[owner]
    # the nodes of every open interval in three blocks of n: left ends,
    # midpoints, right ends; fx holds the integrand there
    x = np.concatenate([left, 0.5 * (left + right), right])
    fx = np.asarray(f(x, np.concatenate([owner, owner, owner])), dtype=float)
    simpson = span[owner] / 6.0 * (fx[:n] + 4.0 * fx[n:2 * n] + fx[2 * n:])

    # what the error reports if no level runs (max_depth < 0)
    depth = max_depth
    open_ = np.ones(n, dtype=bool)
    s_open, err_open = simpson, np.zeros(n)
    for depth in range(max_depth + 1):
        n = owner.size
        # the two halves of every interval, all left halves first: x[:2n]
        # holds their left ends, x[n:] their right ends
        half_owner = np.concatenate([owner, owner])
        quarter = x[:2 * n] + x[n:]
        quarter *= 0.5
        f_quarter = np.asarray(f(quarter, half_owner), dtype=float)
        # each half's Simpson sum, width/12 (f_lo + 4 f_quarter + f_hi)
        halves = 4.0 * f_quarter
        halves += fx[:2 * n]
        halves += fx[n:]
        width = x[2 * n:] - x[:n]
        pair = halves.reshape(2, n)
        pair *= width / 12.0
        s2 = pair[0] + pair[1]
        err = s2 - simpson
        err /= 15.0

        scale = np.abs(value + np.bincount(owner, s2, minlength=k))
        tol = np.maximum(abs_tol, rel_tol * scale)
        done = np.abs(err) <= tol[owner] * width / span[owner]

        done_owner, done_err = owner[done], err[done]
        value += np.bincount(done_owner, s2[done] + done_err, minlength=k)
        error += np.bincount(done_owner, np.abs(done_err), minlength=k)

        open_ = ~done
        s_open, err_open = s2, err
        live = n - done_owner.size
        if live == 0:
            return value, error
        if depth == max_depth or 2 * live > MAX_OPEN_INTERVALS:
            break

        # the halves of the open intervals are the next level's intervals;
        # on a level that closes none, that is every half
        x = (x[:2 * n], quarter, x[n:])
        fx = (fx[:2 * n], f_quarter, fx[n:])
        if live == n:
            owner, simpson = half_owner, halves
            x, fx = np.concatenate(x), np.concatenate(fx)
        else:
            kept = np.flatnonzero(open_)
            kept = np.concatenate([kept, kept + n])
            owner, simpson = half_owner.take(kept), halves.take(kept)
            x, fx = _gather(x, kept), _gather(fx, kept)

    worst = int(np.argmax(np.bincount(owner[open_], minlength=k)))
    mine = open_ & (owner == worst)
    best = float(value[worst] + np.sum(s_open[mine] + err_open[mine]))
    achieved = (float(error[worst] + np.sum(np.abs(err_open[mine])))
                if max_depth >= 0 else math.inf)
    message = (f"adaptive Simpson did not reach tolerance within {depth} "
               f"refinement levels (achieved error {achieved:.3e})")
    if depth < max_depth:
        message += (f": the next level would hold {2 * live} open "
                    f"intervals, over the cap of {MAX_OPEN_INTERVALS}")
    raise ConvergenceError(message, best_estimate=best,
                           achieved_error=achieved)


def _gather(blocks: tuple, index: np.ndarray) -> np.ndarray:
    # the blocks' entries at index, block after block, in one new array;
    # every index is in range, and mode "clip" takes straight into out
    # (mode "raise" would take into a copy)
    out = np.empty((len(blocks), index.size))
    for block, row in zip(blocks, out):
        block.take(index, out=row, mode="clip")
    return out.reshape(-1)
