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
# a batch. The widest next level (2 live) of an optimizer batch of 256
# growth rates is 53,930 on the reference and at most 69,486 on the
# benchmark's 16 sweep draws at the default tolerance, 7.5 times under the
# cap, and at most 223,342 at --quad-tol 1e-12, 2.3 times under it. A growth
# rate at --quad-tol 1e-12 that runs into the cap peaks at about 119 MB
# with the CLI's allocator settings
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
    # f gets the nodes flattened, one 1-D array per level
    value, error = simpson_batch(lambda t, owner: f(t.reshape(-1)),
                                 np.array([a]), np.array([b]), rel_tol,
                                 abs_tol, max_depth)
    return float(value[0]), float(error[0])


def simpson_batch(f, a: np.ndarray, b: np.ndarray, rel_tol, abs_tol,
                  max_depth: int = 50) -> tuple:
    """Integrate K integrands over [a_k, b_k] at once; returns (values, errors).

    f(t, owner) gets the nodes as a (rows, n) array, which it must leave
    unchanged, and the n-long index array owner: column j of t holds nodes
    of integral owner[j], so per-integral constants gathered once by owner
    broadcast over the rows. The first level passes 3 rows (left ends,
    midpoints, right ends), every later one 2 (the quarter points); f
    returns the values in t's shape. Each integral
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
    fx = _values(f, x, owner)
    simpson = span[owner] / 6.0 * (fx[:n] + 4.0 * fx[n:2 * n] + fx[2 * n:])

    # what the error reports if no level runs (max_depth < 0)
    depth = max_depth
    done = np.zeros(n, dtype=bool)
    estimate = simpson
    for depth in range(max_depth + 1):
        n = owner.size
        # the two halves of every interval, all left halves first: x[:2n]
        # holds their left ends, x[n:] their right ends
        quarter = x[:2 * n] + x[n:]
        quarter *= 0.5
        f_quarter = _values(f, quarter, owner)
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
        size = np.abs(err)
        done = size <= tol.take(owner) * width / span.take(owner)

        # the accepted intervals' extrapolated sums and error sizes, added
        # per integral in index order
        estimate = np.add(s2, err, out=s2)
        closed_owner = owner[done]
        value += np.bincount(closed_owner, estimate[done], minlength=k)
        error += np.bincount(closed_owner, size[done], minlength=k)
        live = n - closed_owner.size
        if live == 0:
            return value, error
        if depth == max_depth or 2 * live > MAX_OPEN_INTERVALS:
            break

        # the halves of the open intervals are the next level's intervals;
        # on a level that closes none, that is every half
        x = (x[:2 * n], quarter, x[n:])
        fx = (fx[:2 * n], f_quarter, fx[n:])
        if live == n:
            simpson = halves
            x, fx = np.concatenate(x), np.concatenate(fx)
        else:
            kept = np.flatnonzero(~done)
            owner = owner.take(kept)
            kept = np.concatenate([kept, kept + n])
            simpson = halves.take(kept)
            x, fx = _gather(x, kept), _gather(fx, kept)
        owner = np.concatenate([owner, owner])

    open_ = ~done
    worst = int(np.argmax(np.bincount(owner[open_], minlength=k)))
    mine = open_ & (owner == worst)
    best = float(value[worst] + np.sum(estimate[mine]))
    achieved = (float(error[worst] + np.sum(size[mine]))
                if max_depth >= 0 else math.inf)
    message = (f"adaptive Simpson did not reach tolerance within {depth} "
               f"refinement levels (achieved error {achieved:.3e})")
    if depth < max_depth:
        message += (f": the next level would hold {2 * live} open "
                    f"intervals, over the cap of {MAX_OPEN_INTERVALS}")
    raise ConvergenceError(message, best_estimate=best,
                           achieved_error=achieved)


def _values(f, nodes: np.ndarray, owner: np.ndarray) -> np.ndarray:
    # the integrand at nodes laid out as rows of owner.size, one column per
    # interval, flattened back into the blocks' order
    rows = nodes.reshape(-1, owner.size)
    return np.asarray(f(rows, owner), dtype=float).reshape(-1)


def _gather(blocks: tuple, index: np.ndarray) -> np.ndarray:
    # the blocks' entries at index, block after block, in one new array;
    # every index is in range, and mode "clip" takes straight into out
    # (mode "raise" would take into a copy)
    out = np.empty((len(blocks), index.size))
    for block, row in zip(blocks, out):
        block.take(index, out=row, mode="clip")
    return out.reshape(-1)
