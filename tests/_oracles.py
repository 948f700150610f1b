"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here deliberately avoids the candidate-enumeration machinery in
``splitsvm.losses``: minima are located by dense grid scans and linear systems
are solved with dense factorizations, so agreement is meaningful evidence.
Kernel values, the training objective and the augmented Lagrangian are
written out from their definitions with ``margin_value`` and plain numpy, not
through the helpers ``splitsvm.admm`` uses inside its loop.
"""

import numpy as np

from splitsvm.losses import margin_value

COARSE_STEP = 1e-4
FINE_STEP = 1e-7


def prox_subproblem(loss, rho, n, label, anchor):
    """Return the scalar objective a -> L(y, a)/N + (rho/2)(a - anchor)^2."""

    def g(a):
        a = np.asarray(a, dtype=float)
        return margin_value(loss, label * a) / n + 0.5 * rho * (a - anchor) ** 2

    return g


def grid_prox(loss, rho, n, label, anchor):
    """Two-stage grid scan for the prox subproblem minimum.

    Coarse 1e-4 sweep of [u - 3 - 2/(rho N), u + 3 + 2/(rho N)], then a 1e-7
    sweep of the coarse cell pair surrounding the coarse argmin.  Returns
    (argmin, value).
    """
    g = prox_subproblem(loss, rho, n, label, anchor)
    halfwidth = 3.0 + 2.0 / (rho * n)
    grid = np.arange(anchor - halfwidth, anchor + halfwidth + COARSE_STEP, COARSE_STEP)
    vals = g(grid)
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    fine = np.arange(lo, hi + FINE_STEP, FINE_STEP)
    fvals = g(fine)
    j = int(np.argmin(fvals))
    return float(fine[j]), float(fvals[j])


def random_prox_cases(count, seed):
    """Yield (label, rho, n, anchor) tuples matching the randomized suite."""
    rng = np.random.default_rng(seed)
    labels = rng.choice([-1.0, 1.0], size=count)
    rhos = rng.uniform(0.01, 10.0, size=count)
    ns = rng.integers(1, 1001, size=count)
    anchors = rng.uniform(-10.0, 10.0, size=count)
    return zip(labels, rhos, ns, anchors)


def dense_solve(matrix, b):
    return np.linalg.solve(np.asarray(matrix, dtype=float), np.asarray(b, dtype=float))


def eval_kernel(spec, x, xp):
    """k(x, x') for one pair of 1-D points, from the kernel's definition."""
    diff = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
    if spec.family == "gaussian":
        dist = float(np.sum(diff * diff))
    else:
        dist = float(np.sum(np.abs(diff)))
    return float(np.exp(-spec.sigma * dist))


def objective_value(loss, labels, A, cfg, c):
    """Training objective (1/n) sum_i L(y_i, (A c)_i) + lam c^T A c."""
    c = np.asarray(c, dtype=float)
    t = A.entries @ c
    return float(np.mean(margin_value(loss, np.asarray(labels) * t)) + cfg.lam * (c @ t))


def lagrangian(loss, labels, A, cfg, st):
    """Augmented Lagrangian at a state, with the multiplier gamma = 2 lam c:

    F(alpha) + lam c^T A c + gamma^T (alpha - A c) + (rho/2) ||alpha - A c||^2.
    """
    t = A.entries @ st.c
    split = st.alpha - t
    gamma = 2.0 * cfg.lam * st.c
    return float(
        np.mean(margin_value(loss, np.asarray(labels) * st.alpha))
        + cfg.lam * (st.c @ t)
        + gamma @ split
        + 0.5 * cfg.rho * (split @ split)
    )
