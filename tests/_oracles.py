"""Independent brute-force oracles used by the unit and acceptance tests.

Minima are located by dense grid scans or by enumerating every candidate of
a piecewise loss, and linear systems are solved with dense factorizations,
so agreement with ``splitsvm`` is meaningful evidence.  The enumerator
scores its candidates with its own loop over each loss's pieces, not with
the expressions ``splitsvm.losses`` evaluates.  Kernel values, the training
objective and the augmented Lagrangian are written out from their
definitions with ``margin_value`` and plain numpy, not through the helpers
``splitsvm.admm`` uses inside its loop, and ``textbook_admm`` iterates
from the definition of the method with none of them.  The CSV references
read a file row by row with ``float()`` on each cell and format each value
on its own, as the data module once did.
"""

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from splitsvm.errors import InputError
from splitsvm.losses import TIE_TOL, margin_value

_INF = float("inf")

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


@dataclass(frozen=True)
class Piece:
    """One piece of a margin loss on [lo, hi): affine b + s*z or log(2 - z)."""

    lo: float
    hi: float
    kind: str  # "affine" | "log"
    slope: float = 0.0
    intercept: float = 0.0


@dataclass(frozen=True)
class PiecewiseLoss:
    """A margin loss given by pieces that partition the real line."""

    name: str
    pieces: tuple
    breakpoints: tuple = field(init=False)

    def __post_init__(self):
        if not self.pieces:
            raise InputError("a margin loss needs at least one piece")
        if self.pieces[0].lo != -_INF or self.pieces[-1].hi != _INF:
            raise InputError("pieces must cover the whole real line")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.hi != right.lo:
                raise InputError("pieces must partition the line without gaps")
        object.__setattr__(
            self, "breakpoints", tuple(p.hi for p in self.pieces if p.hi < _INF)
        )


#: The pieces of each named loss in ``splitsvm.losses``, keyed by its name.
PIECEWISE = {
    loss.name: loss
    for loss in (
        PiecewiseLoss("hinge", (
            Piece(-_INF, 1.0, "affine", slope=-1.0, intercept=1.0),
            Piece(1.0, _INF, "affine"),
        )),
        PiecewiseLoss("pl2", (
            Piece(-_INF, 0.0, "affine", slope=-1.0, intercept=2.0),
            Piece(0.0, 1.0, "affine", slope=-2.0, intercept=2.0),
            Piece(1.0, _INF, "affine"),
        )),
        PiecewiseLoss("tlog", (
            Piece(-_INF, 1.0, "log"),
            Piece(1.0, _INF, "affine"),
        )),
        PiecewiseLoss("ramp", (
            Piece(-_INF, 0.0, "affine", slope=0.0, intercept=1.0),
            Piece(0.0, 1.0, "affine", slope=-1.0, intercept=1.0),
            Piece(1.0, _INF, "affine"),
        )),
    )
}


def piece_values(pw, z):
    """The loss at margins z by a loop over the pieces of ``pw``.  No piece
    holds a NaN margin, which keeps its NaN fill; a flat piece takes its
    intercept, also at an infinite margin."""
    z = np.asarray(z, dtype=float)
    zflat = np.atleast_1d(z)
    out = np.full_like(zflat, np.nan)
    for piece in pw.pieces:
        mask = zflat >= piece.lo
        if piece.hi < _INF:
            mask &= zflat < piece.hi
        if piece.kind == "affine" and piece.slope == 0.0:
            out[mask] = piece.intercept
        elif piece.kind == "affine":
            out[mask] = piece.intercept + piece.slope * zflat[mask]
        else:
            out[mask] = np.log(2.0 - zflat[mask])
    return out.reshape(z.shape)


def candidate_margins(pw, v, h):
    """Candidate minimizers in the margin variable, one array per candidate:
    each piece's stationary points clipped to it, then the breakpoints."""
    cands = []
    for piece in pw.pieces:
        if piece.kind == "affine":
            z = v - piece.slope * h
            cands.append(np.clip(z, piece.lo, piece.hi))
        else:
            # Stationary points of log(2 - z)/n + (rho/2)(z - v)^2 solve
            # z^2 - (2 + v) z + 2 v + h = 0 with h = 1/(rho n).
            disc = (2.0 - v) ** 2 - 4.0 * h
            root = np.sqrt(np.maximum(disc, 0.0))
            # For v far below 0, disc overflows; the root is then
            # (2 - v) sqrt(1 - (2 sqrt(h) / (2 - v))^2), squared as a ratio.
            far = v < -1e150
            gap = np.where(far, 2.0 - v, 1.0)
            root = np.where(far, gap * np.sqrt(1.0 - (2.0 * np.sqrt(h) / gap) ** 2), root)
            for sign in (-1.0, 1.0):
                z = 0.5 * ((2.0 + v) + sign * root)
                z = np.where(disc < 0.0, piece.hi, z)
                cands.append(np.clip(z, piece.lo, piece.hi))
    for b in pw.breakpoints:
        cands.append(np.full_like(v, b))
    return cands


def _candidates(loss, rho, n, labels, anchors):
    """Each element's candidate minimizers a on a last axis, with their
    subproblem objectives."""
    pw = PIECEWISE[loss.name]
    y = np.asarray(labels, dtype=float)
    v = y * np.asarray(anchors, dtype=float)
    h = 1.0 / (rho * n)
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite anchor
        zs = np.stack(candidate_margins(pw, v, h), axis=-1)
        vals = piece_values(pw, zs) / n + 0.5 * rho * (zs - v[..., None]) ** 2
    return y[..., None] * zs, vals


def prox_enumerated(loss, rho, n, labels, anchors):
    """Exact elementwise subproblem solutions of a named loss by candidate
    enumeration over its pieces; ties within TIE_TOL go to the smallest a.
    An infinite anchor is its own minimizer, since the quadratic term
    outgrows every bounded loss."""
    u = np.asarray(anchors, dtype=float)
    alphas, vals = _candidates(loss, rho, n, labels, u)
    best = np.min(vals, axis=-1, keepdims=True)
    # A NaN anchor makes every objective NaN, so no candidate is dropped and
    # the NaN candidates carry through the minimum.
    a = np.min(np.where(vals > best + TIE_TOL, _INF, alphas), axis=-1)
    return np.where(np.isinf(u), u, a)


def prox_tie_gap(loss, rho, n, labels, anchors):
    """How near each element's subproblem is to a tie: the least amount by
    which a candidate more than 1e-9 (relative) away from prox_enumerated's
    minimizer misses the minimum objective; inf when there is none."""
    alphas, vals = _candidates(loss, rho, n, labels, anchors)
    a = prox_enumerated(loss, rho, n, labels, anchors)[..., None]
    apart = np.abs(alphas - a) > 1e-9 * (1.0 + np.abs(a))
    return np.min(np.where(apart, vals - np.min(vals, axis=-1, keepdims=True), _INF), axis=-1)


def textbook_admm(loss, labels, A, cfg, c0, iterations):
    """The ADMM iteration written out from its definition, sharing nothing
    with ``splitsvm.admm``: from c0 with gamma = 2 lam c0, each iteration
    takes alpha = prox_enumerated at the anchors A c - gamma / rho, solves
    (2 lam I + rho A) c = rho alpha + gamma by one Cholesky factor, and
    updates gamma += rho (alpha - A c) explicitly.  Products are
    ``A.entries @ c``.  Returns the anchors, c and gamma of iterations
    1..iterations, each as an (iterations, N) array."""
    K = A.entries
    n = K.shape[0]
    factor = cho_factor(2.0 * cfg.lam * np.eye(n) + cfg.rho * K)
    c = np.array(c0, dtype=float)
    gamma = 2.0 * cfg.lam * c
    anchors, cs, gammas = [], [], []
    for _ in range(iterations):
        u = K @ c - gamma / cfg.rho
        alpha = prox_enumerated(loss, cfg.rho, n, labels, u)
        c = cho_solve(factor, cfg.rho * alpha + gamma)
        gamma = gamma + cfg.rho * (alpha - K @ c)
        anchors.append(u)
        cs.append(c)
        gammas.append(gamma)
    return np.array(anchors), np.array(cs), np.array(gammas)


def dense_solve(matrix, b):
    return np.linalg.solve(np.asarray(matrix, dtype=float), np.asarray(b, dtype=float))


def cholesky_solver(matrix):
    """A solve x = matrix^-1 b by a dense Cholesky factor, factored once."""
    factor = cho_factor(np.asarray(matrix, dtype=float))
    return lambda b: cho_solve(factor, b)


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


_CSV_LABELS = {"1": 1.0, "+1": 1.0, "-1": -1.0}


def csv_by_cell(path, labeled):
    """A data CSV read row by row with float() on each cell: blank rows are
    skipped and a first row with a cell that is not a number is a header.
    Returns (features, labels), with labels None when ``labeled`` is false."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    try:
        for cell in rows[0]:
            float(cell)
    except ValueError:
        rows = rows[1:]
    feats = np.array([[float(cell) for cell in (row[:-1] if labeled else row)] for row in rows])
    labels = np.array([_CSV_LABELS[row[-1].strip()] for row in rows]) if labeled else None
    return feats, labels


def format_row(values, label=None):
    """One CSV row with each value formatted on its own to 17 significant
    digits, then the label as "1" above 0 and "-1" otherwise."""
    cells = [f"{v:.17g}" for v in values]
    if label is not None:
        cells.append("1" if label > 0 else "-1")
    return ",".join(cells)
