"""Margin losses and exact solutions of their scalar penalized subproblems.

Every loss here is a lower semi-continuous function of the margin z = y * t
built from affine and logarithmic pieces:

* ``hinge``:  1 - z for z < 1, else 0                     (convex)
* ``pl2``:    2 - z for z < 0, 2 - 2z for 0 <= z < 1, 0 for z >= 1
              (nonconvex: the slope steps from -1 to -2 at z = 0, so
              L(0) = 2 > (L(-1) + L(1)) / 2 = 1.5)
* ``tlog``:   log(2 - z) for z < 1, else 0                (nonconvex)
* ``ramp``:   1 for z < 0, 1 - z for 0 <= z < 1, 0 for z >= 1

The per-coordinate subproblem of the ADMM splitting loop is

    minimize over a:   L(y, a) / n  +  (rho / 2) * (a - u)^2,

with anchor u.  In the margin variable z = y * a (and v = y * u) the loss is
piecewise, so the global minimizer is found exactly by enumerating, per
piece, the stationary points of the quadratic-plus-piece restriction, the
breakpoints, and taking the best candidate.  Affine pieces with slope s give
the stationary point z = v - s / (rho * n); the logarithmic piece gives the
real roots of z^2 - (2 + v) z + 2 v + 1 / (rho * n) = 0.  Each of the four
named losses has a closed-form table: hinge and ramp collapse to branch
tables, and pl2 and tlog evaluate the enumerator's candidates as fixed
array expressions.  The enumerator stays as the oracle the tables are
tested against and as the solver for any other MarginLoss.

Ties within TIE_TOL of the minimal objective resolve to the smallest
minimizer a.  A NaN anchor gives a NaN minimizer, and a NaN margin a NaN
loss.
"""

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import InputError

#: Objective gap under which two candidate minimizers count as tied.
TIE_TOL = 1e-12

_INF = float("inf")


@dataclass(frozen=True)
class Piece:
    """One piece of a margin loss on [lo, hi): affine b + s*z or log(2 - z)."""

    lo: float
    hi: float
    kind: str  # "affine" | "log"
    slope: float = 0.0
    intercept: float = 0.0


@dataclass(frozen=True)
class MarginLoss:
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


HINGE = MarginLoss(
    "hinge",
    (
        Piece(-_INF, 1.0, "affine", slope=-1.0, intercept=1.0),
        Piece(1.0, _INF, "affine"),
    ),
)

PL2 = MarginLoss(
    "pl2",
    (
        Piece(-_INF, 0.0, "affine", slope=-1.0, intercept=2.0),
        Piece(0.0, 1.0, "affine", slope=-2.0, intercept=2.0),
        Piece(1.0, _INF, "affine"),
    ),
)

TLOG = MarginLoss(
    "tlog",
    (
        Piece(-_INF, 1.0, "log"),
        Piece(1.0, _INF, "affine"),
    ),
)

RAMP = MarginLoss(
    "ramp",
    (
        Piece(-_INF, 0.0, "affine", slope=0.0, intercept=1.0),
        Piece(0.0, 1.0, "affine", slope=-1.0, intercept=1.0),
        Piece(1.0, _INF, "affine"),
    ),
)

LOSSES = {loss.name: loss for loss in (HINGE, PL2, TLOG, RAMP)}


def get_loss(name: str) -> MarginLoss:
    try:
        return LOSSES[name]
    except KeyError:
        raise InputError(
            f"unknown loss {name!r}; choose from {sorted(LOSSES)}"
        ) from None


def margin_value(loss: MarginLoss, z):
    """Loss as a function of the margin z; accepts scalars or arrays."""
    zarr = np.asarray(z, dtype=float)
    # One expression per named loss, equal bit for bit to the piece loop
    # below on finite margins: the slopes are 0, -1 and -2, so
    # intercept + slope * z rounds exactly like these.
    if loss == HINGE:
        out = np.maximum(1.0 - zarr, 0.0)
    elif loss == PL2:
        out = np.where(zarr < 0.0, 2.0 - zarr, np.maximum(2.0 - 2.0 * zarr, 0.0))
    elif loss == TLOG:
        out = np.log(2.0 - np.minimum(zarr, 1.0))
    elif loss == RAMP:
        out = np.minimum(np.maximum(1.0 - zarr, 0.0), 1.0)
    else:
        out = _piece_values(loss, zarr)
    return float(out) if zarr.ndim == 0 else out


def _piece_values(loss, z):
    """margin_value by a loop over the pieces; no piece holds a NaN margin,
    which keeps its NaN fill.  A flat piece takes its intercept, also at an
    infinite margin."""
    zflat = np.atleast_1d(z)
    out = np.full_like(zflat, np.nan)
    for piece in loss.pieces:
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


def _candidate_margins(loss, v, h):
    """Candidate minimizers in the margin variable, one array per candidate."""
    cands = []
    for piece in loss.pieces:
        if piece.kind == "affine":
            z = v - piece.slope * h
            cands.append(np.clip(z, piece.lo, piece.hi))
        else:
            # Stationary points of log(2 - z)/n + (rho/2)(z - v)^2 solve
            # z^2 - (2 + v) z + 2 v + h = 0 with h = 1/(rho n).
            disc = (2.0 - v) ** 2 - 4.0 * h
            root = np.sqrt(np.maximum(disc, 0.0))
            for sign in (-1.0, 1.0):
                z = 0.5 * ((2.0 + v) + sign * root)
                z = np.where(disc < 0.0, piece.hi, z)
                cands.append(np.clip(z, piece.lo, piece.hi))
    for b in loss.breakpoints:
        cands.append(np.full_like(v, b))
    return cands


def prox_vector_enumerated(loss, rho, n, labels, anchors) -> np.ndarray:
    """Exact elementwise subproblem solutions by candidate enumeration."""
    y = np.asarray(labels, dtype=float)
    u = np.asarray(anchors, dtype=float)
    h = 1.0 / (rho * n)
    v = y * u
    zs = np.stack(_candidate_margins(loss, v, h), axis=-1)
    vals = margin_value(loss, zs) / n + 0.5 * rho * (zs - v[..., None]) ** 2
    alphas = y[..., None] * zs
    best = np.min(vals, axis=-1, keepdims=True)
    # A NaN anchor makes every objective NaN, so no candidate is dropped and
    # the NaN candidates carry through the minimum.
    return np.min(np.where(vals > best + TIE_TOL, _INF, alphas), axis=-1)


def _smallest_tied(y, zs, vals):
    """The enumerator's rule on fixed candidates: the smallest a = y z among
    the margins zs whose objectives vals lie within TIE_TOL of the best."""
    limit = reduce(np.minimum, vals) + TIE_TOL
    return reduce(np.minimum, [np.where(f > limit, _INF, y * z) for z, f in zip(zs, vals)])


def _hinge_closed(v, h):
    return np.where(v < 1.0 - h, v + h, np.where(v < 1.0, 1.0, v))


def _ramp_closed(v, h):
    # Valid branch table only for 0 < h < 2.
    return np.where(v <= -0.5 * h, v, np.where(v <= 1.0 - h, v + h, np.where(v < 1.0, 1.0, v)))


def _pl2_closed(y, v, h, rho, n):
    # The enumerator's candidates for PL2: the clipped stationary point of
    # each piece, then the breakpoints 0 and 1.  Each objective repeats the
    # enumerator's operations, with the loss written out (2 at z = 0, 0 for
    # z >= 1), so it rounds the same.
    c = 0.5 * rho
    z_neg = np.minimum(v + h, 0.0)
    z_mid = np.minimum(np.maximum(v + 2.0 * h, 0.0), 1.0)
    z_flat = np.maximum(v, 1.0)
    vals = (
        (2.0 - z_neg) / n + c * (z_neg - v) ** 2,
        (2.0 - 2.0 * z_mid) / n + c * (z_mid - v) ** 2,
        c * (z_flat - v) ** 2,
        2.0 / n + c * v ** 2,
        c * (1.0 - v) ** 2,
    )
    return _smallest_tied(y, (z_neg, z_mid, z_flat, 0.0, 1.0), vals)


def _tlog_closed(y, v, h, rho, n):
    # The enumerator's candidates for TLOG: both clipped roots of the log
    # piece (1 when there is no real root), the flat piece, the breakpoint.
    c = 0.5 * rho
    disc = (2.0 - v) ** 2 - 4.0 * h
    root = np.sqrt(np.maximum(disc, 0.0))
    no_root = disc < 0.0
    s = 2.0 + v
    z_small = np.minimum(np.where(no_root, 1.0, 0.5 * (s - root)), 1.0)
    z_large = np.minimum(np.where(no_root, 1.0, 0.5 * (s + root)), 1.0)
    z_flat = np.maximum(v, 1.0)
    vals = (
        np.log(2.0 - z_small) / n + c * (z_small - v) ** 2,
        np.log(2.0 - z_large) / n + c * (z_large - v) ** 2,
        c * (z_flat - v) ** 2,
        c * (1.0 - v) ** 2,
    )
    return _smallest_tied(y, (z_small, z_large, z_flat, 1.0), vals)


def prox_vector(loss, rho, n, labels, anchors) -> np.ndarray:
    """Elementwise subproblem solutions; closed forms for the named losses.

    ``labels`` and ``anchors`` are broadcast-compatible arrays; the result
    has their common shape.  The pl2 and tlog tables equal
    prox_vector_enumerated bit for bit, tie rule included; the hinge and
    ramp branch tables agree with it except on anchors whose candidates are
    within TIE_TOL of a tie without being equal, where they keep their own
    branch's minimizer, whose objective is within TIE_TOL of the
    enumerator's.
    """
    if not (rho > 0 and np.isfinite(rho)):
        raise InputError(f"rho must be positive, got {rho}")
    if n < 1:
        raise InputError(f"sample count must be at least 1, got {n}")
    y = np.asarray(labels, dtype=float)
    u = np.asarray(anchors, dtype=float)
    h = 1.0 / (rho * n)
    v = y * u
    if loss == HINGE:
        return y * _hinge_closed(v, h)
    if loss == PL2:
        return _pl2_closed(y, v, h, rho, n)
    if loss == TLOG:
        return _tlog_closed(y, v, h, rho, n)
    if loss == RAMP and h < 2.0:
        alpha = y * _ramp_closed(v, h)
        # At v = -h/2 the flat and sloped pieces tie; the smaller minimizer
        # is -h/2 for either label.
        return np.where(v == -0.5 * h, -0.5 * h, alpha)
    return prox_vector_enumerated(loss, rho, n, y, u)
