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
real roots of z^2 - (2 + v) z + 2 v + 1 / (rho * n) = 0.  For the hinge and
ramp losses the enumeration collapses to closed-form branch tables, kept
here as fast paths.

Ties within TIE_TOL of the minimal objective resolve to the smallest
minimizer a.
"""

from dataclasses import dataclass, field

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
    scalar = zarr.ndim == 0
    zflat = np.atleast_1d(zarr)
    out = np.empty_like(zflat)
    for piece in loss.pieces:
        mask = zflat >= piece.lo
        if piece.hi < _INF:
            mask &= zflat < piece.hi
        if piece.kind == "affine":
            out[mask] = piece.intercept + piece.slope * zflat[mask]
        else:
            out[mask] = np.log(2.0 - zflat[mask])
    return float(out[0]) if scalar else out.reshape(zarr.shape)


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
                z = np.where(disc >= 0.0, z, piece.hi)
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
    eligible = vals <= best + TIE_TOL
    return np.min(np.where(eligible, alphas, _INF), axis=-1)


def _hinge_closed(v, h):
    return np.where(v < 1.0 - h, v + h, np.where(v < 1.0, 1.0, v))


def _ramp_closed(v, h):
    # Valid branch table only for 0 < h < 2.
    z = np.select(
        [v <= -0.5 * h, v <= 1.0 - h, v < 1.0],
        [v, v + h, np.ones_like(v)],
        default=v,
    )
    return z


def prox_vector(loss, rho, n, labels, anchors) -> np.ndarray:
    """Elementwise subproblem solutions; closed forms where available.

    ``labels`` and ``anchors`` are broadcast-compatible arrays; the result
    has their common shape.  Identical to prox_vector_enumerated everywhere,
    including the smallest-minimizer tie rule.
    """
    if not (rho > 0 and np.isfinite(rho)):
        raise InputError(f"rho must be positive, got {rho}")
    if n < 1:
        raise InputError(f"sample count must be at least 1, got {n}")
    y = np.asarray(labels, dtype=float)
    u = np.asarray(anchors, dtype=float)
    h = 1.0 / (rho * n)
    v = y * u
    if loss.name == "hinge":
        return y * _hinge_closed(v, h)
    if loss.name == "ramp" and h < 2.0:
        alpha = y * _ramp_closed(v, h)
        # At v = -h/2 the flat and sloped pieces tie; the smaller minimizer
        # is -h/2 for either label.
        return np.where(v == -0.5 * h, -0.5 * h, alpha)
    return prox_vector_enumerated(loss, rho, n, y, u)
