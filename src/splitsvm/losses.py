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

with anchor u.  In the margin variable z = y * a (and v = y * u, with
h = 1 / (rho * n)) the global minimizer is one of a few candidates: the
stationary point of each piece clipped to that piece, and the breakpoints.
An affine piece with slope s has its stationary point at z = v - s h; the
logarithmic piece has the real roots of z^2 - (2 + v) z + 2 v + h = 0.
Each loss solves its subproblem in closed form over these candidates:
hinge, and ramp for h < 2, collapse to branch tables; pl2, tlog, and ramp
for h >= 2 score every candidate with a fixed array expression and keep
the best.  The tests check every table against an enumerator over the
pieces (``tests/_oracles.py``).

Ties within TIE_TOL of the minimal objective resolve to the smallest
minimizer a (the hinge and ramp branch tables keep their own boundaries on
near-ties; see prox_vector).  A NaN anchor gives a NaN minimizer, an
infinite anchor gives itself, and a NaN margin gives a NaN loss.
"""

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import InputError

#: Objective gap under which two candidate minimizers count as tied.
TIE_TOL = 1e-12

_INF = float("inf")


@dataclass(frozen=True)
class MarginLoss:
    """A named margin loss: its value at margins z, elementwise, and the
    exact subproblem minimizers ``prox(y, v, h, rho, n)`` (see prox_vector)."""

    name: str
    value: Callable = field(repr=False)
    prox: Callable = field(repr=False)


def _smallest_tied(y, v, zs, vals):
    """The smallest a = y z among the candidate margins zs whose objectives
    vals lie within TIE_TOL of the best.  An infinite anchor v is its own
    minimizer; the objectives there meet inf - inf."""
    limit = reduce(np.minimum, vals) + TIE_TOL
    a = reduce(np.minimum, [np.where(f > limit, _INF, y * z) for z, f in zip(zs, vals)])
    inf = np.isinf(v)
    return np.where(inf, y * v, a) if inf.any() else a


def _hinge_prox(y, v, h, rho, n):
    return y * np.where(v < 1.0 - h, v + h, np.where(v < 1.0, 1.0, v))


def _pl2_prox(y, v, h, rho, n):
    # The candidates: the clipped stationary point of each piece, then the
    # breakpoints 0 and 1.  Each objective is the loss written out (2 at
    # z = 0, 0 for z >= 1) plus (rho/2)(z - v)^2 in the order of operations
    # of the tests' enumerator, so that ties round alike in both.
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
    return _smallest_tied(y, v, (z_neg, z_mid, z_flat, 0.0, 1.0), vals)


def _tlog_prox(y, v, h, rho, n):
    # The candidates: both clipped roots of the log piece (1 when there is
    # no real root), the flat piece, the breakpoint 1.
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
    return _smallest_tied(y, v, (z_small, z_large, z_flat, 1.0), vals)


def _ramp_prox(y, v, h, rho, n):
    if h < 2.0:
        z = np.where(v <= -0.5 * h, v, np.where(v <= 1.0 - h, v + h, np.where(v < 1.0, 1.0, v)))
        # At v = -h/2 the flat and sloped pieces tie; the smaller minimizer
        # is -h/2 for either label.
        return np.where(v == -0.5 * h, -0.5 * h, y * z)
    # From h = 2 on the sloped branch (-h/2, 1 - h] is empty and the flat
    # piece competes with the margin directly: score every candidate as
    # pl2 does (the loss is 1 for z <= 0).
    c = 0.5 * rho
    z_neg = np.minimum(v, 0.0)
    z_mid = np.minimum(np.maximum(v + h, 0.0), 1.0)
    z_flat = np.maximum(v, 1.0)
    vals = (
        1.0 / n + c * (z_neg - v) ** 2,
        (1.0 - z_mid) / n + c * (z_mid - v) ** 2,
        c * (z_flat - v) ** 2,
        1.0 / n + c * v ** 2,
        c * (1.0 - v) ** 2,
    )
    return _smallest_tied(y, v, (z_neg, z_mid, z_flat, 0.0, 1.0), vals)


def _hinge_value(z):
    return np.maximum(1.0 - z, 0.0)


def _pl2_value(z):
    return np.where(z < 0.0, 2.0 - z, np.maximum(2.0 - 2.0 * z, 0.0))


def _tlog_value(z):
    return np.log(2.0 - np.minimum(z, 1.0))


def _ramp_value(z):
    return np.minimum(np.maximum(1.0 - z, 0.0), 1.0)


HINGE = MarginLoss("hinge", _hinge_value, _hinge_prox)
PL2 = MarginLoss("pl2", _pl2_value, _pl2_prox)
TLOG = MarginLoss("tlog", _tlog_value, _tlog_prox)
RAMP = MarginLoss("ramp", _ramp_value, _ramp_prox)

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
    out = loss.value(zarr)
    return float(out) if zarr.ndim == 0 else out


def prox_vector(loss, rho, n, labels, anchors) -> np.ndarray:
    """Elementwise subproblem solutions, by each loss's closed form.

    ``labels`` and ``anchors`` are broadcast-compatible arrays; the result
    has their common shape.  The pl2, tlog and wide (h >= 2) ramp tables
    follow the TIE_TOL smallest-minimizer rule exactly.  The hinge and ramp
    branch tables follow it too, except on anchors whose candidates are
    within TIE_TOL of a tie without being equal, where they keep their own
    branch's minimizer, whose objective is within TIE_TOL of the smallest
    one's.
    """
    if not (rho > 0 and np.isfinite(rho)):
        raise InputError(f"rho must be positive, got {rho}")
    if not (n >= 1 and float(n).is_integer()):
        raise InputError(f"sample count must be an integer of at least 1, got {n}")
    y = np.asarray(labels, dtype=float)
    v = y * np.asarray(anchors, dtype=float)
    return loss.prox(y, v, 1.0 / (rho * n), rho, n)
