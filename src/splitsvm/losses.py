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
Each loss solves its subproblem in closed form over these candidates.
hinge and ramp (for h < 2) are branch tables: the minimizer is one
expression in v per interval.  pl2 and tlog are branch tables too, for
h <= 1/4 and rho in about [6.4e-11, 4e12], with a band rule.  Their
scorers write every candidate's objective in the order of operations of
the tests' enumerator and keep the best, but run only on the anchors
within sqrt(4 TIE_TOL / rho) of an interval edge (for tlog, of
[1 - 2h, 1]) and on NaN anchors.  Elsewhere the winner of the table leads
every other candidate by at least twice TIE_TOL, so the table gives the
scorer's bits without evaluating a log.  The tlog table and scorer take
the root of the log piece from one helper, which factors it below -1e150,
so the table serves those far anchors as well.  Past about +-1.3e154 a
square in that root or in a scorer's objective overflows to inf, which
loses as it should, and numpy does not warn of it.  Where the tables are
not derived, pl2 and tlog score every anchor, and ramp for h >= 2 scores
through the same affine-piece scorer as pl2.  The tables assume finite
margins: prox_vector alone makes an infinite anchor its own minimizer.
The tests check every table against an enumerator over the pieces
(``tests/_oracles.py``).

Ties within TIE_TOL of the minimal objective resolve to the smallest
minimizer a (the hinge and ramp branch tables keep their own boundaries on
near-ties; see prox_vector).  A NaN anchor gives a NaN minimizer and a NaN
margin gives a NaN loss.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import InputError

#: Objective gap under which two candidate minimizers count as tied.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class MarginLoss:
    """A named margin loss: its value at margins z, elementwise, and the
    exact subproblem minimizers ``prox(y, v, h, rho, n)`` at finite margins
    v (see prox_vector)."""

    name: str
    value: Callable = field(repr=False)
    prox: Callable = field(repr=False)


def _smallest_tied(y, zs, vals):
    """The smallest a = y z among the candidate margins zs whose objectives
    vals lie within TIE_TOL of the best."""
    limit = reduce(np.minimum, vals) + TIE_TOL
    return reduce(np.minimum, [np.where(f > limit, np.inf, y * z) for z, f in zip(zs, vals)])


def _hinge_prox(y, v, h, rho, n):
    return y * np.where(v < 1.0 - h, v + h, np.maximum(v, 1.0))


def _affine_prox(a_neg, s_neg, a_mid, s_mid):
    """The table of the loss a_neg - s_neg z on z < 0, a_mid - s_mid z on
    0 <= z < 1, 0 on z >= 1.  It scores each piece's clipped stationary point
    and the breakpoints 0 and 1, each objective written in the order of
    operations of the tests' enumerator, so that ties round alike in both."""

    def prox(y, v, h, rho, n):
        c = 0.5 * rho
        z_neg = np.minimum(v + s_neg * h, 0.0)
        z_mid = np.minimum(np.maximum(v + s_mid * h, 0.0), 1.0)
        z_flat = np.maximum(v, 1.0)
        with np.errstate(over="ignore"):  # an objective of inf loses, as it should
            vals = (
                (a_neg - s_neg * z_neg) / n + c * (z_neg - v) ** 2,
                (a_mid - s_mid * z_mid) / n + c * (z_mid - v) ** 2,
                c * (z_flat - v) ** 2,
                a_mid / n + c * v ** 2,
                c * (1.0 - v) ** 2,
            )
        return _smallest_tied(y, (z_neg, z_mid, z_flat, 0.0, 1.0), vals)

    return prox


_pl2_scored = _affine_prox(2.0, 1.0, 2.0, 2.0)
_ramp_wide_prox = _affine_prox(1.0, 0.0, 1.0, 1.0)


def _tlog_root(v, h):
    """sqrt((2 - v)^2 - 4h), 0 where that discriminant is negative, and the
    mask of those anchors (no_root): the log piece's stationary points are
    ((2 + v) -+ root) / 2.  Past +-1e150 (2 - v)^2 may overflow to inf,
    which swamps 4h as the exact square would, with no warning.  Below
    -1e150, 2 - v > 0 is factored out of the root."""
    # The largest |v|, NaN skipped (fmax), is one reduction on the hot path.
    if not np.fmax.reduce(np.abs(v), axis=None, initial=0.0) > 1e150:
        disc = (2.0 - v) ** 2 - 4.0 * h
        return np.sqrt(np.maximum(disc, 0.0)), disc < 0.0
    with np.errstate(over="ignore"):
        disc = (2.0 - v) ** 2 - 4.0 * h
        far = v < -1e150
        d = np.where(far, 2.0 - v, np.inf)  # inf keeps the unused roots real
        root = np.where(far, d * np.sqrt(1.0 - 4.0 * h / d ** 2), np.sqrt(np.maximum(disc, 0.0)))
    return root, disc < 0.0


def _tlog_scored(y, v, h, rho, n):
    # The candidates: both clipped roots of the log piece (1 when there is
    # no real root), the flat piece, the breakpoint 1.
    c = 0.5 * rho
    root, no_root = _tlog_root(v, h)
    s = 2.0 + v
    z_small = np.minimum(np.where(no_root, 1.0, 0.5 * (s - root)), 1.0)
    z_large = np.minimum(np.where(no_root, 1.0, 0.5 * (s + root)), 1.0)
    z_flat = np.maximum(v, 1.0)
    with np.errstate(over="ignore"):  # an objective of inf loses, as it should
        vals = (
            np.log(2.0 - z_small) / n + c * (z_small - v) ** 2,
            np.log(2.0 - z_large) / n + c * (z_large - v) ** 2,
            c * (z_flat - v) ** 2,
            c * (1.0 - v) ** 2,
        )
    return _smallest_tied(y, (z_small, z_large, z_flat, 1.0), vals)


#: The objective lead below which the pl2 and tlog tables hand an anchor to
#: their scorer: twice TIE_TOL, so that the scorer's rounding (under 1e-14
#: near the band edges, where rho h^2 = h / n <= 1/4) cannot make a lead a tie.
_BAND_TOL = 2.0 * TIE_TOL


def _band_width(h, rho):
    """The half-width sqrt(2 _BAND_TOL / rho) of the bands in which the pl2
    and tlog tables rescore: each table's winner leads every other candidate
    by at least (rho / 2) d^2 at a distance d from the nearest band edge.
    None where the tables are not derived: h > 1/4, or a width outside
    [1e-12, 1/4] (rho outside about [6.4e-11, 4e12]), where the leads away
    from the edges, or the rounding of the edges, would need bands too."""
    width = math.sqrt(2.0 * _BAND_TOL / rho)
    return width if h <= 0.25 and 1e-12 <= width <= 0.25 else None


def _rescored(scored, y, v, h, rho, n, z, near):
    """y z, with the anchors flagged ``near`` (NaN ones among them) solved by
    ``scored`` instead."""
    out = np.asarray(y * z)
    if near.any():
        out[near] = scored(np.broadcast_to(y, v.shape)[near], v[near], h, rho, n)
    return out


def _pl2_prox(y, v, h, rho, n):
    # The minimizer is v + h below -3h/2, v + 2h below 1 - 2h, 1 below 1 and
    # v from there on.  At -3h/2 the sloped pieces' stationary points lead
    # each other by |v + 3h/2| / n, at least 2 rho d^2 where both lie on
    # their pieces (d < h/2), and the candidate 0 by (rho / 2)(v + h)^2 or
    # (rho / 2)(v + 2h)^2; at 1 - 2h and 1 a candidate meets the margin 1,
    # and the lead is (rho / 2) d^2.
    width = _band_width(h, rho)
    if width is None:
        return _pl2_scored(y, v, h, rho, n)
    z = np.where(v < -1.5 * h, v + h, np.where(v < 1.0 - 2.0 * h, v + 2.0 * h, np.maximum(v, 1.0)))
    far = ((np.abs(v + 1.5 * h) >= width) & (np.abs(v - (1.0 - 2.0 * h)) >= width)
           & (np.abs(v - 1.0) >= width))
    return _rescored(_pl2_scored, y, v, h, rho, n, z, ~far)


def _tlog_prox(y, v, h, rho, n):
    # Below 1 - 2h the small root leads the margin 1 by at least
    # rho (1 - v)((1 - v) / 2 - h), as log(2 - v) <= 1 - v; from 1 on the
    # flat piece leads it by (rho / 2)(v - 1)^2.  The large root, a local
    # maximum, is clipped to 1 for h <= 1/4.
    width = _band_width(h, rho)
    if width is None:
        return _tlog_scored(y, v, h, rho, n)
    small = v < 1.0 - 2.0 * h - width
    z = np.where(small, 0.5 * ((2.0 + v) - _tlog_root(v, h)[0]), v)
    return _rescored(_tlog_scored, y, v, h, rho, n, z, ~(small | (v >= 1.0 + width)))


def _ramp_prox(y, v, h, rho, n):
    if h < 2.0:
        z = np.where(v <= -0.5 * h, v, np.where(v <= 1.0 - h, v + h, np.maximum(v, 1.0)))
        # At v = -h/2 the flat and sloped pieces tie; the smaller minimizer
        # is -h/2 for either label.
        return np.where(v == -0.5 * h, -0.5 * h, y * z)
    # From h = 2 on the sloped branch (-h/2, 1 - h] is empty and the flat
    # piece competes with the margin directly: score every candidate as pl2
    # does (the loss is 1 for z <= 0).
    return _ramp_wide_prox(y, v, h, rho, n)


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
    if name not in LOSSES:
        raise InputError(f"unknown loss {name!r}; choose from {sorted(LOSSES)}")
    return LOSSES[name]


def margin_value(loss: MarginLoss, z):
    """Loss as a function of the margin z; accepts scalars or arrays."""
    zarr = np.asarray(z, dtype=float)
    out = loss.value(zarr)
    return float(out) if zarr.ndim == 0 else out


def prox_vector(loss, rho, n, labels, anchors) -> np.ndarray:
    """Elementwise subproblem solutions, by each loss's closed form.

    ``labels`` and ``anchors`` are broadcast-compatible arrays; the result
    has their common shape.  Every label must be +1 or -1: each subproblem
    is solved in the margin z = y a, a change of variable only for y = +-1.
    That is checked once per run, by admm.admm_run, not here on every
    iteration; another label gives a wrong minimizer (labels 0 at anchors
    3 and -3 give 0 and 0).  The pl2, tlog and wide (h >= 2) ramp tables
    follow the TIE_TOL smallest-minimizer rule exactly, the pl2 and tlog
    ones by scoring the anchors in their bands.  The hinge and ramp
    branch tables follow it too, except on anchors whose candidates are
    within TIE_TOL of a tie without being equal, where they keep their own
    branch's minimizer, whose objective is within TIE_TOL of the smallest
    one's.  An infinite anchor is its own minimizer; the table scores a
    finite stand-in there, so its objectives never meet inf - inf.
    """
    if not (rho > 0 and math.isfinite(rho)):
        raise InputError(f"rho must be positive, got {rho}")
    if not (n >= 1 and float(n).is_integer()):
        raise InputError(f"sample count must be an integer of at least 1, got {n}")
    y = np.asarray(labels, dtype=float)
    v = y * np.asarray(anchors, dtype=float)
    h = 1.0 / (rho * n)
    inf = np.isinf(v)
    if not inf.any():
        return loss.prox(y, v, h, rho, n)
    return np.where(inf, y * v, loss.prox(y, np.where(inf, 0.0, v), h, rho, n))
