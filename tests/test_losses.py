import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from _oracles import (
    PIECEWISE,
    Piece,
    PiecewiseLoss,
    grid_prox,
    piece_values,
    prox_enumerated,
    prox_subproblem,
    random_prox_cases,
)
import splitsvm.admm as admm_mod
import splitsvm.losses as losses_mod
from splitsvm.admm import AdmmConfig, _risk
from splitsvm.data import generate_synthetic
from splitsvm.errors import InputError
from splitsvm.kernels import KernelSpec
from splitsvm.losses import (
    HINGE,
    LOSSES,
    PL2,
    RAMP,
    TIE_TOL,
    TLOG,
    get_loss,
    margin_value,
    prox_vector,
)
from splitsvm.model import train_multistart

ALL_LOSSES = [HINGE, PL2, TLOG, RAMP]

labels_st = st.sampled_from([-1.0, 1.0])
rho_st = st.floats(0.01, 10.0)
n_st = st.integers(1, 1000)
anchor_st = st.floats(-10.0, 10.0)


def prox_one(loss, rho, n, label, anchor):
    """prox_vector on one coordinate: (argmin, oracle objective there)."""
    a = float(prox_vector(loss, rho, n, np.array([float(label)]), np.array([float(anchor)]))[0])
    return a, float(prox_subproblem(loss, rho, n, label, anchor)(a))


def bits(x):
    """The IEEE bit patterns of x, so that comparisons see -0.0 and NaNs."""
    return np.asarray(x, dtype=float).view(np.int64)


def boundary_cases(rho, n):
    """Labels and anchors whose margins v = y u land exactly on the tables'
    boundaries at h = 1/(rho n): +0.0, -0.0, -h/2, -h, -2h, 1 - h, 1 - 2h
    and 1, each for both labels."""
    h = 1.0 / (rho * n)
    margins = np.array([0.0, -0.0, -0.5 * h, -h, -2.0 * h, 1.0 - h, 1.0 - 2.0 * h, 1.0])
    labels = np.repeat([1.0, -1.0], margins.size)
    return labels, labels * np.tile(margins, 2)


# ---------------------------------------------------------------------------
# margin-space loss values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "loss,z,expected",
    [
        (HINGE, -2.0, 3.0),
        (HINGE, 0.0, 1.0),
        (HINGE, 1.0, 0.0),
        (HINGE, 5.0, 0.0),
        (PL2, -1.0, 3.0),
        (PL2, 0.0, 2.0),
        (PL2, 0.5, 1.0),
        (PL2, 1.0, 0.0),
        (PL2, 2.0, 0.0),
        (TLOG, 0.0, math.log(2.0)),
        (TLOG, 1.0, 0.0),
        (TLOG, -2.0, math.log(4.0)),
        (TLOG, 1.5, 0.0),
        (RAMP, -3.0, 1.0),
        (RAMP, 0.0, 1.0),
        (RAMP, 0.25, 0.75),
        (RAMP, 1.0, 0.0),
        (RAMP, 4.0, 0.0),
    ],
)
def test_margin_values(loss, z, expected):
    assert margin_value(loss, z) == pytest.approx(expected, abs=1e-15)


def test_loss_value_uses_label_margin():
    # The empirical risk scores the decision value t through the margin y * t.
    def risk(loss, label, t):
        return _risk(loss, np.array([label]), np.array([t]))

    assert risk(HINGE, 1.0, 0.0) == 1.0
    assert risk(HINGE, -1.0, 0.0) == 1.0
    assert risk(HINGE, -1.0, 2.0) == 3.0
    assert risk(RAMP, 1.0, -5.0) == 1.0
    assert risk(TLOG, -1.0, 0.0) == pytest.approx(math.log(2.0))
    assert risk(PL2, 1.0, 0.5) == pytest.approx(1.0)


def test_margin_value_accepts_arrays():
    z = np.array([[-1.0, 0.5], [2.0, 0.0]])
    out = margin_value(PL2, z)
    assert out.shape == z.shape
    assert np.allclose(out, [[3.0, 1.0], [0.0, 2.0]])


def test_margin_value_scalar_returns_float():
    out = margin_value(HINGE, 0.5)
    assert isinstance(out, float)
    assert out == 0.5


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
def test_margin_value_expression_matches_piece_loop(loss, rng):
    # The oracle's loop over the loss's pieces, against its expression.
    pw = PIECEWISE[loss.name]
    z = np.concatenate([
        [0.0, -0.0, 1.0, 1.0 - 1e-16, 1.0 + 1e-16, 5e-324, -5e-324, 2.0,
         1e300, -1e300, -1.0, 0.5],
        rng.uniform(-5.0, 5.0, 5000),
        rng.standard_normal(200) * 1e-300,
    ])
    np.testing.assert_array_equal(bits(margin_value(loss, z)), bits(piece_values(pw, z)))
    assert bits(margin_value(loss, -0.0)) == bits(piece_values(pw, -0.0))


def test_piece_loop_at_infinite_margins():
    # A flat piece at an infinite margin is its intercept, not 0 * inf.
    pw = PIECEWISE["hinge"]
    z = np.array([np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = piece_values(pw, z)
        np.testing.assert_array_equal(out, margin_value(HINGE, z))
        assert piece_values(pw, math.inf) == margin_value(HINGE, math.inf) == 0.0
        assert piece_values(pw, -math.inf) == margin_value(HINGE, -math.inf) == math.inf


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
def test_nan_margin_gives_nan_loss(loss):
    z = np.array([np.nan, 0.5, np.nan, 2.0])
    pw = PIECEWISE[loss.name]
    for value in (lambda x: margin_value(loss, x), lambda x: piece_values(pw, x)):
        out = value(z)
        np.testing.assert_array_equal(np.isnan(out), [True, False, True, False])
        np.testing.assert_array_equal(out[[1, 3]], margin_value(loss, z[[1, 3]]))
        assert math.isnan(value(math.nan))


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
def test_nan_anchor_gives_nan_alpha(loss):
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    anchors = np.array([np.nan, np.nan, 0.3, -0.3])
    for rho, n in ((1.0, 2), (0.1, 1)):  # h = 0.5 and h = 10
        for prox in (prox_vector, prox_enumerated):
            out = prox(loss, rho, n, labels, anchors)
            np.testing.assert_array_equal(np.isnan(out), [True, True, False, False])


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
def test_infinite_anchor_gives_the_anchor(loss):
    # Far out, the quadratic term outgrows any bounded loss, so the
    # minimizer at an infinite anchor is the anchor, for either label; a
    # NaN anchor still gives NaN.  No table meets inf - inf on the way, so
    # numpy warns of no invalid value.
    inf, nan = math.inf, math.nan
    labels = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    anchors = np.array([inf, inf, -inf, -inf, nan, nan])
    for rho, n in ((1.0, 2), (0.1, 1)):  # h = 0.5 and h = 10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = prox_vector(loss, rho, n, labels, anchors)
        np.testing.assert_array_equal(out, [inf, inf, -inf, -inf, nan, nan])


@pytest.mark.parametrize("rho", [1.0, 1e-3], ids=["table", "scorer"])
@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
def test_far_anchor_gives_the_anchor_without_a_warning(loss, rho):
    # Past about 1.3e154 a square overflows to inf.  At n = 300, rho 1 gives
    # every loss its table and rho 1e-3 (h = 10/3) sends pl2, tlog and ramp
    # to their scorers; an objective of inf there loses, as it should, and
    # numpy warns of nothing, with a NaN anchor beside them too.
    anchors = np.array([1e300, -1e300, 2e154, -2e154, math.nan])
    for label in (1.0, -1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = prox_vector(loss, rho, 300, np.full(5, label), anchors)
        np.testing.assert_array_equal(out, anchors)


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
def test_infinite_anchor_matches_enumerator(loss, rng):
    # Infinite anchors mixed into finite ones, in both h regimes: every
    # entry, finite ones included, equals the enumerator's bit for bit.
    labels = rng.choice([-1.0, 1.0], size=40)
    anchors = rng.uniform(-10.0, 10.0, size=40)
    anchors[::4] = math.inf
    anchors[1::4] = -math.inf
    for rho, n in ((1.0, 2), (0.1, 1)):  # h = 0.5 and h = 10
        fast = prox_vector(loss, rho, n, labels, anchors)
        slow = prox_enumerated(loss, rho, n, labels, anchors)
        np.testing.assert_array_equal(bits(fast), bits(slow))
        np.testing.assert_array_equal(fast[np.isinf(anchors)], anchors[np.isinf(anchors)])


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
def test_continuity_at_breakpoints(loss):
    # Every stock loss is continuous, which is stronger than the lower
    # semi-continuity the solver needs; check one-sided limits meet.
    eps = 1e-9
    for b in PIECEWISE[loss.name].breakpoints:
        left = margin_value(loss, b - eps)
        right = margin_value(loss, b + eps)
        at = margin_value(loss, b)
        assert abs(left - at) < 1e-8
        assert abs(right - at) < 1e-8
        # lower semi-continuity: the value never exceeds nearby values by a gap
        assert at <= min(left, right) + 1e-8


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
def test_losses_nonnegative_and_zero_beyond_margin(loss):
    z = np.linspace(-8.0, 8.0, 4001)
    vals = margin_value(loss, z)
    assert np.all(vals >= 0.0)
    assert np.all(vals[z >= 1.0] == 0.0)


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
def test_losses_admissible_at_zero(loss):
    assert margin_value(loss, 0.0) > 0.0


def test_get_loss_known_names():
    assert set(LOSSES) == {"hinge", "pl2", "tlog", "ramp"}
    for name in LOSSES:
        assert get_loss(name).name == name


def test_get_loss_unknown_name():
    with pytest.raises(InputError, match="hinge"):
        get_loss("square")


def test_piece_partition_is_validated():
    with pytest.raises(InputError):
        PiecewiseLoss(
            "gap",
            (
                Piece(-math.inf, 0.0, "affine", slope=-1.0, intercept=1.0),
                Piece(0.5, math.inf, "affine"),
            ),
        )
    with pytest.raises(InputError):
        PiecewiseLoss("bounded", (Piece(-5.0, math.inf, "affine"),))


# ---------------------------------------------------------------------------
# prox parameter validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rho=0.0, n=1),
        dict(rho=-1.0, n=1),
        dict(rho=1.0, n=0),
        dict(rho=1.0, n=math.nan),
        dict(rho=1.0, n=2.5),
    ],
)
def test_prox_params_rejects_bad_inputs(kwargs):
    with pytest.raises(InputError):
        prox_vector(HINGE, kwargs["rho"], kwargs["n"], np.array([1.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# reference prox evaluations (hand-checked)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "loss,label,rho,n,anchor,argmin,value",
    [
        # hinge, h = 1/(rho n) = 0.1: interior slope step
        (HINGE, 1.0, 10.0, 1.0, 0.0, 0.1, 0.95),
        # hinge: anchor inside the clamp window snaps to the margin
        (HINGE, 1.0, 10.0, 1.0, 0.95, 1.0, 0.5 * 10.0 * 0.05**2),
        # hinge, flat region for the negative label
        (HINGE, -1.0, 10.0, 1.0, -2.0, -2.0, 0.0),
        # ramp at the h/2 boundary keeps the anchor
        (RAMP, 1.0, 1.0, 1.0, 0.0, 1.0, 0.5),
        # tlog free region
        (TLOG, 1.0, 1.0, 1.0, 3.0, 3.0, 0.0),
        # pl2 with anchor 0.2 jumps to the margin
        (PL2, 1.0, 1.0, 1.0, 0.2, 1.0, 0.32),
    ],
)
def test_prox_reference_points(loss, label, rho, n, anchor, argmin, value):
    a, v = prox_one(loss, rho, n, label, anchor)
    assert a == pytest.approx(argmin, abs=1e-12)
    assert v == pytest.approx(value, rel=1e-12, abs=1e-15)


def test_ramp_tie_prefers_smaller_alpha():
    # h = 1, anchor at -h/2: staying on the flat piece (alpha = -1/2) and
    # stepping into the sloped piece (alpha = +1/2) give equal objectives;
    # the smaller minimizer wins.
    a, v = prox_one(RAMP, 1.0, 1, 1.0, -0.5)
    assert a == -0.5
    g = prox_subproblem(RAMP, 1.0, 1, 1.0, -0.5)
    assert abs(g(-0.5) - g(0.5)) <= TIE_TOL
    assert v == pytest.approx(float(g(-0.5)))


def test_ramp_tie_negative_label():
    a, _ = prox_one(RAMP, 1.0, 1, -1.0, 0.5)
    assert a == -0.5


# Near-tie anchors on which the hinge and ramp branch tables keep their own
# boundaries instead of the enumerator's smallest-minimizer rule (rho 0.8,
# n 5, h 1/4).  The table's result is the contract; its objective is within
# TIE_TOL of the enumerator's.
@pytest.mark.parametrize(
    "loss, label, anchor, table, enumerated",
    [
        (HINGE, 1.0, 1.0000000000001, 1.0000000000001, 1.0),
        (HINGE, -1.0, -0.7499999999999996, -0.9999999999999996, -1.0),
        (RAMP, 1.0, math.nextafter(-0.125, 1.0), 0.125, math.nextafter(-0.125, 1.0)),
    ],
)
def test_branch_table_near_tie_anchors(loss, label, anchor, table, enumerated):
    rho, n = 0.8, 5
    a = float(prox_vector(loss, rho, n, np.array([label]), np.array([anchor]))[0])
    e = float(prox_enumerated(loss, rho, n, np.array([label]), np.array([anchor]))[0])
    assert (a, e) == (table, enumerated)
    g = prox_subproblem(loss, rho, n, label, anchor)
    assert abs(float(g(a)) - float(g(e))) <= TIE_TOL


def test_prox_objective_matches_manual():
    # The oracle objective every prox value here is read from, against the
    # tlog formula written out: margin z = -a, log(2 - z) for z < 1.
    g = prox_subproblem(TLOG, 0.7, 3, -1.0, 1.2)
    for a in (-2.0, 0.0, 0.3, 1.2, 5.0):
        loss = math.log(2.0 + a) if -a < 1.0 else 0.0
        manual = loss / 3 + 0.5 * 0.7 * (a - 1.2) ** 2
        assert float(g(a)) == pytest.approx(manual, rel=1e-14)


# ---------------------------------------------------------------------------
# closed forms agree with the generic enumerator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
def test_closed_form_matches_enumerator_random(loss, rng):
    for _ in range(200):
        rho = float(rng.uniform(0.01, 10.0))
        n = int(rng.integers(1, 1001))
        labels = rng.choice([-1.0, 1.0], size=50)
        anchors = rng.uniform(-10.0, 10.0, size=50)
        fast = prox_vector(loss, rho, n, labels, anchors)
        slow = prox_enumerated(loss, rho, n, labels, anchors)
        np.testing.assert_array_equal(bits(fast), bits(slow))
    for rho, n in ((1.0, 2), (0.1, 1)):  # h = 0.5 and h = 10
        labels, anchors = boundary_cases(rho, n)
        fast = prox_vector(loss, rho, n, labels, anchors)
        slow = prox_enumerated(loss, rho, n, labels, anchors)
        np.testing.assert_array_equal(bits(fast), bits(slow))


def test_ramp_wide_prox_matches_oracle(rng):
    # h = 1/(rho n) >= 2 collapses the ramp's middle branch; the wide table
    # must still equal the enumerator and reach the grid floor.
    rho, n = 0.1, 1
    labels = rng.choice([-1.0, 1.0], size=60)
    anchors = rng.uniform(-10.0, 10.0, size=60)
    out = prox_vector(RAMP, rho, n, labels, anchors)
    ref = prox_enumerated(RAMP, rho, n, labels, anchors)
    np.testing.assert_array_equal(bits(out), bits(ref))
    for lab, u, a in zip(labels, anchors, out):
        ga, gv = grid_prox(RAMP, rho, n, lab, u)
        g = prox_subproblem(RAMP, rho, n, lab, u)
        assert float(g(a)) <= gv + 1e-6
    # Anchors on the boundaries, below the wide table (h = 0.5), where it
    # takes over (h = 2) and above (h = 10).
    for rho, n in ((1.0, 2), (0.5, 1), (0.1, 1)):
        labels, anchors = boundary_cases(rho, n)
        out = prox_vector(RAMP, rho, n, labels, anchors)
        ref = prox_enumerated(RAMP, rho, n, labels, anchors)
        np.testing.assert_array_equal(bits(out), bits(ref))


def band_edge_margins(rho, n):
    """Margins at, and at +-{1, 4, 64} ulp and +-{1/2, 1} x {n TIE_TOL,
    sqrt(2 TIE_TOL / rho)} from, each edge of the pl2 and tlog tables at
    h = 1/(rho n): -3h/2, 1 - 2h, 1 and the double root of the log piece,
    2 - 2 sqrt(h).  Half those distances lie inside the tie window."""
    h = 1.0 / (rho * n)
    edges = np.array([-1.5 * h, 1.0 - 2.0 * h, 1.0, 2.0 - 2.0 * math.sqrt(h)])
    steps = [edges]
    for k in (1, 4, 64):
        steps += [(edges.view(np.int64) + sign * k).view(float) for sign in (1, -1)]
    for d in (n * TIE_TOL, math.sqrt(2.0 * TIE_TOL / rho)):
        steps += [edges + d, edges - d, edges + 0.5 * d, edges - 0.5 * d]
    return np.concatenate(steps)


# (rho, n) with h = 1/(rho n) from 1e-13 to 2: the tables hold up to h = 1/4
# (rho 4, n 1; rho 0.8, n 5) and hand every anchor to the scorer above it
# (rho 3.9, n 1: h = 0.256) and for rho above 4e12.  At n = 1e7 the pl2 band
# at -3h/2 is n TIE_TOL wide, wider than sqrt(2 TIE_TOL / rho).
TABLE_CELLS = [(5.0, 300), (1.0, 1000), (1.0, 10**7), (1e13, 1), (0.05, 300), (4.0, 1), (0.8, 5),
               (3.9, 1), (1.0, 3), (0.5, 1)]


@pytest.mark.parametrize("rho, n", TABLE_CELLS)
@pytest.mark.parametrize("loss", [PL2, TLOG], ids=lambda l: l.name)
def test_tables_match_enumerator_at_band_edges(loss, rho, n):
    # The branch tables and the scorer they hand band anchors to give the
    # enumerator's minimizer bit for bit, for both labels, with NaN and
    # infinite anchors mixed in, and margins whose (2 - v)^2 overflows.
    # There the loss is negligible next to the quadratic term, and the
    # minimizer is the anchor to within 1e-12 relative.
    def assert_as_enumerated(v):
        for label in (1.0, -1.0):
            labels = np.full_like(v, label)
            fast = prox_vector(loss, rho, n, labels, label * v)
            slow = prox_enumerated(loss, rho, n, labels, label * v)
            np.testing.assert_array_equal(bits(fast), bits(slow))
        return fast

    assert_as_enumerated(np.concatenate([band_edge_margins(rho, n),
                                         [math.nan, math.inf, -math.inf]]))
    far = np.array([-1e300, -2e154, -1e151, 2e154, 1e300])
    with np.errstate(over="ignore", invalid="ignore"):
        np.testing.assert_allclose(assert_as_enumerated(far), -far, rtol=1e-12)


def test_tlog_table_serves_far_anchors(monkeypatch):
    # Below -1e150 the table takes the scorer's factored root itself: the
    # same bits, with no scorer call.
    v = np.array([-1e300, -2e154, -1e151, -1.0000001e150])
    y = np.array([1.0, -1.0, 1.0, -1.0])
    rho, n = 1.0, 300

    def no_scorer(*args):
        raise AssertionError("the tlog scorer ran")

    expected = losses_mod._tlog_scored(y, v, 1.0 / (rho * n), rho, n)
    monkeypatch.setattr(losses_mod, "_tlog_scored", no_scorer)
    out = prox_vector(TLOG, rho, n, y, y * v)
    np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))
    np.testing.assert_allclose(y * out, v, rtol=1e-12)


def test_band_scorer_sees_few_anchors_on_a_t2_draw(monkeypatch):
    # The pl2 and tlog tables rescore only anchors in their narrow bands:
    # on one draw of the t2 protocol their scorers see under 5% of the
    # anchors, so the tables cannot quietly fall back to scoring them all.
    seen, scored = dict.fromkeys(("pl2", "tlog"), 0), dict.fromkeys(("pl2", "tlog"), 0)
    real_prox = admm_mod.prox_vector

    def counted_prox(loss, rho, n, labels, anchors):
        seen[loss.name] += np.size(anchors)
        return real_prox(loss, rho, n, labels, anchors)

    def counted(name, scorer):
        def score(y, v, h, rho, n):
            scored[name] += v.size
            return scorer(y, v, h, rho, n)
        return score

    monkeypatch.setattr(admm_mod, "prox_vector", counted_prox)
    monkeypatch.setattr(losses_mod, "_pl2_scored", counted("pl2", losses_mod._pl2_scored))
    monkeypatch.setattr(losses_mod, "_tlog_scored", counted("tlog", losses_mod._tlog_scored))
    train, _ = generate_synthetic(300, 120, 2)
    cfg = AdmmConfig(lam=0.5, rho=5.0, enforce_rho_condition="off")
    for spec in (KernelSpec("gaussian", 2.0), KernelSpec("matern1", 1.0)):
        for loss in (PL2, TLOG):
            train_multistart(train, spec, loss, cfg, 2, 2)
    for name in seen:
        assert seen[name] > 100_000 and scored[name] < 0.05 * seen[name], (name, seen, scored)


# ---------------------------------------------------------------------------
# randomized grid-oracle agreement (small sweep; the acceptance suite runs
# the full 1000-case version)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
def test_prox_beats_grid_oracle(loss):
    seed = 1000 + ALL_LOSSES.index(loss)
    for label, rho, n, anchor in random_prox_cases(120, seed=seed):
        a, v = prox_one(loss, rho, int(n), label, anchor)
        _, grid_val = grid_prox(loss, rho, int(n), label, anchor)
        assert v <= grid_val + 1e-6, (
            f"{loss.name}: prox value {v} above grid floor {grid_val} "
            f"(label={label}, rho={rho}, n={n}, anchor={anchor})"
        )


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------


@given(labels_st, rho_st, n_st, anchor_st, st.sampled_from(sorted(LOSSES)))
def test_prox_value_never_above_anchor_objective(label, rho, n, anchor, name):
    loss = get_loss(name)
    a, v = prox_one(loss, rho, n, label, anchor)
    anchored = float(prox_subproblem(loss, rho, n, label, anchor)(anchor))
    assert v <= anchored + 1e-12 * max(1.0, abs(anchored))


@given(labels_st, rho_st, n_st, anchor_st, st.sampled_from(sorted(LOSSES)))
def test_prox_value_is_objective_at_argmin(label, rho, n, anchor, name):
    # The objective at the returned point is no larger than right beside it,
    # up to the tie window within which a smaller minimizer is preferred.
    loss = get_loss(name)
    a, v = prox_one(loss, rho, n, label, anchor)
    g = prox_subproblem(loss, rho, n, label, anchor)
    for nearby in (a - 1e-6, a + 1e-6):
        assert v <= float(g(nearby)) + TIE_TOL + 1e-12 * max(1.0, abs(v))


@given(labels_st, rho_st, n_st, st.floats(1.0, 50.0), st.sampled_from(sorted(LOSSES)))
def test_prox_keeps_anchor_in_flat_region(label, rho, n, margin, name):
    # For label*anchor slightly above 1 the 1e-12 tie window can legitimately
    # prefer the breakpoint candidate at the margin, so stay clear of it.
    assume(margin == 1.0 or margin >= 1.001)
    loss = get_loss(name)
    anchor = label * margin
    a, v = prox_one(loss, rho, n, label, anchor)
    assert a == anchor
    assert v == 0.0


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.name)
def test_prox_mirror_symmetry(loss, rng):
    # prox(-y, -u) is the negation of prox(y, u) with the same value.
    for _ in range(300):
        rho = float(rng.uniform(0.01, 10.0))
        n = int(rng.integers(1, 1001))
        label = float(rng.choice([-1.0, 1.0]))
        anchor = float(rng.uniform(-10.0, 10.0))
        a1, v1 = prox_one(loss, rho, n, label, anchor)
        a2, v2 = prox_one(loss, rho, n, -label, -anchor)
        assert a2 == -a1
        assert v2 == v1


@given(
    st.lists(st.tuples(labels_st, anchor_st), min_size=1, max_size=30),
    rho_st,
    st.sampled_from(sorted(LOSSES)),
)
def test_prox_vector_matches_scalar_calls(pairs, rho, name):
    loss = get_loss(name)
    n = len(pairs)
    labels = np.array([p[0] for p in pairs])
    anchors = np.array([p[1] for p in pairs])
    vec = prox_vector(loss, rho, n, labels, anchors)
    for i in range(n):
        a, _ = prox_one(loss, rho, n, labels[i], anchors[i])
        assert vec[i] == a


def test_prox_vector_broadcasts():
    out = prox_vector(HINGE, 1.0, 2, np.array([1.0, -1.0]), np.array([0.0]))
    assert out.shape == (2,)
    assert out[0] == 0.5
    assert out[1] == -0.5
