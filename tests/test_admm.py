import dataclasses
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor

from _oracles import lagrangian, objective_value
from splitsvm.admm import (
    DESCENT_SLACK,
    AdmmConfig,
    AdmmState,
    IterationTrace,
    RhoCondition,
    TraceRecord,
    _lagrangian_given,
    _psd_form,
    _risk,
    a_dot,
    admm_run,
    admm_step,
    c_factor,
    c_solve,
    initial_state,
    stationarity_residual,
)
from splitsvm.data import generate_synthetic
from splitsvm.errors import DefinitenessError, InputError
from splitsvm.kernels import GramMatrix, KernelSpec, gram
from splitsvm.losses import HINGE, PL2, RAMP, TLOG, margin_value
from splitsvm.model import rho_condition


def unit_instance():
    """Single training point with kernel matrix [[1]]."""
    return GramMatrix(np.array([[1.0]])), np.array([1.0])


def state(A, alpha, c):
    """An iteration-0 state with alpha and c as given and its A c formed."""
    c = np.asarray(c, dtype=float)
    return AdmmState(alpha=np.asarray(alpha, dtype=float), c=c, ac=a_dot(A, c), k=0)


def run_lagrangian(loss, y, A, cfg, st):
    """The augmented Lagrangian as admm_run forms it from a state's A c."""
    res = st.alpha - st.ac
    return _lagrangian_given(_risk(loss, y, st.alpha), cfg, 2.0 * cfg.lam * st.c, res,
                             float(st.c @ st.ac), float(res @ res))


def random_instance(n=20, seed=5, spread=4.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-spread, spread, size=(n, 2))
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return gram(KernelSpec("gaussian", 0.5), pts), y


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lam=0.0, rho=1.0),
        dict(lam=-0.1, rho=1.0),
        dict(lam=math.inf, rho=1.0),
        dict(lam=0.1, rho=0.0),
        dict(lam=0.1, rho=-2.0),
        dict(lam=0.1, rho=1.0, eps0=0.0),
        dict(lam=0.1, rho=1.0, max_iter=0),
        dict(lam=0.1, rho=math.inf),
        dict(lam=0.1, rho=1.0, eps0=math.nan),
        dict(lam=0.1, rho=1.0, enforce_rho_condition="maybe"),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(InputError):
        AdmmConfig(**kwargs)


def test_config_defaults():
    cfg = AdmmConfig(lam=0.1, rho=0.05)
    assert cfg.eps0 == 1e-12
    assert cfg.max_iter == 10000
    assert cfg.enforce_rho_condition == "warn"


# ---------------------------------------------------------------------------
# Lagrangian and objective
# ---------------------------------------------------------------------------


def test_lagrangian_at_zero_state_is_loss_at_zero():
    A, y = unit_instance()
    cfg = AdmmConfig(lam=0.25, rho=1.0)
    st = state(A, [0.0], [0.0])
    assert run_lagrangian(HINGE, y, A, cfg, st) == 1.0
    assert run_lagrangian(TLOG, y, A, cfg, st) == pytest.approx(math.log(2.0))


def test_lagrangian_equals_objective_on_consistent_states(rng):
    A, y = random_instance(10)
    cfg = AdmmConfig(lam=0.3, rho=2.0)
    for _ in range(5):
        c = rng.normal(size=10)
        st = state(A, A.entries @ c, c)
        lag = run_lagrangian(PL2, y, A, cfg, st)
        obj = objective_value(PL2, y, A, cfg, c)
        assert lag == pytest.approx(obj, rel=1e-12)


def test_lagrangian_term_by_term(rng):
    A, y = random_instance(8)
    cfg = AdmmConfig(lam=0.7, rho=1.3)
    alpha = rng.normal(size=8)
    c = rng.normal(size=8)
    st = state(A, alpha, c)
    ac = A.entries @ c
    gamma = 2.0 * cfg.lam * c
    expected = (
        float(np.mean(margin_value(TLOG, y * alpha)))
        + cfg.lam * float(c @ ac)
        + float(gamma @ (alpha - ac))
        + 0.5 * cfg.rho * float((alpha - ac) @ (alpha - ac))
    )
    assert run_lagrangian(TLOG, y, A, cfg, st) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# single iterations
# ---------------------------------------------------------------------------


def test_one_step_worked_example():
    # n=1, A=[[1]], hinge, lam=1/4, rho=1, start at the origin:
    # anchors = 0, prox step lands on the margin (alpha = 1), the linear
    # solve is 1.5 c = 1, and the multiplier update 0 + rho (alpha - A c)
    # gives 1/3 = 2 lam c.
    A, y = unit_instance()
    cfg = AdmmConfig(lam=0.25, rho=1.0)
    st0 = state(A, [0.0], [0.0])
    st1 = admm_step(HINGE, y, A, cfg, st0, c_factor(A, cfg))
    assert st1.k == 1
    assert st1.alpha[0] == 1.0
    assert st1.c[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert cfg.rho * (st1.alpha[0] - st1.ac[0]) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert 2.0 * cfg.lam * st1.c[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    # input state untouched
    assert st0.c[0] == 0.0 and st0.k == 0


def test_fixed_point_is_preserved_bitwise():
    A, y = unit_instance()
    cfg = AdmmConfig(lam=1.0, rho=1.0)
    st = state(A, [0.5], [0.5])
    nxt = admm_step(HINGE, y, A, cfg, st, c_factor(A, cfg))
    np.testing.assert_array_equal(nxt.alpha, st.alpha)
    np.testing.assert_array_equal(nxt.c, st.c)
    np.testing.assert_array_equal(nxt.ac, st.ac)
    assert nxt.k == 1


def test_step_rejects_mismatched_labels():
    A, _ = random_instance(6)
    cfg = AdmmConfig(lam=0.1, rho=1.0)
    st = state(A, np.zeros(6), np.zeros(6))
    factor = c_factor(A, cfg)
    for labels in (np.ones(5), np.ones(1), 1.0, np.ones((6, 1))):
        with pytest.raises(InputError):
            admm_step(HINGE, labels, A, cfg, st, factor)


def test_run_rejects_mismatched_labels():
    A, _ = random_instance(6)
    cfg = AdmmConfig(lam=0.1, rho=1.0)
    st = state(A, np.zeros(6), np.zeros(6))
    with pytest.raises(InputError):
        admm_run(HINGE, np.ones(5), A, cfg, [st])


def test_run_rejects_no_starts():
    A, _ = random_instance(6)
    with pytest.raises(InputError, match="at least one start"):
        admm_run(HINGE, np.ones(6), A, AdmmConfig(lam=0.1, rho=1.0), [])


@pytest.mark.parametrize("field", ["alpha", "c", "ac"])
def test_run_rejects_a_start_of_the_wrong_shape(field):
    A, _ = random_instance(6)
    good = state(A, np.zeros(6), np.zeros(6))
    bad = replace(good, **{field: np.zeros(5)})
    with pytest.raises(InputError, match=f"start 1: {field} must have shape"):
        admm_run(HINGE, np.ones(6), A, AdmmConfig(lam=0.1, rho=1.0), [good, bad])


@pytest.mark.parametrize("order", ["C", "F"])
def test_step_of_a_block_in_either_order_equals_its_columns_alone(order, rng):
    # The per-column solves must land in the block's dc whatever the layout
    # of the arrays passed in.
    A, y = random_instance(30)
    cfg = AdmmConfig(lam=0.3, rho=2.0)
    factor = c_factor(A, cfg)
    starts = [initial_state(A, rng) for _ in range(2)]
    block = AdmmState(*(np.array([getattr(s, f) for s in starts]).T.copy(order=order)
                        for f in ("alpha", "c", "ac")), k=0)
    assert block.c.flags[f"{order}_CONTIGUOUS"]
    for _ in range(3):
        block = admm_step(PL2, y[:, None], A, cfg, block, factor)
        starts = [admm_step(PL2, y, A, cfg, s, factor) for s in starts]
        for i, s in enumerate(starts):
            for f in ("alpha", "c", "ac"):
                np.testing.assert_array_equal(getattr(block, f)[:, i], getattr(s, f))


def test_multiplier_identity_after_every_step():
    # The textbook update gamma + rho (alpha - A c), from gamma = 2 lam c_prev,
    # lands on 2 lam c: the identity the state relies on instead of storing gamma.
    A, y = random_instance(20)
    cfg = AdmmConfig(lam=0.4, rho=2.5)
    factor = c_factor(A, cfg)
    st = initial_state(A, np.random.default_rng(0))
    for _ in range(30):
        nxt = admm_step(TLOG, y, A, cfg, st, factor)
        updated = 2.0 * cfg.lam * st.c + cfg.rho * (nxt.alpha - A.entries @ nxt.c)
        gap = np.max(np.abs(updated - 2.0 * cfg.lam * nxt.c))
        assert gap <= 1e-12 * (1.0 + np.max(np.abs(nxt.c)))
        st = nxt


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def test_run_stops_at_fixed_point():
    A, y = unit_instance()
    cfg = AdmmConfig(lam=1.0, rho=1.0, eps0=1e-12)
    st = state(A, [0.5], [0.5])
    out = admm_run(HINGE, y, A, cfg, [st])[0]
    assert out.status == "converged"
    assert len(out.trace) == 1
    assert out.trace.final.residual == 0.0
    np.testing.assert_array_equal(out.state.c, np.array([0.5]))


def test_run_honors_iteration_cap():
    A, y = random_instance(16)
    cfg = AdmmConfig(lam=0.1, rho=0.05, eps0=1e-14, max_iter=3)
    init = initial_state(A, np.random.default_rng(1))
    out = admm_run(TLOG, y, A, cfg, [init])[0]
    assert out.status == "max_iter"
    assert len(out.trace) == 3
    assert out.state.k == 3


def test_run_trace_matches_recomputation():
    A, y = random_instance(12)
    cfg = AdmmConfig(lam=0.5, rho=5.0, eps0=1e-10, max_iter=200)
    init = initial_state(A, np.random.default_rng(2))
    out = admm_run(RAMP, y, A, cfg, [init])[0]
    final = out.trace.final
    assert final.objective == pytest.approx(
        objective_value(RAMP, y, A, cfg, out.state.c), rel=1e-12
    )
    lag = lagrangian(RAMP, y, A, cfg, out.state)
    assert final.lagrangian == pytest.approx(lag, rel=1e-12)
    assert final.k == len(out.trace)


def test_run_deterministic_for_equal_seeds():
    A, y = random_instance(14)
    cfg = AdmmConfig(lam=0.2, rho=2.0, eps0=1e-11, max_iter=500)
    outs = []
    for _ in range(2):
        init = initial_state(A, np.random.default_rng(123))
        outs.append(admm_run(PL2, y, A, cfg, [init])[0])
    a, b = outs
    assert a.status == b.status
    assert len(a.trace) == len(b.trace)
    np.testing.assert_array_equal(a.state.c, b.state.c)
    for ra, rb in zip(a.trace.records, b.trace.records):
        assert ra == rb


def test_monotone_descent_when_condition_holds(separated_instance):
    data, _, A = separated_instance
    cfg = AdmmConfig(lam=0.5, rho=5.0, eps0=1e-12, max_iter=500)
    init = initial_state(A, np.random.default_rng(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = rho_condition(A, cfg)
        out = admm_run(HINGE, data.y, A, cfg, [init], check)[0]
    assert check.ok
    assert check.lambda_min == float(np.linalg.eigvalsh(A.entries)[0])
    lags = [r.lagrangian for r in out.trace.records]
    for prev, cur in zip(lags, lags[1:]):
        assert cur <= prev + DESCENT_SLACK


def test_descent_monitor_warns_on_each_rise(separated_instance, monkeypatch):
    # A Lagrangian that reads 0, 1, 2 rises twice; the monitor warns on
    # each rise when rho clears the threshold, and never otherwise.
    import splitsvm.admm as admm_mod

    data, _, A = separated_instance
    cfg = AdmmConfig(lam=0.5, rho=5.0, max_iter=3)
    check = rho_condition(A, cfg)
    assert check.status == "satisfied"
    init = initial_state(A, np.random.default_rng(3))
    for verdict in (check, None, RhoCondition("not checked"),
                    RhoCondition("NOT satisfied", check.lambda_min, 100.0),
                    RhoCondition("not verifiable", detail="singular")):
        values = iter([0.0, 1.0, 2.0])
        monkeypatch.setattr(admm_mod, "_lagrangian_given", lambda *args: next(values))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = admm_run(HINGE, data.y, A, cfg, [init], verdict)[0]
        assert out.status == "max_iter" and out.state.k == 3
        expected = [f"augmented Lagrangian rose by 1.000e+00 at iteration {k} despite rho "
                    "clearing the descent threshold" for k in (2, 3)] if verdict is check else []
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, text) for text in expected
        ]


def test_rho_policy_warn_below_threshold(separated_instance):
    _, _, A = separated_instance
    cfg = AdmmConfig(lam=0.5, rho=1.0)
    with pytest.warns(RuntimeWarning, match="descent threshold") as caught:
        check = rho_condition(A, cfg)
    assert len(caught) == 1
    assert check.status == "NOT satisfied" and not check.ok
    assert check.threshold == 4.0 * cfg.lam / check.lambda_min


def test_rho_policy_error_below_threshold(separated_instance):
    _, _, A = separated_instance
    cfg = AdmmConfig(lam=0.5, rho=1.0, enforce_rho_condition="error")
    with pytest.raises(InputError, match="descent threshold"):
        rho_condition(A, cfg)


def test_rho_policy_off_is_silent(separated_instance):
    _, _, A = separated_instance
    cfg = AdmmConfig(lam=0.5, rho=1.0, enforce_rho_condition="off")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = rho_condition(A, cfg)
    assert check.status == "not checked" and check.lambda_min is None


def test_rho_policy_unverifiable_matrix():
    singular = GramMatrix(np.ones((3, 3)))
    with pytest.warns(RuntimeWarning, match="could not verify"):
        check = rho_condition(singular, AdmmConfig(lam=0.5, rho=1.0))
    assert check.status == "not verifiable" and "not positive definite" in check.detail
    with pytest.raises(DefinitenessError):
        rho_condition(singular, AdmmConfig(lam=0.5, rho=1.0, enforce_rho_condition="error"))


def test_unknown_eigenvalue_skips_policy(separated_instance):
    data, _, A = separated_instance
    cfg = AdmmConfig(lam=0.5, rho=1.0, eps0=1e-10, max_iter=50, enforce_rho_condition="error")
    init = initial_state(A, np.random.default_rng(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = admm_run(HINGE, data.y, A, cfg, [init])[0]
    assert out.state.k > 0


def test_run_stops_a_diverged_start(monkeypatch):
    import splitsvm.admm as admm_mod

    monkeypatch.setattr(admm_mod, "prox_vector", lambda *args: np.full(args[-1].shape, np.nan))
    A, y = random_instance(6)
    cfg = AdmmConfig(lam=0.1, rho=1.0, max_iter=50)
    out = admm_run(HINGE, y, A, cfg, [initial_state(A, np.random.default_rng(0))])[0]
    assert out.status == "diverged"
    assert out.state.k == 1 and len(out.trace) == 1


@pytest.mark.parametrize("loss", [HINGE, PL2, RAMP, TLOG], ids=lambda l: l.name)
@pytest.mark.parametrize("lam, rho", [(0.5, 5.0), (0.1, 1.0)])
def test_converged_means_the_true_residual_passes(loss, lam, rho):
    cfg = AdmmConfig(lam=lam, rho=rho, max_iter=5000)
    for seed in range(3):
        A, y = random_instance(30, seed=seed)
        out = admm_run(loss, y, A, cfg, [initial_state(A, np.random.default_rng(seed))])[0]
        assert out.status == "converged"
        true_resid = float(np.linalg.norm(out.state.alpha - a_dot(A, out.state.c)))
        assert true_resid < cfg.eps0
        assert out.trace.final.residual == true_resid
        np.testing.assert_array_equal(out.state.ac, a_dot(A, out.state.c))


def drifted_fixed_point():
    """The hinge fixed point alpha = c = 1/2 of A = [[1]], lam = rho = 1,
    with its carried A c off by 1e-13 and eps0 = 1e-14.  A step keeps c and
    carries the error, so the carried residual is 0 while the true one is
    about 1e-13."""
    A, y = unit_instance()
    cfg = AdmmConfig(lam=1.0, rho=1.0, eps0=1e-14)
    st = AdmmState(alpha=np.array([0.5]), c=np.array([0.5]), ac=np.array([0.5 + 1e-13]), k=0)
    return A, y, cfg, st


def test_stop_check_refuses_a_drifted_a_c():
    A, y, cfg, st = drifted_fixed_point()
    nxt = admm_step(HINGE, y, A, cfg, st, c_factor(A, cfg))
    true_resid = float(np.linalg.norm(nxt.alpha - a_dot(A, nxt.c)))
    assert float(np.linalg.norm(nxt.alpha - nxt.ac)) < cfg.eps0 < true_resid

    one = admm_run(HINGE, y, A, replace(cfg, max_iter=1), [st])[0]
    assert one.status == "max_iter"
    assert one.trace.final.residual == true_resid
    np.testing.assert_array_equal(one.state.ac, a_dot(A, one.state.c))

    # From the resynced A c the next step lands on the fixed point.
    out = admm_run(HINGE, y, A, cfg, [st])[0]
    assert out.status == "converged" and out.state.k == 2
    assert [r.residual for r in out.trace.records] == [true_resid, 0.0]


def count_calls(monkeypatch, name):
    """Wrap splitsvm.admm.<name> so each call is appended to the returned list."""
    import splitsvm.admm as admm_mod

    calls = []
    real = getattr(admm_mod, name)

    def counted(*args):
        out = real(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(admm_mod, name, counted)
    return calls


def test_capped_run_forms_no_product(monkeypatch):
    # Counts admm_step's products too: the loop reads one N x N operand.
    A, y = random_instance(16)
    cfg = AdmmConfig(lam=0.1, rho=1.0, max_iter=50)
    init = initial_state(A, np.random.default_rng(1))
    products = count_calls(monkeypatch, "a_dot")
    out = admm_run(TLOG, y, A, cfg, [init])[0]
    assert out.status == "max_iter" and out.state.k == 50
    assert products == []


@pytest.mark.parametrize("case", ["random", "drifted"])
def test_converged_run_forms_one_product_per_stop_check(monkeypatch, case):
    if case == "random":
        A, y = random_instance(30, seed=0)
        cfg = AdmmConfig(lam=0.5, rho=5.0, max_iter=5000)
        init = initial_state(A, np.random.default_rng(0))
    else:
        A, y, cfg, init = drifted_fixed_point()
    steps = count_calls(monkeypatch, "admm_step")
    products = count_calls(monkeypatch, "a_dot")
    out = admm_run(HINGE, y, A, cfg, [init])[0]
    assert out.status == "converged"
    checks = sum(float(np.linalg.norm(st.alpha - st.ac)) < cfg.eps0 for st in steps)
    assert len(products) == checks >= 1
    if case == "drifted":
        assert checks == 2  # the first check is refused


def test_step_carries_a_c():
    # admm_step forms A c from the c-update identity, not by a product.
    # Started from the exact product, one step's rounding stays within
    # 2 * N * eps * max|A| * max|c| (c over both states) of a_dot.
    A, y = random_instance(10)
    cfg = AdmmConfig(lam=0.2, rho=2.0)
    factor = c_factor(A, cfg)
    st = initial_state(A, np.random.default_rng(5))
    np.testing.assert_array_equal(st.ac, a_dot(A, st.c))
    eps = np.finfo(float).eps
    for _ in range(50):
        st = replace(st, ac=a_dot(A, st.c))
        nxt = admm_step(PL2, y, A, cfg, st, factor)
        scale = max(np.abs(st.c).max(), np.abs(nxt.c).max())
        tol = 2.0 * A.size * eps * np.abs(A.entries).max() * scale
        assert np.max(np.abs(nxt.ac - a_dot(A, nxt.c))) <= tol
        st = nxt


def test_carried_a_c_drift_over_a_long_run():
    # With no stop check to resync it, the carried A c takes on each step's
    # rounding: a few ulps of |alpha| and (2 lam / rho) |c| from forming the
    # right-hand side and the carried sum, and the solve's backward error,
    # N eps max|A| times the step in c.  The drift after k steps stays
    # within eps times the sum of those scales over the steps.
    train, _ = generate_synthetic(200, 2, seed=3)
    A = gram(KernelSpec("gaussian", 1.0), train.X)
    eps = np.finfo(float).eps
    for loss, lam, rho in ((PL2, 0.1, 1.0), (TLOG, 0.1, 0.05)):
        cfg = AdmmConfig(lam=lam, rho=rho, enforce_rho_condition="off")
        factor = c_factor(A, cfg)
        st = initial_state(A, np.random.default_rng(0))
        budget = 0.0
        for _ in range(2000):
            nxt = admm_step(loss, train.y, A, cfg, st, factor)
            budget += eps * (np.abs(nxt.alpha).max() + 2.0 * lam / rho * np.abs(nxt.c).max()
                             + A.size * np.abs(A.entries).max() * np.abs(nxt.c - st.c).max())
            st = nxt
        drift = np.max(np.abs(st.ac - a_dot(A, st.c)))
        assert 0.0 < drift <= budget
        assert drift < 1e-13


def assert_same_run(alone, other):
    """Two results of one start agree bit for bit: the status, error, count,
    final record (when there is one), state and whole trace."""
    assert (other.status, other.error, other.state.k) == (alone.status, alone.error,
                                                          alone.state.k)
    if len(alone.trace):
        assert repr(other.trace.final.objective) == repr(alone.trace.final.objective)
        assert repr(other.trace.final.residual) == repr(alone.trace.final.residual)
    for name in ("alpha", "c", "ac"):
        np.testing.assert_array_equal(getattr(other.state, name), getattr(alone.state, name))
    assert other.trace.to_csv() == alone.trace.to_csv()


@pytest.mark.parametrize("loss", [HINGE, PL2, RAMP, TLOG], ids=lambda l: l.name)
def test_block_starts_equal_their_runs_alone(loss, monkeypatch):
    # Five starts whose columns retire at different iterations: a NaN start
    # diverges at once, start 1 fails at its 50th step, starts 0 and 2
    # converge, and start 3 hits the cap.  Each equals its run alone, in
    # either order of the block, and the block stays Fortran-ordered as
    # it is compacted.
    import splitsvm.admm as admm_mod

    A, y = random_instance(30, seed=1)
    cfg = AdmmConfig(lam=0.5, rho=5.0, max_iter=5000)
    inits = [initial_state(A, np.random.default_rng(s)) for s in range(4)]
    counts = [admm_run(loss, y, A, cfg, [init])[0].state.k for init in inits]
    assert counts[3] == max(counts) > max(counts[:3])
    cfg = replace(cfg, max_iter=counts[3] - 1)

    real_form = admm_mod._psd_form
    forms = []
    monkeypatch.setattr(admm_mod, "_psd_form", lambda q: forms.append(q) or real_form(q))
    admm_run(loss, y, A, replace(cfg, max_iter=50), [inits[1]])
    trigger = forms[-1]

    def fails_at_trigger(q):
        if q == trigger:
            raise DefinitenessError(f"quadratic form {q!r} read as negative")
        return real_form(q)

    monkeypatch.setattr(admm_mod, "_psd_form", fails_at_trigger)
    c = inits[2].c.copy()
    c[7] = np.nan
    inits.append(state(A, a_dot(A, c), c))
    alone = [admm_run(loss, y, A, cfg, [init])[0] for init in inits]

    real_step = admm_mod.admm_step
    real_risk = admm_mod._risk
    widths = []

    def step(loss, labels, A, cfg, st, factor):
        assert all(a.flags.f_contiguous for a in (st.alpha, st.c, st.ac))
        widths.append(st.c.shape[1])
        return real_step(loss, labels, A, cfg, st, factor)

    def risk(loss, labels, t):
        # Every risk is taken on a block of contiguous columns.
        assert t.flags.f_contiguous
        return real_risk(loss, labels, t)

    monkeypatch.setattr(admm_mod, "admm_step", step)
    monkeypatch.setattr(admm_mod, "_risk", risk)
    block = admm_run(loss, y, A, cfg, inits)
    assert widths[0] == 5 and widths[-1] == 1 and widths == sorted(widths, reverse=True)
    backwards = admm_run(loss, y, A, cfg, inits[::-1])[::-1]

    assert alone[1].status == "failed" and "read as negative" in alone[1].error
    assert alone[1].state.k == 50 and len(alone[1].trace) == 49
    assert [alone[s].status for s in (0, 2, 3, 4)] == ["converged", "converged", "max_iter",
                                                       "diverged"]
    assert alone[4].state.k == 1 and alone[3].state.k == cfg.max_iter
    for run in (block[0], block[2]):
        # A stop-check record is computed from the true product.
        st = run.state
        objective = _risk(loss, y, st.ac) + cfg.lam * float(st.c.dot(st.ac))
        assert repr(run.trace.final.objective) == repr(objective)
    for s in range(5):
        assert_same_run(alone[s], block[s])
        assert_same_run(alone[s], backwards[s])


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 300, 1000])
def test_column_risk_equals_the_risk_of_each_column(n):
    # A block's risks are pairwise sums along its contiguous columns: each
    # equals the risk of that column alone, and np.mean, bit for bit.
    rng = np.random.default_rng(n)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    t = np.array([rng.normal(scale=2.0, size=n) for _ in range(5)]).T
    assert t.flags.f_contiguous
    for loss in (HINGE, PL2, RAMP, TLOG):
        risks = _risk(loss, y[:, None], t)
        assert len(risks) == 5
        for j in range(5):
            col = t[:, j].copy()
            assert risks[j] == _risk(loss, y, col) == np.mean(margin_value(loss, y * col))


def test_a_dot_matches_dense_product_within_rounding(rng):
    # symv and gemv sum in different orders; each entry of either is within
    # N * eps * max|A| * max|c| of the exact product, so they differ by at
    # most twice that.
    for n in (1, 7, 300):
        A, _ = random_instance(n, seed=n)
        c = rng.uniform(-10.0, 10.0, n)
        tol = 2.0 * n * np.finfo(float).eps * np.abs(A.entries).max() * np.abs(c).max()
        assert np.max(np.abs(a_dot(A, c) - A.entries @ c)) <= tol


def test_a_dot_and_c_factor_read_one_triangle(rng):
    # Garbage above the diagonal of the C-ordered entries changes neither
    # the product nor the factor: both read the entries on and below it.
    A, _ = random_instance(12)
    cfg = AdmmConfig(lam=0.2, rho=1.5)
    skewed = A.entries.copy()
    skewed[np.triu_indices(12, k=1)] = rng.uniform(-50.0, 50.0, 66)
    B = GramMatrix(skewed)
    c = rng.normal(size=12)
    np.testing.assert_array_equal(a_dot(B, c), a_dot(A, c))
    b = rng.normal(size=12)
    np.testing.assert_array_equal(c_solve(c_factor(B, cfg), b), c_solve(c_factor(A, cfg), b))


def test_c_factor_is_fortran_ordered():
    A, _ = random_instance(9)
    assert A.entries.flags.c_contiguous
    chol, lower = c_factor(A, AdmmConfig(lam=0.1, rho=1.0))
    assert chol.flags.f_contiguous and lower is False


@pytest.mark.parametrize("lower", [False, True])
def test_c_solve_with_either_factor_triangle(lower, rng):
    A, _ = random_instance(15)
    lam, rho = 0.3, 2.0
    m = 2.0 * lam * np.eye(15) + rho * A.entries
    factor = cho_factor(m, lower=lower)
    for _ in range(5):
        b = rng.normal(size=15)
        kept = b.copy()
        x = c_solve(factor, b)
        np.testing.assert_array_equal(b, kept)
        ref = np.linalg.solve(m, b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_fortran_ordered_gram_trains_to_same_iterates():
    A, y = random_instance(20)
    F = GramMatrix(np.asfortranarray(A.entries))
    assert F.entries.flags.c_contiguous
    cfg = AdmmConfig(lam=0.1, rho=1.0, max_iter=40)
    outs = [admm_run(PL2, y, M, cfg, [initial_state(M, np.random.default_rng(3))])[0]
            for M in (A, F)]
    np.testing.assert_array_equal(outs[0].state.c, outs[1].state.c)
    np.testing.assert_array_equal(outs[0].state.alpha, outs[1].state.alpha)
    assert outs[0].trace.to_csv() == outs[1].trace.to_csv()


def test_run_rejects_an_indefinite_c_matrix():
    # 2 lam I + rho A has eigenvalues 0.2 - 1 and 0.2 + 3.
    A = GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    cfg = AdmmConfig(lam=0.1, rho=1.0, max_iter=5, enforce_rho_condition="off")
    init = initial_state(A, np.random.default_rng(0))
    with pytest.raises(DefinitenessError, match="not positive definite"):
        admm_run(HINGE, np.array([1.0, -1.0]), A, cfg, [init])


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_check_rho_condition_values():
    identity = GramMatrix(np.eye(3))  # lambda_min = 1
    check = rho_condition(identity, AdmmConfig(lam=0.5, rho=5.0))
    assert check.lambda_min == 1.0
    assert check.status == "satisfied" and check.threshold == 2.0
    with pytest.warns(RuntimeWarning, match="descent threshold"):
        check = rho_condition(identity, AdmmConfig(lam=0.25, rho=1.0))
    assert check.threshold == 1.0
    assert check.status == "NOT satisfied"  # the inequality is strict


def test_rkhs_step_norm_identity_kernel():
    # With A = I the function-space step is the Euclidean step in c.
    A = GramMatrix(np.eye(3))
    y = np.array([1.0, -1.0, 1.0])
    cfg = AdmmConfig(lam=0.5, rho=2.0, max_iter=1)
    init = state(A, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    out = admm_run(HINGE, y, A, cfg, [init])[0]
    d = out.state.c - init.c
    assert out.trace.final.step_norm_H == pytest.approx(math.sqrt(d @ d), rel=1e-15)
    assert out.trace.final.step_norm_H > 0.0
    # a fixed point takes a step of exactly zero
    A1, y1 = unit_instance()
    fixed = admm_run(HINGE, y1, A1, AdmmConfig(lam=1.0, rho=1.0), [state(A1, [0.5], [0.5])])[0]
    assert fixed.trace.final.step_norm_H == 0.0


def test_rkhs_step_norm_general_matrix():
    # The trace's step_norm_H column is sqrt(d^T A d) for d = c_k - c_{k-1}.
    e = math.exp(-1.0)
    A = GramMatrix(np.array([[1.0, e], [e, 1.0]]))
    y = np.array([1.0, -1.0])
    cfg = AdmmConfig(lam=0.2, rho=1.5, max_iter=5, eps0=1e-300)
    init = initial_state(A, np.random.default_rng(4))
    out = admm_run(TLOG, y, A, cfg, [init])[0]
    factor = c_factor(A, cfg)
    st = init
    for rec in out.trace.records:
        nxt = admm_step(TLOG, y, A, cfg, st, factor)
        d = nxt.c - st.c
        assert rec.step_norm_H == pytest.approx(math.sqrt(d @ A.entries @ d), rel=1e-10)
        st = nxt
    assert len(out.trace) == 5


def test_rkhs_step_norm_rejects_indefinite():
    A = np.array([[0.0, 2.0], [2.0, 0.0]])
    d = np.array([1.0, -1.0])
    with pytest.raises(DefinitenessError):
        _psd_form(float(d @ (A @ d)))


def test_stationarity_residual_zero_at_fixed_point():
    A, y = unit_instance()
    cfg = AdmmConfig(lam=1.0, rho=1.0)
    st = state(A, [0.5], [0.5])
    assert stationarity_residual(HINGE, y, A, cfg, st) == 0.0


def test_stationarity_residual_positive_off_fixed_point():
    A, y = random_instance(10)
    cfg = AdmmConfig(lam=0.5, rho=2.0)
    st = initial_state(A, np.random.default_rng(9))
    assert stationarity_residual(TLOG, y, A, cfg, st) > 1e-3


def test_converged_run_has_small_stationarity_residual():
    A, y = random_instance(12)
    cfg = AdmmConfig(lam=0.5, rho=5.0, eps0=1e-12, max_iter=2000)
    init = initial_state(A, np.random.default_rng(6))
    out = admm_run(HINGE, y, A, cfg, [init])[0]
    assert out.status == "converged"
    assert stationarity_residual(HINGE, y, A, cfg, out.state) <= 1e-9


# ---------------------------------------------------------------------------
# initial state and trace serialization
# ---------------------------------------------------------------------------


def test_initial_state_ranges_and_consistency():
    A, _ = random_instance(25)
    st = initial_state(A, np.random.default_rng(42))
    assert st.k == 0
    assert st.c.shape == (25,)
    assert np.all(st.c >= -10.0) and np.all(st.c <= 10.0)
    np.testing.assert_array_equal(st.ac, a_dot(A, st.c))
    np.testing.assert_array_equal(st.alpha, st.ac)


def test_initial_state_seed_determinism():
    A, _ = random_instance(8)
    a = initial_state(A, np.random.default_rng(7))
    b = initial_state(A, np.random.default_rng(7))
    np.testing.assert_array_equal(a.c, b.c)


def test_trace_csv_format_and_precision():
    trace = IterationTrace()
    trace.append(1, 1.0 / 3.0, 0.25, 1e-5, 0.5)
    trace.append(2, 0.3, 0.2, 1e-7, 0.25)
    text = trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "k,lagrangian,objective,residual,step_norm_H"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert int(fields[0]) == 1
    # 17 significant digits round-trip doubles exactly
    assert float(fields[1]) == 1.0 / 3.0


def test_trace_returns_the_records_appended():
    recs = [TraceRecord(1, 1.0 / 3.0, 0.25, 1e-5, 0.5), TraceRecord(2, 0.3, 0.2, 1e-7, 0.25)]
    trace = IterationTrace()
    for rec in recs:
        trace.append(*dataclasses.astuple(rec))
    assert len(trace) == 2
    assert trace.records == recs
    assert trace.final == recs[-1]
    assert type(trace.final.k) is int


def test_trace_csv_cumulative_column():
    trace = IterationTrace()
    trace.append(1, 1.0, 1.0, 1e-3, 0.5)
    trace.append(2, 0.9, 0.9, 1e-4, 0.75)
    text = trace.to_csv(extra_cumulative_step_norm=True)
    lines = text.strip().split("\n")
    assert lines[0].endswith(",cum_step_norm_H")
    assert float(lines[1].split(",")[-1]) == 0.5
    assert float(lines[2].split(",")[-1]) == 1.25


def test_trace_write_csv_round_trip(tmp_path):
    trace = IterationTrace()
    trace.append(1, 0.1, 0.1, 1e-2, 0.3)
    path = tmp_path / "trace.csv"
    trace.write_csv(str(path))
    assert path.read_text() == trace.to_csv()
