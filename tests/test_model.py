from pathlib import Path

import numpy as np
import pytest

from splitsvm.admm import AdmmConfig, _psd_form, admm_run, c_inverse, initial_state
from splitsvm.data import Dataset, generate_synthetic
from splitsvm.errors import (
    DefinitenessError,
    FormatVersionError,
    InputError,
    ParseError,
    TrainingError,
)
from splitsvm.kernels import GramMatrix, KernelSpec, cross_gram, gram
from splitsvm.losses import HINGE, RAMP, TLOG
from splitsvm.model import (
    PREDICT_CELLS,
    FeatureScaling,
    rho_condition,
    ModelMeta,
    TrainedModel,
    decision_values,
    load_model,
    predict_labels,
    save_model,
    train_multistart,
)


def toy_model(coeffs=(2.0,), inputs=((0.0, 0.0),), scaling=None, sigma=1.0):
    meta = ModelMeta("hinge", 1.0, True, 0.0, 0.0)
    return TrainedModel(
        KernelSpec("gaussian", sigma),
        0.1,
        np.array(inputs, dtype=float),
        np.array(coeffs, dtype=float),
        meta,
        scaling=scaling,
    )


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def test_decision_value_at_training_point():
    # A single 1-D point is read as one row.
    m = toy_model(coeffs=(2.0,))
    assert decision_values(m, [0.0, 0.0]).tolist() == [2.0]
    assert decision_values(m, [1.0, 0.0])[0] == pytest.approx(2.0 * np.exp(-1.0))


def test_decision_values_at_training_points_equal_gram_product(rng):
    pts = rng.uniform(-2.0, 2.0, size=(12, 3))
    coeffs = rng.normal(size=12)
    m = toy_model(coeffs=coeffs, inputs=pts)
    A = gram(m.kernel, pts).entries
    np.testing.assert_allclose(decision_values(m, pts), A @ coeffs, rtol=1e-12, atol=1e-14)


def test_decision_values_in_blocks_match_the_one_shot_product(rng):
    pts = rng.uniform(-2.0, 2.0, size=(30, 2))
    coeffs = rng.normal(size=30)
    m = toy_model(coeffs=coeffs, inputs=pts)
    q = rng.uniform(-3.0, 3.0, size=(2 * (PREDICT_CELLS // 30) + 37, 2))
    one_shot = cross_gram(m.kernel, q, pts) @ coeffs
    np.testing.assert_allclose(decision_values(m, q), one_shot, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("family", ["gaussian", "matern1"])
def test_decision_values_do_not_depend_on_the_block(rng, monkeypatch, family):
    # Blocks of 1, 7 and 128 rows, and the whole batch as one block, give
    # the same bits, and a single 1-D point gets its value in the batch.
    import splitsvm.model as model_mod

    centres = rng.uniform(-2.0, 2.0, size=(37, 3))
    scaling = FeatureScaling(np.array([0.5, -1.0, 0.0]), np.array([1.5, 2.0, 0.75]))
    m = TrainedModel(KernelSpec(family, 0.7), 0.1, centres, rng.normal(size=37),
                     ModelMeta("hinge", 1.0, True, 0.0, 0.0), scaling=scaling)
    q = rng.uniform(-3.0, 3.0, size=(300, 3))
    expected = decision_values(m, q).view(np.int64)
    for rows in (1, 7, 128, len(q)):
        monkeypatch.setattr(model_mod, "PREDICT_CELLS", rows * len(centres))
        np.testing.assert_array_equal(decision_values(m, q).view(np.int64), expected)
        for i in (0, 6, 7, 128, 299):
            assert decision_values(m, q[i]).view(np.int64).tolist() == [expected[i]]


def test_decision_values_of_no_points_is_empty():
    out = decision_values(toy_model(), np.empty((0, 2)))
    assert out.shape == (0,)


def test_decision_values_linear_in_coefficients(rng):
    pts = rng.normal(size=(6, 2))
    q = rng.normal(size=(4, 2))
    coeffs = rng.normal(size=6)
    base = decision_values(toy_model(coeffs=coeffs, inputs=pts), q)
    doubled = decision_values(toy_model(coeffs=2.0 * coeffs, inputs=pts), q)
    np.testing.assert_allclose(doubled, 2.0 * base, rtol=1e-14)


def test_classify_tie_goes_positive():
    m = toy_model(coeffs=(0.0,))
    assert predict_labels(m, [5.0, 5.0]).tolist() == [1.0]
    assert decision_values(m, [5.0, 5.0]).tolist() == [0.0]


def test_classify_signs():
    m = toy_model(coeffs=(-3.0,))
    assert predict_labels(m, [0.0, 0.0]).tolist() == [-1.0]
    assert predict_labels(m, [[0.0, 0.0], [50.0, 50.0]]).tolist() == [-1.0, 1.0]


def test_prediction_input_validation():
    m = toy_model()
    with pytest.raises(InputError):
        decision_values(m, [[1.0, 2.0, 3.0]])  # wrong dimension
    with pytest.raises(InputError):
        decision_values(m, [[np.nan, 0.0]])


def test_scaling_applied_before_kernel():
    scaling = FeatureScaling(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    m = toy_model(coeffs=(1.0,), inputs=((0.0, 0.0),), scaling=scaling)
    # the raw point (1, 1) scales to the stored input (0, 0)
    assert decision_values(m, [1.0, 1.0]).tolist() == [1.0]


def test_model_shape_validation():
    for coeffs, inputs in (
        ((1.0, 2.0), ((0.0, 0.0),)),
        ((), np.zeros((0, 2))),  # no training points
        ((1.0,), np.zeros((1, 0))),  # no features
    ):
        with pytest.raises(InputError):
            toy_model(coeffs=coeffs, inputs=inputs)


def test_rkhs_norm_sq():
    # c^T A c through the PSD check the run applies to its step norms.
    A = np.array([[1.0, 0.5], [0.5, 1.0]])

    def norm_sq(c):
        c = np.array(c)
        return _psd_form(float(c @ (A @ c)))

    assert norm_sq([1.0, 0.0]) == 1.0
    assert norm_sq([1.0, 1.0]) == pytest.approx(3.0)
    assert norm_sq([0.0, 0.0]) == 0.0
    assert _psd_form(-1e-13) == 0.0  # rounding below zero is clamped


# ---------------------------------------------------------------------------
# multi-start training
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_split():
    return generate_synthetic(40, 16, seed=21)


def test_single_start_equals_direct_run(small_split):
    train, _ = small_split
    cfg = AdmmConfig(lam=0.5, rho=5.0, eps0=1e-10, max_iter=2000,
                     enforce_rho_condition="off")
    spec = KernelSpec("gaussian", 1.0)
    A = gram(spec, train.X)
    model, summaries = train_multistart(train, spec, HINGE, cfg, starts=1, seed=77)
    init = initial_state(A, np.random.default_rng(77))
    direct = admm_run(HINGE, train.y, A, cfg, [init])[0]
    np.testing.assert_array_equal(model.coeffs, direct.state.c)
    assert summaries[0].iterations == direct.state.k
    assert model.meta.start_index == 0
    assert model.meta.loss_name == "hinge"


def test_multistart_keeps_lowest_objective(small_split):
    train, _ = small_split
    cfg = AdmmConfig(lam=0.1, rho=1.0, eps0=1e-10, max_iter=3000,
                     enforce_rho_condition="off")
    spec = KernelSpec("gaussian", 1.0)
    model, summaries = train_multistart(train, spec, RAMP, cfg, starts=4, seed=5, trace=True)
    objectives = [s.objective for s in summaries]
    assert len(objectives) == 4
    assert model.meta.objective == min(objectives)
    assert model.meta.start_index == int(np.argmin(objectives))
    chosen = summaries[model.meta.start_index]
    assert chosen.trace is not None
    assert chosen.trace.final.objective == model.meta.objective
    assert len(chosen.trace) == chosen.iterations
    assert all(s.trace is None for s in summaries if s is not chosen)


def test_multistart_accepts_precomputed_gram(small_split):
    train, _ = small_split
    cfg = AdmmConfig(lam=0.5, rho=5.0, eps0=1e-8, max_iter=1000,
                     enforce_rho_condition="off")
    spec = KernelSpec("matern1", 1.0)
    A = gram(spec, train.X)
    m1, _ = train_multistart(train, spec, HINGE, cfg, starts=2, seed=3)
    m2, _ = train_multistart(train, spec, HINGE, cfg, starts=2, seed=3, gram_matrix=A)
    np.testing.assert_array_equal(m1.coeffs, m2.coeffs)


def test_multistart_accepts_a_shared_inverse(small_split, monkeypatch):
    # A given inverse is used as is, and the run equals the one that builds
    # its own; one of the wrong size is refused.
    import splitsvm.model as model_mod

    train, _ = small_split
    cfg = AdmmConfig(lam=0.5, rho=5.0, eps0=1e-8, max_iter=1000,
                     enforce_rho_condition="off")
    spec = KernelSpec("matern1", 1.0)
    A = gram(spec, train.X)
    m1, s1 = train_multistart(train, spec, TLOG, cfg, starts=2, seed=3, gram_matrix=A)
    inverse = c_inverse(A, cfg)
    monkeypatch.setattr(model_mod, "c_inverse", None)
    m2, s2 = train_multistart(train, spec, TLOG, cfg, starts=2, seed=3, gram_matrix=A,
                              inverse=inverse)
    np.testing.assert_array_equal(m1.coeffs, m2.coeffs)
    assert [(s.iterations, s.objective) for s in s1] == [(s.iterations, s.objective) for s in s2]
    with pytest.raises(InputError, match="^inverse does not match the kernel matrix size$"):
        train_multistart(train, spec, TLOG, cfg, starts=1, seed=3, gram_matrix=A,
                         inverse=np.eye(3))


def test_multistart_gram_size_mismatch(small_split):
    train, _ = small_split
    cfg = AdmmConfig(lam=0.5, rho=5.0, enforce_rho_condition="off")
    wrong = GramMatrix(np.eye(3))
    with pytest.raises(InputError):
        train_multistart(train, KernelSpec("gaussian", 1.0), HINGE, cfg,
                         starts=1, seed=0, gram_matrix=wrong)


def test_multistart_requires_a_start(small_split):
    train, _ = small_split
    cfg = AdmmConfig(lam=0.5, rho=5.0, enforce_rho_condition="off")
    with pytest.raises(InputError):
        train_multistart(train, KernelSpec("gaussian", 1.0), HINGE, cfg,
                         starts=0, seed=0)


def test_multistart_rejects_a_negative_seed(small_split):
    train, _ = small_split
    cfg = AdmmConfig(lam=0.5, rho=5.0, enforce_rho_condition="off")
    with pytest.raises(InputError, match="seed must be non-negative, got -1"):
        train_multistart(train, KernelSpec("gaussian", 1.0), HINGE, cfg,
                         starts=1, seed=-1)


def _train(train, starts=1, seed=0):
    cfg = AdmmConfig(lam=0.5, rho=5.0, max_iter=5, enforce_rho_condition="off")
    return train_multistart(train, KernelSpec("gaussian", 1.0), HINGE, cfg, starts, seed)


@pytest.mark.parametrize("name, call", [
    ("max_iter", lambda train, v: AdmmConfig(lam=0.5, rho=5.0, max_iter=v)),
    ("starts", lambda train, v: _train(train, starts=v)),
    ("seed", lambda train, v: _train(train, seed=v)),
    ("n_train", lambda train, v: generate_synthetic(v, 2, 0)),
    ("n_test", lambda train, v: generate_synthetic(2, v, 0)),
    ("seed", lambda train, v: generate_synthetic(2, 2, v)),
], ids=["AdmmConfig-max_iter", "train_multistart-starts", "train_multistart-seed",
        "generate_synthetic-n_train", "generate_synthetic-n_test", "generate_synthetic-seed"])
def test_integer_arguments_reject_other_numbers(small_split, name, call):
    train, _ = small_split
    for value in (2.0, 1.5, "2"):
        with pytest.raises(InputError, match=f"^{name} must be an integer, got {value!r}$"):
            call(train, value)
    call(train, np.int64(2))  # numpy integers are integers


def test_multistart_enforces_rho_condition(separated_instance):
    data, spec, _ = separated_instance
    cfg = AdmmConfig(lam=0.5, rho=1.0, enforce_rho_condition="error")
    with pytest.raises(InputError, match="descent threshold"):
        train_multistart(data, spec, HINGE, cfg, starts=1, seed=0)


def test_multistart_reports_all_failed_starts(small_split, monkeypatch):
    import splitsvm.model as model_mod

    runs = []
    real = model_mod.admm_run
    monkeypatch.setattr(model_mod, "admm_run",
                        lambda *args, **kwargs: runs.append(1) or real(*args, **kwargs))
    train, _ = small_split
    # The starts run as one admm_run block, which the patched call site sees.
    ok_cfg = AdmmConfig(lam=0.5, rho=5.0, max_iter=5, enforce_rho_condition="off")
    train_multistart(train, KernelSpec("gaussian", 1.0), HINGE, ok_cfg, starts=2, seed=0)
    assert runs == [1]
    runs.clear()
    # An indefinite "kernel" matrix makes 2 lam I + rho A unfactorable, which
    # fails the problem once, before any start runs.
    n = train.n
    bad = np.eye(n)
    bad[0, 1] = bad[1, 0] = 2.0
    cfg = AdmmConfig(lam=0.1, rho=1.0, max_iter=50, enforce_rho_condition="off")
    with pytest.raises(DefinitenessError,
                       match=r"cannot factor 2 lam I \+ rho A: .* not positive definite"):
        train_multistart(train, KernelSpec("gaussian", 1.0), HINGE, cfg,
                         starts=2, seed=0, gram_matrix=GramMatrix(bad))
    assert runs == []


def test_multistart_never_selects_a_failed_start(small_split, monkeypatch):
    import splitsvm.admm as admm_mod

    real = admm_mod._psd_form
    calls = []

    def first_start_fails(q):
        # The first call is column 0 (start 0) at the block's first iteration.
        calls.append(q)
        if len(calls) == 1:
            raise DefinitenessError("kernel matrix quadratic form is negative")
        return real(q)

    monkeypatch.setattr(admm_mod, "_psd_form", first_start_fails)
    train, _ = small_split
    cfg = AdmmConfig(lam=0.5, rho=5.0, eps0=1e-8, max_iter=200, enforce_rho_condition="off")
    model, summaries = train_multistart(train, KernelSpec("gaussian", 1.0), HINGE, cfg,
                                        starts=3, seed=0)
    assert summaries[0].error is not None and summaries[0].objective is None
    assert summaries[0].trace is None
    assert model.meta.start_index != 0


def test_multistart_never_selects_a_diverged_start(small_split, monkeypatch):
    import splitsvm.admm as admm_mod

    train, _ = small_split
    monkeypatch.setattr(admm_mod, "prox_vector", lambda *args: np.full(args[-1].shape, np.nan))
    cfg = AdmmConfig(lam=0.1, rho=1.0, max_iter=50, enforce_rho_condition="off")
    with pytest.raises(TrainingError, match="start 0: diverged at iteration 1"):
        train_multistart(train, KernelSpec("gaussian", 1.0), HINGE, cfg, starts=2, seed=0)


def test_multistart_checks_rho_once(small_split, monkeypatch):
    # One Cholesky per run; lambda_min(A) only when the condition is not
    # already shown to fail at a leading minor.
    import splitsvm.model as model_mod

    calls = []
    for name in ("min_eigenvalue", "descent_minor"):
        real = getattr(model_mod, name)
        monkeypatch.setattr(model_mod, name,
                            lambda *args, _real=real, _name=name: calls.append(_name)
                            or _real(*args))
    train, _ = small_split
    cfg = AdmmConfig(lam=0.5, rho=1.0, max_iter=20)
    with pytest.warns(RuntimeWarning, match="descent threshold") as caught:
        train_multistart(train, KernelSpec("gaussian", 1.0), HINGE, cfg, starts=3, seed=0)
    assert calls == ["descent_minor"]
    assert len([w for w in caught if "descent threshold" in str(w.message)]) == 1
    calls.clear()
    cfg = AdmmConfig(lam=0.5, rho=100.0, max_iter=20)
    _, summaries = train_multistart(train, KernelSpec("gaussian", 1.0), HINGE, cfg,
                                    starts=3, seed=0)
    assert calls == ["descent_minor", "min_eigenvalue"]
    assert len(summaries) == 3


def test_multistart_factors_once(small_split, monkeypatch):
    import splitsvm.model as model_mod

    calls = []
    real = model_mod.c_inverse
    monkeypatch.setattr(model_mod, "c_inverse", lambda A, cfg: calls.append(1) or real(A, cfg))
    train, _ = small_split
    cfg = AdmmConfig(lam=0.5, rho=5.0, max_iter=20, enforce_rho_condition="off")
    _, summaries = train_multistart(train, KernelSpec("gaussian", 1.0), HINGE, cfg,
                                    starts=3, seed=0)
    assert len(summaries) == 3 and all(s.error is None for s in summaries)
    assert len(calls) == 1


def test_multistart_convex_seeds_agree(separated_instance):
    data, spec, A = separated_instance
    cfg = AdmmConfig(lam=0.5, rho=5.0, eps0=1e-12, max_iter=2000)
    check = rho_condition(A, cfg)
    m1, _ = train_multistart(data, spec, HINGE, cfg, starts=2, seed=101,
                             gram_matrix=A, rho_check=check)
    m2, _ = train_multistart(data, spec, HINGE, cfg, starts=2, seed=202,
                             gram_matrix=A, rho_check=check)
    assert m1.meta.objective == pytest.approx(m2.meta.objective, abs=1e-8)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def trained_small_model(with_scaling=False):
    train, _ = generate_synthetic(20, 4, seed=9)
    scaling = None
    if with_scaling:
        scaling = FeatureScaling.fit(train.X)
        train = Dataset(scaling.apply(train.X), train.y)
    cfg = AdmmConfig(lam=0.5, rho=5.0, eps0=1e-10, max_iter=1000,
                     enforce_rho_condition="off")
    model, _ = train_multistart(train, KernelSpec("gaussian", 1.0), TLOG, cfg,
                                starts=2, seed=13)
    model.scaling = scaling
    return model


@pytest.mark.parametrize("with_scaling", [False, True])
def test_save_load_round_trip(tmp_path, with_scaling):
    model = trained_small_model(with_scaling)
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    back = load_model(str(path))
    assert back.kernel == model.kernel
    assert back.lam == model.lam
    np.testing.assert_array_equal(back.inputs, model.inputs)
    np.testing.assert_array_equal(back.coeffs, model.coeffs)
    assert back.meta == model.meta
    if with_scaling:
        np.testing.assert_array_equal(back.scaling.means, model.scaling.means)
        np.testing.assert_array_equal(back.scaling.scales, model.scaling.scales)
    else:
        assert back.scaling is None
    # identical predictions on fresh points
    q = np.random.default_rng(0).uniform(-5, 5, size=(7, 2))
    np.testing.assert_array_equal(decision_values(back, q), decision_values(model, q))


def test_saved_file_round_trips_bytes(tmp_path):
    model = trained_small_model()
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_model(model, str(p1))
    save_model(load_model(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_data_rows_match_the_per_value_formula(tmp_path, rng):
    # Each data row is the features and the coefficient formatted one value
    # at a time to 17 significant digits, and reads back bit for bit into
    # C-ordered arrays; signed zeros, subnormals and values near 1e308 too.
    inputs = rng.normal(size=(300, 3)) * 10.0 ** rng.integers(-300, 300, size=(300, 3))
    inputs.flat[:6] = [-0.0, 5e-324, -1e-310, 1.7976931348623157e308, -1e308, 0.0]
    coeffs = rng.normal(size=300)
    coeffs[:3] = [-0.0, 2.2250738585072009e-308, -1.7976931348623157e308]
    model = toy_model(coeffs, inputs)
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    rows = path.read_text().splitlines()[-300:]
    assert rows == [" ".join(f"{v:.17g}" for v in inputs[i]) + f" {coeffs[i]:.17g}"
                    for i in range(300)]
    back = load_model(str(path))
    assert back.inputs.flags.c_contiguous and back.coeffs.flags.c_contiguous
    np.testing.assert_array_equal(back.inputs.view(np.int64), inputs.view(np.int64))
    np.testing.assert_array_equal(back.coeffs.view(np.int64), coeffs.view(np.int64))


@pytest.mark.parametrize("row, message", [
    ("0.5 abc 1.0", "expected numbers, got ['0.5', 'abc', '1.0']"),
    ("0.5 1.0", "expected 2 features + 1 coefficient, got 2 fields"),
])
def test_load_names_a_bad_late_data_row(tmp_path, row, message):
    path = write_model_file(tmp_path, lambda ls: ls[:-2] + [row, ls[-1]])
    ln = len(Path(path).read_text().splitlines()) - 1
    with pytest.raises(ParseError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: line {ln}: {message}"


def test_model_file_is_versioned_text(tmp_path):
    model = trained_small_model()
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    first = path.read_text().splitlines()[0]
    assert first == "splitsvm-model 1"


def write_model_file(tmp_path, mutate):
    model = trained_small_model()
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    lines = path.read_text().splitlines()
    lines = mutate(lines)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    return str(bad)


def test_load_rejects_wrong_magic(tmp_path):
    path = write_model_file(tmp_path, lambda ls: ["something-else 1"] + ls[1:])
    with pytest.raises(ParseError, match="not a splitsvm-model file"):
        load_model(path)


def test_load_rejects_future_version(tmp_path):
    path = write_model_file(tmp_path, lambda ls: ["splitsvm-model 2"] + ls[1:])
    with pytest.raises(FormatVersionError, match="version 2"):
        load_model(path)


def test_load_rejects_truncated_file(tmp_path):
    path = write_model_file(tmp_path, lambda ls: ls[:-3])
    with pytest.raises(ParseError, match="expected data row"):
        load_model(path)


@pytest.mark.parametrize("rows, message", [
    (["0.5 1.0 2.0", "1.5 0.5 -1.0"], "unexpected end of file, expected data row 3 of {n}"),
    (["0.5 1.0 2.0", "1.5 x -1.0"], "line 13: expected numbers, got ['1.5', 'x', '-1.0']"),
])
def test_load_trusts_no_data_count_beyond_the_rows(tmp_path, rows, message):
    # A data line that promises 10**12 rows over 2 reads the 2 and then
    # reports the end of the file (or the bad row before it), allocating
    # nothing by the count.
    n = 10**12
    model = toy_model(coeffs=(2.0, -1.0), inputs=((0.5, 1.0), (1.5, 0.5)))
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    lines = path.read_text().splitlines()
    assert lines[-3] == "data 2 2"
    path.write_text("\n".join(lines[:-3] + [f"data {n} 2"] + rows) + "\n")
    with pytest.raises(ParseError) as exc:
        load_model(str(path))
    assert str(exc.value) == f"{path}: " + message.format(n=n)


def test_load_rejects_trailing_content(tmp_path):
    path = write_model_file(tmp_path, lambda ls: ls + ["0.0 0.0 0.0"])
    with pytest.raises(ParseError, match="trailing content"):
        load_model(path)


def test_load_rejects_bad_row_arity(tmp_path):
    def chop(ls):
        ls[-1] = " ".join(ls[-1].split()[:-1])
        return ls

    path = write_model_file(tmp_path, chop)
    with pytest.raises(ParseError, match="coefficient"):
        load_model(path)


def test_load_rejects_missing_key(tmp_path):
    def drop_rho(ls):
        return [l for l in ls if not l.startswith("rho ")]

    path = write_model_file(tmp_path, drop_rho)
    with pytest.raises(ParseError, match="'rho"):
        load_model(path)


def test_load_rejects_non_numeric(tmp_path):
    def poison(ls):
        ls[2] = "lambda abc"
        return ls

    path = write_model_file(tmp_path, poison)
    with pytest.raises(ParseError, match="numbers"):
        load_model(path)


@pytest.mark.parametrize("index", [0, 3, -1])  # header, loss line, last data row
def test_load_rejects_text_that_is_not_utf8(tmp_path, saved_model_lines, index):
    lines = [line.encode() for line in saved_model_lines]
    lines[index] += b"\xff"
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ParseError, match=r"bad\.txt: not UTF-8 text$"):
        load_model(str(path))


def test_load_skips_a_byte_order_mark(tmp_path):
    model = trained_small_model(with_scaling=True)
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back = load_model(str(path))
    assert back.kernel == model.kernel and back.lam == model.lam and back.meta == model.meta
    np.testing.assert_array_equal(back.inputs, model.inputs)
    np.testing.assert_array_equal(back.coeffs, model.coeffs)
    np.testing.assert_array_equal(back.scaling.means, model.scaling.means)
    np.testing.assert_array_equal(back.scaling.scales, model.scaling.scales)


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_model(str(tmp_path / "absent.txt"))


@pytest.fixture(scope="module")
def saved_model_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.txt"
    save_model(trained_small_model(with_scaling=True), str(path))
    return path.read_text().splitlines()


# (0-based index of the line to replace, replacement); the file has scaling,
# so index 10 is "means", 11 is "scales" and 13 is the first data row.
@pytest.mark.parametrize("index, line", [
    (1, "kernel laplace 1"),
    (1, "kernel gaussian -1"),
    (2, "lambda -3"),
    (2, "lambda 0"),
    (2, "lambda inf"),
    (3, "loss bogus"),
    (4, "rho 0"),
    (4, "rho nan"),
    (5, "converged 2"),
    (6, "residual -inf"),
    (6, "residual -1"),
    (7, "objective nan"),
    (7, "objective inf"),
    (8, "start 2.7"),
    (8, "start -1"),
    (10, "means nan 0"),
    (11, "scales 1 0"),
    (11, "scales 1 -2"),
    (13, "nan 0.5 1.0"),
    (13, "0.5 0.5 inf"),
])
def test_load_rejects_out_of_range_field(tmp_path, saved_model_lines, index, line):
    lines = list(saved_model_lines)
    lines[index] = line
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"line {index + 1}:"):
        load_model(str(path))
