"""End-to-end acceptance gate.

Each test here checks one release criterion at its stated tolerance and
prints a single PASS/FAIL line, so the -s output of this module is the
acceptance report.  The heavyweight benchmark (the 8-row loss/kernel table)
runs once in a shared fixture and is consumed by both the accuracy-band
check and the byte-determinism check.
"""

import contextlib
import io
import os
import time

import numpy as np
import pytest

from _oracles import (
    dense_solve,
    grid_prox,
    lagrangian,
    prox_enumerated,
    prox_subproblem,
    random_prox_cases,
)
from splitsvm.admm import (
    AdmmConfig,
    admm_run,
    admm_step,
    c_inverse,
    c_solve,
    initial_state,
    stationarity_residual,
)
from splitsvm.cli import main as cli_main
from splitsvm.data import Dataset, FeatureScaling, generate_synthetic, load_csv
from splitsvm.experiments import size_scaling_table
from splitsvm.kernels import KernelSpec, gram
from splitsvm.losses import (
    HINGE,
    PL2,
    RAMP,
    TLOG,
    get_loss,
    prox_vector,
)
from splitsvm.model import min_eigenvalue, predict_labels, rho_condition, train_multistart


def prox_one(loss, rho, n, label, anchor):
    """prox_vector on one coordinate."""
    return float(prox_vector(loss, rho, n, np.array([float(label)]), np.array([anchor]))[0])


def report(num, desc, problems):
    ok = not problems
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    assert ok, line + " -- " + "; ".join(str(p) for p in problems[:5])


# ---------------------------------------------------------------------------
# 1. randomized prox suite against the brute-force grid oracle
# ---------------------------------------------------------------------------


def test_c01_prox_matches_grid_oracle_suite():
    problems = []
    t0 = time.perf_counter()
    for li, name in enumerate(("hinge", "pl2", "tlog", "ramp")):
        loss = get_loss(name)
        for label, rho, n, anchor in random_prox_cases(1000, seed=101 + li):
            n = int(n)
            a = prox_one(loss, rho, n, label, anchor)
            v = float(prox_subproblem(loss, rho, n, label, anchor)(a))
            _, grid_val = grid_prox(loss, rho, n, label, anchor)
            if not v <= grid_val + 1e-6:
                problems.append(
                    f"{name}: value {v:.9g} above grid floor {grid_val:.9g} "
                    f"(y={label:g}, rho={rho:.4g}, n={n}, u={anchor:.4g})"
                )
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"suite took {elapsed:.1f}s, budget 30s")
    report(1, f"4x1000 randomized prox cases within 1e-6 of the grid oracle "
              f"({elapsed:.1f}s)", problems)


# ---------------------------------------------------------------------------
# 2. closed-form tables: hinge and ramp branch by branch, pl2, tlog and the
#    wide ramp bit for bit against the oracle's enumerator, both labels
# ---------------------------------------------------------------------------


def test_c02_closed_form_branch_tables():
    problems = []
    rho, n = 0.8, 5  # h = 1/(rho n) = 0.25
    h = 0.25

    hinge_branches = [
        # (margin-space anchor v, expected margin-space minimizer z)
        (0.5, 0.5 + h),   # interior: sloped piece stationary point
        (0.8, 1.0),       # clamp window [1-h, 1): snaps to the margin
        (1.5, 1.5),       # flat region: anchor kept
    ]
    ramp_branches = [
        (-1.0, -1.0),     # flat piece: anchor kept
        (0.5, 0.5 + h),   # sloped interior
        (0.9, 1.0),       # clamp window
        (1.2, 1.2),       # flat region beyond the margin
    ]
    for loss, branches in ((HINGE, hinge_branches), (RAMP, ramp_branches)):
        for label in (1, -1):
            for v, z_expected in branches:
                anchor = label * v
                expected = label * z_expected
                a = prox_one(loss, rho, n, label, anchor)
                if abs(a - expected) > 1e-12:
                    problems.append(
                        f"{loss.name} y={label} v={v}: got {a}, expected {expected}"
                    )
                ref = prox_enumerated(
                    loss, rho, n, np.array([float(label)]), np.array([anchor])
                )[0]
                if a != ref:
                    problems.append(
                        f"{loss.name} y={label} v={v}: closed form {a} != enumerator {ref}"
                    )

    # ramp tie point: anchor at -+ 1/(2 rho n); both candidates give equal
    # objectives and the smaller minimizer is chosen for either label
    for label in (1, -1):
        anchor = -label * h / 2.0
        a = prox_one(RAMP, rho, n, label, anchor)
        g = prox_subproblem(RAMP, rho, n, label, anchor)
        tie_gap = abs(float(g(-h / 2.0)) - float(g(h / 2.0)))
        if tie_gap > 1e-12:
            problems.append(f"ramp tie y={label}: candidate gap {tie_gap:.3e}")
        if a != -h / 2.0:
            problems.append(f"ramp tie y={label}: got {a}, expected {-h / 2.0}")
        ref = prox_enumerated(
            RAMP, rho, n, np.array([float(label)]), np.array([anchor])
        )[0]
        if a != ref:
            problems.append(f"ramp tie y={label}: closed form {a} != enumerator {ref}")

    # pl2, tlog and the ramp at h >= 2 score the enumerator's candidates in
    # closed form, so they must agree bit for bit everywhere, including on
    # the anchors where two candidates tie and the smaller a wins.
    rng = np.random.default_rng(202)
    grid = np.concatenate([np.linspace(-4.0, 4.0, 8001), rng.uniform(-10.0, 10.0, 2000)])
    for rho, n in ((5.0, 300), (1.0, 1000), (0.8, 5), (0.05, 300), (0.5, 1), (0.1, 1)):
        h = 1.0 / (rho * n)
        ties = {
            PL2: [0.0, 1.0, h, -h, 1.0 - h, 1.0 - 2.0 * h, -h / 2.0],
            TLOG: [1.0, 2.0 - 2.0 * np.sqrt(h)],
        }
        if h >= 2.0:
            # The wide ramp table: the flat piece ties the margin at
            # 1 - sqrt(2h); -h/2 is the h < 2 table's tie point.
            ties[RAMP] = [0.0, 1.0, 1.0 - np.sqrt(2.0 * h), -h / 2.0]
        for loss, points in ties.items():
            pts = np.array(points)
            near = np.concatenate([pts, np.nextafter(pts, np.inf), np.nextafter(pts, -np.inf),
                                   pts + 1e-13, pts - 1e-13])
            v = np.concatenate([grid, near])
            for label in (1.0, -1.0):
                y = np.full_like(v, label)
                fast = prox_vector(loss, rho, n, y, label * v)
                ref = prox_enumerated(loss, rho, n, y, label * v)
                diff = np.flatnonzero(fast.view(np.int64) != ref.view(np.int64))
                if diff.size:
                    i = diff[0]
                    problems.append(
                        f"{loss.name} rho={rho} n={n} y={label}: {diff.size} anchors differ, "
                        f"first v={v[i]!r}: table {fast[i]!r} != enumerator {ref[i]!r}"
                    )

    report(2, "hinge/ramp branch tables (both labels, tie point) and pl2/tlog "
              "and wide ramp tables (bit for bit on grids and ties) match the "
              "oracle's enumerator", problems)


# ---------------------------------------------------------------------------
# 3. the Cholesky c-solve against a dense direct solve
# ---------------------------------------------------------------------------


def test_c03_c_solve_matches_dense_solver():
    problems = []
    rng = np.random.default_rng(2024)
    for k in range(20):
        n = int(rng.integers(2, 51))
        pts = rng.uniform(-5.0, 5.0, size=(n, 2))
        lam = float(rng.uniform(0.1, 1.0))
        rho = float(rng.uniform(0.05, 5.0))
        A = gram(KernelSpec("gaussian", 1.0), pts)
        m = 2.0 * lam * np.eye(n) + rho * A.entries
        b = rng.standard_normal(n)
        x = c_solve(c_inverse(A, AdmmConfig(lam=lam, rho=rho)), b)
        ref = dense_solve(m, b)
        rel = float(np.linalg.norm(x - ref) / np.linalg.norm(ref))
        resid = float(np.linalg.norm(b - m @ x) / np.linalg.norm(b))
        if rel > 1e-8:
            problems.append(f"system {k}: relative error {rel:.3e} > 1e-8")
        if resid > 1e-10:
            problems.append(f"system {k}: relative residual {resid:.3e} > 1e-10")
    report(3, "20 random shifted kernel systems match the dense solve "
              "(1e-8 rel, 1e-10 residual)", problems)


# ---------------------------------------------------------------------------
# 4. multiplier identity after every iteration
# ---------------------------------------------------------------------------


def test_c04_multiplier_identity_every_iteration(separated_instance):
    problems = []
    runs = []

    data, _, A = separated_instance
    runs.append(("separated/hinge", HINGE, data.y, A,
                 AdmmConfig(lam=0.5, rho=5.0, enforce_rho_condition="off"), 60))

    train, _ = generate_synthetic(40, 2, seed=8)
    A2 = gram(KernelSpec("gaussian", 1.0), train.X)
    runs.append(("synthetic/tlog", get_loss("tlog"), train.y, A2,
                 AdmmConfig(lam=0.1, rho=0.5, enforce_rho_condition="off"), 80))

    for tag, loss, y, mat, cfg, iters in runs:
        inverse = c_inverse(mat, cfg)
        st = initial_state(mat, np.random.default_rng(1))
        for _ in range(iters):
            nxt = admm_step(loss, y, cfg, st, inverse)
            # textbook multiplier update from gamma_k = 2 lam c_k
            updated = 2.0 * cfg.lam * st.c + cfg.rho * (nxt.alpha - mat.entries @ nxt.c)
            gap = float(np.max(np.abs(updated - 2.0 * cfg.lam * nxt.c)))
            bound = 1e-12 * (1.0 + float(np.max(np.abs(nxt.c))))
            if gap > bound:
                problems.append(f"{tag} iteration {nxt.k}: gap {gap:.3e} > {bound:.3e}")
            st = nxt
    report(4, "multiplier update 2*lam*c_k + rho*(alpha - A c) equals 2*lam*c "
              "after every iteration (140 iterations across two problems)", problems)


# ---------------------------------------------------------------------------
# 5. monotone Lagrangian descent and bounded iterates above the threshold
# ---------------------------------------------------------------------------


def test_c05_descent_and_boundedness(separated_instance):
    problems = []
    data, _, A = separated_instance
    lam, rho = 0.5, 5.0
    lam_min = min_eigenvalue(A)
    dense_min = float(np.linalg.eigvalsh(A.entries)[0])
    if abs(lam_min - dense_min) > 1e-6 * dense_min:
        problems.append(f"eigenvalue estimate {lam_min} vs dense {dense_min}")
    threshold = 4.0 * lam / lam_min
    if not rho > threshold:
        problems.append(f"test setup broken: rho {rho} below threshold {threshold}")

    for loss in (HINGE, RAMP):
        cfg = AdmmConfig(lam=lam, rho=rho, eps0=1e-12, max_iter=2000,
                         enforce_rho_condition="off")
        inverse = c_inverse(A, cfg)
        st = initial_state(A, np.random.default_rng(0))
        lags = []
        norms = []
        for _ in range(cfg.max_iter):
            st = admm_step(loss, data.y, cfg, st, inverse)
            lags.append(lagrangian(loss, data.y, A, cfg, st))
            norms.append(float(st.c @ st.c))
            if float(np.linalg.norm(st.alpha - A.entries @ st.c)) < cfg.eps0:
                break
        for k in range(1, len(lags)):
            if lags[k] > lags[k - 1] + 1e-9:
                problems.append(
                    f"{loss.name}: Lagrangian rose by {lags[k] - lags[k - 1]:.3e} "
                    f"at iteration {k + 1}"
                )
        bound = 2.0 * lags[0] / (lam * lam_min)
        worst = max(norms)
        if worst > bound:
            problems.append(f"{loss.name}: ||c||^2 reached {worst:.4g} > bound {bound:.4g}")
    report(5, "above the penalty threshold: Lagrangian nonincreasing (1e-9 slack) "
              "and ||c||^2 within the bound", problems)


# ---------------------------------------------------------------------------
# 6. single-start convergence protocol on the 300-point instance
# ---------------------------------------------------------------------------


def test_c06_convergence_protocol():
    from splitsvm.experiments import convergence_trace

    problems = []
    t0 = time.perf_counter()
    run, certificate = convergence_trace(seed=0)
    elapsed = time.perf_counter() - t0
    if run.status != "converged":
        problems.append(f"status {run.status}")
    if run.state.k > 500:
        problems.append(f"{run.state.k} iterations > 500")
    if elapsed >= 60.0:
        problems.append(f"{elapsed:.1f}s >= 60s")
    # The protocol's inputs, rebuilt here, pin its data, kernel, loss and
    # hyperparameters: the certificate must be the residual on them, and a
    # rerun on them must end where the run did.  At a fixed point the
    # residual does not depend on rho, so only the rerun pins rho.
    train, _ = generate_synthetic(300, 120, 0)
    A = gram(KernelSpec("gaussian", 1.0), train.X)
    cfg = AdmmConfig(lam=0.1, rho=0.05)
    (rerun,) = admm_run(TLOG, train.y, A, cfg, [initial_state(A, np.random.default_rng(0))])
    if not np.array_equal(rerun.state.c, run.state.c):
        problems.append("a rerun on the protocol's inputs ends at another state")
    sr = stationarity_residual(TLOG, train.y, A, cfg, run.state)
    if sr != certificate:
        problems.append(f"certificate {certificate!r} != stationarity residual {sr!r}")
    if not sr <= 1e-6:
        problems.append(f"stationarity residual {sr:.3e} > 1e-6")
    report(6, f"truncated-log protocol converged in {run.state.k} iterations "
              f"({elapsed:.1f}s), stationarity {sr:.1e}", problems)


# ---------------------------------------------------------------------------
# 7 + 10. the 8-row loss/kernel benchmark: accuracy band and byte determinism
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_runs(tmp_path_factory):
    # The identical command twice (same output path); each run's file bytes
    # are captured before the next run overwrites them.
    path = tmp_path_factory.mktemp("benchmark") / "table.csv"
    runs = []
    for _ in range(2):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["reproduce", "t2", "--seed", "7",
                             "--output", str(path)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        runs.append({
            "bytes": path.read_bytes(),
            "stdout": buf.getvalue(),
            "elapsed": elapsed,
        })
    return runs


def test_c07_loss_kernel_accuracy_band(benchmark_runs):
    problems = []
    first = benchmark_runs[0]
    lines = first["bytes"].decode().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    if len(rows) != 8:
        problems.append(f"expected 8 rows, got {len(rows)}")
    for r in rows:
        train_acc = float(r["train_accuracy"])
        test_acc = float(r["test_accuracy"])
        tag = f"{r['loss']}/{r['kernel']}"
        if train_acc < 0.88:
            problems.append(f"{tag}: train accuracy {train_acc:.3f} < 0.88")
        if test_acc < 0.80:
            problems.append(f"{tag}: test accuracy {test_acc:.3f} < 0.80")
    if first["elapsed"] >= 600.0:
        problems.append(f"benchmark took {first['elapsed']:.0f}s, budget 600s")
    report(7, f"8 loss/kernel runs within the accuracy band "
              f"({first['elapsed']:.0f}s)", problems)


def test_c10_benchmark_reruns_byte_identical(benchmark_runs):
    problems = []
    a, b = benchmark_runs
    if a["bytes"] != b["bytes"]:
        problems.append("output CSV files differ between identical invocations")
    if a["stdout"] != b["stdout"]:
        problems.append("printed tables differ between identical invocations")
    report(10, "repeated benchmark invocations are byte-identical", problems)


# ---------------------------------------------------------------------------
# 8. training-size sweep: accuracy floor and wall-clock growth
# ---------------------------------------------------------------------------


def test_c08_size_scaling_trend():
    problems = []
    rows = size_scaling_table(seed=3, sizes=(100, 200, 300, 400, 500))
    for r in rows:
        if r.test_accuracy < 0.80:
            problems.append(f"n={r.n_train}: test accuracy {r.test_accuracy:.3f} < 0.80")
    times = [r.seconds for r in rows]
    for prev, cur, n in zip(times, times[1:], [r.n_train for r in rows][1:]):
        if cur < 0.8 * prev:  # nondecreasing up to 20% noise
            problems.append(f"time dropped from {prev:.2f}s to {cur:.2f}s at n={n}")
    summary = ", ".join(f"{t:.1f}s" for t in times)
    report(8, f"size sweep 100..500 accurate and nondecreasing in time ({summary})",
           problems)


# ---------------------------------------------------------------------------
# 9. convex sanity: multistart seeds agree when the problem is convex
# ---------------------------------------------------------------------------


def test_c09_convex_multistart_agreement(separated_instance):
    problems = []
    data, spec, A = separated_instance
    cfg = AdmmConfig(lam=0.5, rho=5.0, eps0=1e-12, max_iter=2000)
    check = rho_condition(A, cfg)
    if not check.ok:
        problems.append("test setup broken: penalty below the descent threshold")
    objectives = []
    for seed in (11, 22):
        model, _ = train_multistart(data, spec, HINGE, cfg, starts=2, seed=seed,
                                    gram_matrix=A, rho_check=check)
        objectives.append(model.meta.objective)
    gap = abs(objectives[0] - objectives[1])
    if gap > 1e-6:
        problems.append(f"objectives differ by {gap:.3e} > 1e-6")
    report(9, f"hinge multistart seeds agree on the objective (gap {gap:.1e})",
           problems)


# ---------------------------------------------------------------------------
# 11. optional real-data gate (runs only when the files are supplied)
# ---------------------------------------------------------------------------


def test_c11_wine_quality_pipeline():
    train_path = os.environ.get("SPLITSVM_WINE_TRAIN")
    test_path = os.environ.get("SPLITSVM_WINE_TEST")
    if not train_path or not test_path:
        print("[criterion 11] SKIP: wine data not provided "
              "(set SPLITSVM_WINE_TRAIN and SPLITSVM_WINE_TEST)")
        pytest.skip("wine data not provided")
    problems = []
    train = load_csv(train_path)
    test = load_csv(test_path)
    scaling = FeatureScaling.fit(train.X)
    train_s, test_s = (Dataset(scaling.apply(ds.X), ds.y) for ds in (train, test))
    cfg = AdmmConfig(lam=0.5, rho=1.0, eps0=1e-6, max_iter=3000,
                     enforce_rho_condition="off")
    best = None
    for loss_name, family in (("hinge", "gaussian"), ("hinge", "matern1"),
                              ("tlog", "gaussian")):
        spec = KernelSpec(family, 5.0)
        model, _ = train_multistart(train_s, spec, get_loss(loss_name), cfg,
                                    starts=3, seed=0)
        acc = float(np.mean(predict_labels(model, test_s.X) == test_s.y))
        best = max(best or 0.0, acc)
        if acc >= 0.85:
            break
    if not best >= 0.85:
        problems.append(f"best test accuracy {best:.3f} < 0.85")
    report(11, f"wine pipeline end-to-end (best accuracy {best:.3f})", problems)
