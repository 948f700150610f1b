"""Trained classifiers: prediction, multi-start training, persistence, and
the descent question, whether rho > 4 lam / lambda_min(A).

A trained model is the coefficient vector of a kernel expansion
s(x) = sum_i c_i k(x_i, x); the predicted label is the sign of s(x) with
ties going to +1.  Training runs several independently seeded ADMM starts
and keeps the coefficients with the smallest training objective.

Model files are plain text (format documented in the README): a version
line, the kernel, hyperparameters and run metadata, an optional feature
scaling block, then one row per training point holding its features and
coefficient.  All floats are written with 17 significant digits so a
save/load round trip is bit-exact.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from ._io import float_cells, open_text, write_text_atomic
from .admm import AdmmConfig, IterationTrace, admm_run, c_inverse, initial_state
from .data import Dataset, FeatureScaling
from .errors import (
    DefinitenessError,
    FormatVersionError,
    InputError,
    ParseError,
    TrainingError,
    check_integers,
)
from .kernels import LOWER, GramMatrix, KernelSpec, cross_gram, gram, shifted_cholesky
from .losses import LOSSES, MarginLoss

FORMAT_NAME = "splitsvm-model"
FORMAT_VERSION = 1

#: Cells of the cross-kernel matrix that prediction forms at a time: 2**17
#: doubles, 1 MB, in blocks of max(1, PREDICT_CELLS // training points) rows.
PREDICT_CELLS = 2**17


@dataclass(frozen=True)
class ModelMeta:
    loss_name: str
    rho: float
    converged: bool
    final_residual: float
    objective: float
    start_index: int = 0


@dataclass
class TrainedModel:
    kernel: KernelSpec
    lam: float
    inputs: np.ndarray
    coeffs: np.ndarray
    meta: ModelMeta
    scaling: FeatureScaling | None = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.inputs.ndim != 2 or self.inputs.size == 0:
            raise InputError("model inputs must be a nonempty 2-D array")
        if self.coeffs.shape != (self.inputs.shape[0],):
            raise InputError(
                f"coefficient count {self.coeffs.shape} does not match "
                f"{self.inputs.shape[0]} training points"
            )


def decision_values(m: TrainedModel, points) -> np.ndarray:
    """s(x) for each point; a single 1-D point is read as one row.

    Scales the points and forms the cross-kernel matrix a block of about
    PREDICT_CELLS cells at a time, so memory does not grow with the batch.
    Each row's sum over the training points is taken in one fixed order
    (einsum's own loop, not a BLAS matrix-vector product, which rounds the
    last rows of a block differently), so a point's value does not depend
    on the block size or on which other points share its batch.
    """
    x = np.asarray(points, dtype=float)
    pts = x[None, :] if x.ndim == 1 else x
    if pts.ndim != 2 or pts.shape[1] != m.inputs.shape[1]:
        raise InputError(
            f"expected points with {m.inputs.shape[1]} features, got shape {x.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise InputError("prediction inputs must be finite")
    out = np.empty(pts.shape[0])
    rows = max(1, PREDICT_CELLS // m.inputs.shape[0])
    for i in range(0, pts.shape[0], rows):
        block = slice(i, i + rows)
        scaled = pts[block] if m.scaling is None else m.scaling.apply(pts[block])
        np.einsum("ij,j->i", cross_gram(m.kernel, scaled, m.inputs), m.coeffs, out=out[block])
    return out


def predict_labels(m: TrainedModel, points) -> np.ndarray:
    dv = decision_values(m, points)
    return np.where(dv >= 0.0, 1.0, -1.0)


#: Allowed uphill movement of the augmented Lagrangian before a warning.
DESCENT_SLACK = 1e-9


@dataclass(frozen=True)
class RhoCondition:
    """Verdict on rho > 4 lam / lambda_min(A): "satisfied", "NOT satisfied",
    "not verifiable" (``detail`` says why) or "not checked" (policy "off").

    ``minor`` is 0 when ``threshold`` is 4 lam / lambda_min(A) itself.  When
    it is k > 0 the condition failed at the leading k x k minor A_k,
    ``lambda_min`` is None and ``threshold`` is a lower bound on it, from
    lambda_min(A_k) (see rho_condition)."""

    status: str
    lambda_min: float | None = None
    threshold: float | None = None
    detail: str = ""
    minor: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "satisfied"

    @property
    def threshold_text(self) -> str:
        """"4*lam/lambda_min = t", or ">= t" for a bound, to 3 digits, or "not computed"."""
        if self.threshold is None:
            return "4*lam/lambda_min not computed"
        return f"4*lam/lambda_min {'>=' if self.minor else '='} {self.threshold:#.3g}"

    def line(self, rho: float) -> str | None:
        """train's "rho condition: ..." line on ``rho``; None for "not checked"."""
        if self.threshold is not None:
            return (f"rho condition: rho = {rho:g} vs threshold {self.threshold_text} "
                    f"({self.status})")
        return f"rho condition: {self.status} ({self.detail})" if self.detail else None


def noise_floor(A: GramMatrix) -> float:
    """size * eps * max|A|: an eigenvalue at or below it is rounding noise."""
    m = A.entries
    return A.size * float(np.finfo(float).eps) * max(float(m.max()), -float(m.min()))


def leading_eigenvalue(A: GramMatrix, k: int) -> float:
    """Smallest eigenvalue of the leading k x k minor of A, unchecked.

    LAPACK's dsyevr (scipy.linalg.eigh) asked for that eigenvalue alone.  It
    reads the triangle LOWER names in the Fortran view A.entries.T, as
    admm.a_dot does, so LAPACK's working copy is not transposed.
    """
    return float(eigh(A.entries.T[:k, :k], lower=LOWER, eigvals_only=True,
                      subset_by_index=[0, 0], driver="evr", check_finite=False)[0])


def min_eigenvalue(A: GramMatrix) -> float:
    """Smallest eigenvalue of a symmetric positive definite matrix.

    leading_eigenvalue of the whole matrix.  Raises DefinitenessError when
    it is not positive, or falls at or below noise_floor(A), in which case
    A cannot be certified positive definite at working precision.
    """
    floor = noise_floor(A)
    w = leading_eigenvalue(A, A.size)
    if not w > 0:
        raise DefinitenessError(f"matrix is not positive definite: smallest eigenvalue {w:.3e}")
    if not w > floor:
        raise DefinitenessError(f"smallest eigenvalue {w:.3e} is at or below the numerical "
                                f"noise floor {floor:.3e}; matrix is numerically singular")
    return w


def descent_minor(A: GramMatrix, lam: float, rho: float) -> int:
    """Order k of the first leading minor of rho A - (4 lam - rho f) I that
    is not positive definite, 0 when there is none; f = noise_floor(A).
    rho > 4 lam / lambda_min(A) holds when rho A - 4 lam I factors; the shift
    by rho f lets it factor too when it fails by less than the noise floor.
    """
    return int(shifted_cholesky(A, rho, rho * noise_floor(A) - 4.0 * lam)[1])


def rho_condition(A: GramMatrix, cfg: AdmmConfig) -> RhoCondition:
    """Decide rho > 4 lam / lambda_min(A) under ``cfg.enforce_rho_condition``.

    The one reader of that policy.  descent_minor's Cholesky comes first:
    at a failing minor A_k with smallest eigenvalue w, lambda_min(A) <= w + f
    (interlacing, then rounding; f = noise_floor(A)), so when 4 lam / (w + f)
    is positive and reaches rho the verdict is "NOT satisfied" with that
    lower bound, and lambda_min(A) is never computed.  Otherwise
    lambda_min(A) is computed once.  "off" computes nothing; "warn" warns
    once when the condition fails or cannot be verified; "error" raises
    InputError or DefinitenessError instead.
    """
    policy = cfg.enforce_rho_condition
    if policy == "off":
        return RhoCondition("not checked")
    k = descent_minor(A, cfg.lam, cfg.rho)
    top = leading_eigenvalue(A, k) + noise_floor(A) if k else 0.0
    if 0 < cfg.rho * top <= 4.0 * cfg.lam:
        check = RhoCondition("NOT satisfied", threshold=4.0 * cfg.lam / top, minor=k)
    else:
        try:
            lambda_min = min_eigenvalue(A)
        except DefinitenessError as exc:
            if policy == "error":
                raise
            warnings.warn(f"could not verify the rho condition: {exc}", RuntimeWarning,
                          stacklevel=2)
            return RhoCondition("not verifiable", detail=str(exc))
        threshold = 4.0 * cfg.lam / lambda_min
        check = RhoCondition("satisfied" if cfg.rho > threshold else "NOT satisfied",
                             lambda_min, threshold)
    if not check.ok and policy == "error":
        raise InputError(f"rho = {cfg.rho} does not exceed the descent threshold "
                         f"{check.threshold_text}")
    if not check.ok:
        where = ("below the descent threshold, which is at least" if check.minor
                 else "at or below the descent threshold")
        warnings.warn(f"rho = {cfg.rho} is {where} {check.threshold:#.3g}; "
                      "monotone descent is not guaranteed", RuntimeWarning, stacklevel=2)
    return check


def monitor_descent(runs) -> None:
    """Warn, in the name of train_multistart's caller, at each Lagrangian rise
    above DESCENT_SLACK in the full traces of admm_run's results, except at
    the record a start diverged at."""
    for run in runs:
        for k, rise in run.trace.rises(DESCENT_SLACK):
            if run.status != "diverged" or k < run.state.k:
                warnings.warn(f"augmented Lagrangian rose by {rise:.3e} at iteration {k} "
                              "despite rho clearing the descent threshold", RuntimeWarning,
                              stacklevel=3)


@dataclass
class StartSummary:
    index: int
    objective: float | None
    iterations: int | None
    residual: float | None
    converged: bool | None
    trace: IterationTrace | None = None
    error: str | None = None


def train_multistart(
    data: Dataset,
    kernel_spec: KernelSpec,
    loss: MarginLoss,
    cfg: AdmmConfig,
    starts: int,
    seed: int,
    *,
    gram_matrix: GramMatrix | None = None,
    inverse: np.ndarray | None = None,
    rho_check: RhoCondition | None = None,
    trace: bool = False,
):
    """Run ``starts`` seeded ADMM starts; keep the lowest final objective.

    Start s draws its initial point from a generator seeded with seed + s.
    All starts share one inverse of 2 lam I + rho A: ``inverse``, which
    must be c_inverse(A, cfg) for this kernel matrix and cfg, or else one
    built before the first start; DefinitenessError is raised when it
    cannot be built.  The starts then run together as one admm_run block,
    and each start's result is bit for bit the one it gets alone, whatever
    ``starts`` is.  Ties in the final objective resolve to the lowest start
    index; a start that failed or diverged is never selected.
    ``rho_check`` is the verdict of rho_condition when the caller already
    has it; None computes it.  When it is "satisfied", every start runs
    with its full trace, and monitor_descent checks each for descent.
    Returns (TrainedModel, [StartSummary...]), and the model metadata
    records which start won.  With ``trace=True`` the chosen start's
    summary keeps its full per-iteration trace; otherwise every summary's
    trace is None and, when rho is not "satisfied", no start forms a
    Lagrangian or step norm before its last iteration (admm_run's
    ``trace``).  The model and summaries are otherwise the same bit for bit.
    """
    check_integers(starts=starts, seed=seed)
    if starts < 1:
        raise InputError(f"need at least one start, got {starts}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    A = gram_matrix if gram_matrix is not None else gram(kernel_spec, data.X)
    if A.size != data.n:
        raise InputError("kernel matrix size does not match the dataset")
    if rho_check is None:
        rho_check = rho_condition(A, cfg)
    if inverse is None:
        inverse = c_inverse(A, cfg)
    inits = [initial_state(A, np.random.default_rng(seed + s)) for s in range(starts)]

    # The descent monitor reads every start's whole trace.
    runs = admm_run(loss, data.y, A, cfg, inits, inverse, trace=trace or rho_check.ok)
    if rho_check.ok:
        monitor_descent(runs)
    summaries = []
    best = None
    for s, run in enumerate(runs):
        if run.status == "failed":
            summaries.append(StartSummary(s, None, None, None, None, error=run.error))
            continue
        rec = run.trace.final
        summary = StartSummary(s, rec.objective, run.state.k, rec.residual,
                               run.status == "converged", error=run.error)
        summaries.append(summary)
        if run.error is None and (best is None or rec.objective < best[1].objective):
            best = (run, summary)
    if best is None:
        detail = "; ".join(f"start {s.index}: {s.error}" for s in summaries)
        raise TrainingError(f"all {starts} training starts failed: {detail}")
    run, summary = best
    if trace:
        summary.trace = run.trace
    meta = ModelMeta(
        loss_name=loss.name,
        rho=cfg.rho,
        converged=run.status == "converged",
        final_residual=summary.residual,
        objective=summary.objective,
        start_index=summary.index,
    )
    model = TrainedModel(kernel_spec, cfg.lam, data.X, run.state.c, meta)
    return model, summaries


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def save_model(m: TrainedModel, path: str) -> None:
    n, d = m.inputs.shape
    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        f"kernel {m.kernel.family} {_fmt(m.kernel.sigma)}",
        f"lambda {_fmt(m.lam)}",
        f"loss {m.meta.loss_name}",
        f"rho {_fmt(m.meta.rho)}",
        f"converged {1 if m.meta.converged else 0}",
        f"residual {_fmt(m.meta.final_residual)}",
        f"objective {_fmt(m.meta.objective)}",
        f"start {m.meta.start_index}",
    ]
    if m.scaling is not None:
        lines.append("scaling 1")
        lines.append("means " + " ".join(_fmt(v) for v in m.scaling.means))
        lines.append("scales " + " ".join(_fmt(v) for v in m.scaling.scales))
    else:
        lines.append("scaling 0")
    lines.append(f"data {n} {d}")
    row = " ".join(["%.17g"] * (d + 1))
    lines += [row % tuple(r) for r in np.column_stack([m.inputs, m.coeffs]).tolist()]
    write_text_atomic(path, "\n".join(lines) + "\n")


class _Reader:
    def __init__(self, path):
        self.path = path
        with open_text(path) as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0

    def next(self, what):
        if self.pos >= len(self.lines):
            raise ParseError(f"{self.path}: unexpected end of file, expected {what}")
        self.pos += 1
        return self.lines[self.pos - 1], self.pos

    def keyed(self, key, count=None):
        line, ln = self.next(f"'{key}' line")
        parts = line.split()
        if not parts or parts[0] != key:
            raise ParseError(f"{self.path}: line {ln}: expected '{key} ...', got {line!r}")
        if count is not None and len(parts) != count + 1:
            raise ParseError(
                f"{self.path}: line {ln}: '{key}' needs {count} values, got {len(parts) - 1}"
            )
        return parts[1:], ln

    def floats(self, raw, ln):
        try:
            return [float(v) for v in raw]
        except ValueError:
            raise ParseError(f"{self.path}: line {ln}: expected numbers, got {raw}") from None

    def data_rows(self, n, width):
        """The next n lines as an (n, width) array, converted in one block;
        else ParseError at the first bad line or, past them, the missing row."""
        rows = [line.split() for line in self.lines[self.pos:self.pos + n]]
        if len(rows) == n and set(map(len, rows)) == {width}:
            out = float_cells(rows, n, width)
            if out is not None:
                self.pos += n
                return out
        for i, parts in enumerate(rows):
            _, ln = self.next(f"data row {i + 1} of {n}")
            if len(parts) != width:
                raise ParseError(
                    f"{self.path}: line {ln}: expected {width - 1} features + 1 coefficient, "
                    f"got {len(parts)} fields"
                )
            self.floats(parts, ln)
        self.next(f"data row {len(rows) + 1} of {n}")

    def checked(self, key, valid, what, count=None):
        """Values of a '<key> v...' line; ParseError unless valid(values) holds."""
        raw, ln = self.keyed(key, count)
        vals = np.array(self.floats(raw, ln))
        if not np.all(valid(vals)):
            raise ParseError(f"{self.path}: line {ln}: '{key}' must be {what}, got {' '.join(raw)}")
        return vals

    def choice(self, key, allowed):
        (raw,), ln = self.keyed(key, 1)
        if raw not in allowed:
            raise ParseError(f"{self.path}: line {ln}: '{key}' must be one of {list(allowed)}")
        return raw


def _positive(v):
    return (v > 0) & np.isfinite(v)


def load_model(path: str) -> TrainedModel:
    """Read a model file, rejecting any malformed or out-of-range field with
    a ParseError that names the line."""
    r = _Reader(path)
    head, ln = r.next("format header")
    parts = head.split()
    if len(parts) != 2 or parts[0] != FORMAT_NAME:
        raise ParseError(f"{path}: line {ln}: not a {FORMAT_NAME} file")
    if parts[1] != str(FORMAT_VERSION):
        raise FormatVersionError(
            f"{path}: unsupported format version {parts[1]} (supported: {FORMAT_VERSION})"
        )
    kraw, ln = r.keyed("kernel", 2)
    (sigma,) = r.floats(kraw[1:], ln)
    try:
        kernel = KernelSpec(kraw[0], sigma)
    except InputError as exc:
        raise ParseError(f"{path}: line {ln}: {exc}") from None
    (lam,) = r.checked("lambda", _positive, "positive and finite", 1).tolist()
    loss_name = r.choice("loss", LOSSES)
    (rho,) = r.checked("rho", _positive, "positive and finite", 1).tolist()
    converged = r.choice("converged", ("0", "1")) == "1"
    (residual,) = r.checked("residual", lambda v: (v >= 0) & np.isfinite(v),
                            "non-negative and finite", 1).tolist()
    (objective,) = r.checked("objective", np.isfinite, "finite", 1).tolist()
    (start_index,) = r.checked("start", lambda v: (v >= 0) & (v < 2**31) & (v == np.floor(v)),
                               "a non-negative integer", 1).tolist()
    scaling = None
    if r.choice("scaling", ("0", "1")) == "1":
        means = r.checked("means", np.isfinite, "finite")
        scales = r.checked("scales", _positive, "positive and finite")
        if means.shape != scales.shape:
            raise ParseError(f"{path}: means and scales lengths differ")
        scaling = FeatureScaling(means, scales)
    sizes_raw, ln = r.keyed("data", 2)
    try:
        n, d = int(sizes_raw[0]), int(sizes_raw[1])
    except ValueError:
        raise ParseError(f"{path}: line {ln}: data sizes must be integers") from None
    if n < 1 or d < 1:
        raise ParseError(f"{path}: line {ln}: data sizes must be positive")
    if scaling is not None and scaling.means.shape != (d,):
        raise ParseError(f"{path}: scaling vectors must have {d} entries")
    first_row_line = r.pos + 1
    rows = r.data_rows(n, d + 1)
    inputs = np.ascontiguousarray(rows[:, :d])
    coeffs = rows[:, d].copy()
    bad = np.flatnonzero(~(np.isfinite(inputs).all(axis=1) & np.isfinite(coeffs)))
    if bad.size:
        raise ParseError(
            f"{path}: line {first_row_line + bad[0]}: features and coefficient must be finite"
        )
    if r.pos < len(r.lines) and any(s.strip() for s in r.lines[r.pos:]):
        raise ParseError(f"{path}: trailing content after {n} data rows")
    meta = ModelMeta(
        loss_name=loss_name,
        rho=rho,
        converged=converged,
        final_residual=residual,
        objective=objective,
        start_index=int(start_index),
    )
    return TrainedModel(kernel, lam, inputs, coeffs, meta, scaling=scaling)
