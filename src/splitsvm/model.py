"""Trained classifiers: prediction, multi-start training, persistence.

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

from ._io import write_text_atomic
from .admm import (
    AdmmConfig,
    IterationTrace,
    RhoCondition,
    admm_run,
    c_factor,
    initial_state,
)
from .data import Dataset
from .errors import (
    DefinitenessError,
    FormatVersionError,
    InputError,
    ParseError,
    TrainingError,
)
from .kernels import GramMatrix, KernelSpec, cross_gram, gram, min_eigenvalue
from .losses import LOSSES, MarginLoss

FORMAT_NAME = "splitsvm-model"
FORMAT_VERSION = 1

#: Rows of the cross-kernel matrix that prediction forms at a time.
PREDICT_BLOCK = 1024


@dataclass(frozen=True)
class ModelMeta:
    loss_name: str
    rho: float
    converged: bool
    final_residual: float
    objective: float
    start_index: int = 0


@dataclass(frozen=True)
class FeatureScaling:
    means: np.ndarray
    scales: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.means) / self.scales


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
        if self.inputs.ndim != 2:
            raise InputError("model inputs must be a 2-D array")
        if self.coeffs.shape != (self.inputs.shape[0],):
            raise InputError(
                f"coefficient count {self.coeffs.shape} does not match "
                f"{self.inputs.shape[0]} training points"
            )


def decision_values(m: TrainedModel, points) -> np.ndarray:
    """s(x) for each point; a single 1-D point is read as one row.

    Forms PREDICT_BLOCK rows of the cross-kernel matrix at a time so memory
    does not grow with the batch.
    """
    x = np.asarray(points, dtype=float)
    pts = x[None, :] if x.ndim == 1 else x
    if pts.ndim != 2 or pts.shape[1] != m.inputs.shape[1]:
        raise InputError(
            f"expected points with {m.inputs.shape[1]} features, got shape {x.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise InputError("prediction inputs must be finite")
    if m.scaling is not None:
        pts = m.scaling.apply(pts)
    out = np.empty(pts.shape[0])
    for i in range(0, pts.shape[0], PREDICT_BLOCK):
        block = slice(i, i + PREDICT_BLOCK)
        out[block] = cross_gram(m.kernel, pts[block], m.inputs) @ m.coeffs
    return out


def predict_labels(m: TrainedModel, points) -> np.ndarray:
    dv = decision_values(m, points)
    return np.where(dv >= 0.0, 1.0, -1.0)


def rho_condition(A: GramMatrix, cfg: AdmmConfig) -> RhoCondition:
    """Decide rho > 4 lam / lambda_min(A) under ``cfg.enforce_rho_condition``.

    The one reader of that policy; computes lambda_min at most once.  "off"
    computes nothing; "warn" warns once when the condition fails or cannot
    be verified; "error" raises InputError or DefinitenessError instead.
    """
    policy = cfg.enforce_rho_condition
    if policy == "off":
        return RhoCondition("not checked")
    try:
        lambda_min = min_eigenvalue(A)
    except DefinitenessError as exc:
        if policy == "error":
            raise
        warnings.warn(f"could not verify the rho condition: {exc}", RuntimeWarning, stacklevel=2)
        return RhoCondition("not verifiable", detail=str(exc))
    threshold = 4.0 * cfg.lam / lambda_min
    ok = cfg.rho > threshold
    if not ok and policy == "error":
        raise InputError(f"rho = {cfg.rho} does not exceed the descent threshold "
                         f"4*lam/lambda_min = {threshold:.6g}")
    if not ok:
        warnings.warn(f"rho = {cfg.rho} is at or below the descent threshold {threshold:.6g}; "
                      "monotone descent is not guaranteed", RuntimeWarning, stacklevel=2)
    return RhoCondition("satisfied" if ok else "NOT satisfied", lambda_min, threshold)


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
    rho_check: RhoCondition | None = None,
):
    """Run ``starts`` seeded ADMM starts; keep the lowest final objective.

    Start s draws its initial point from a generator seeded with seed + s.
    All starts share one factor of 2 lam I + rho A, built before the first
    start; DefinitenessError is raised when it cannot be built.  The starts
    then run together as one admm_run block, and each start's result is
    bit for bit the one it gets alone, whatever ``starts`` is.  Ties in
    the final objective resolve to the lowest start index; a start that
    failed or diverged is never selected.  ``rho_check`` is the verdict
    of rho_condition when the caller already has it.  Returns
    (TrainedModel, [StartSummary...]); only the chosen start's summary
    keeps its trace, and the model metadata records which start won.
    """
    if starts < 1:
        raise InputError(f"need at least one start, got {starts}")
    A = gram_matrix if gram_matrix is not None else gram(kernel_spec, data.X)
    if A.size != data.n:
        raise InputError("kernel matrix size does not match the dataset")
    if rho_check is None:
        rho_check = rho_condition(A, cfg)
    factor = c_factor(A, cfg)
    inits = [initial_state(A, np.random.default_rng(seed + s)) for s in range(starts)]

    summaries = []
    best = None
    for s, run in enumerate(admm_run(loss, data.y, A, cfg, inits, rho_check, factor)):
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
    for i in range(n):
        row = " ".join(_fmt(v) for v in m.inputs[i])
        lines.append(f"{row} {_fmt(m.coeffs[i])}")
    write_text_atomic(path, "\n".join(lines) + "\n")


class _Reader:
    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8") as fh:
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
    (residual,) = r.floats(*r.keyed("residual", 1))
    (objective,) = r.floats(*r.keyed("objective", 1))
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
    inputs = np.empty((n, d))
    coeffs = np.empty(n)
    first_row_line = r.pos + 1
    for i in range(n):
        line, ln = r.next(f"data row {i + 1} of {n}")
        parts = line.split()
        if len(parts) != d + 1:
            raise ParseError(
                f"{path}: line {ln}: expected {d} features + 1 coefficient, "
                f"got {len(parts)} fields"
            )
        vals = r.floats(parts, ln)
        inputs[i] = vals[:d]
        coeffs[i] = vals[d]
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
