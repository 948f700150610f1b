"""ADMM splitting loop for kernel SVM training with piecewise margin losses.

The finite-dimensional training problem in the coefficient vector c is

    minimize  F(A c) + lam * c^T A c,    F(t) = (1/n) sum_i L(y_i, t_i),

with A the kernel matrix.  Introducing a split variable alpha = A c and a
multiplier gamma gives the augmented Lagrangian

    F(alpha) + lam * c^T A c + gamma^T (alpha - A c)
    + (rho / 2) * ||alpha - A c||^2.

One iteration performs

  1. alpha update: n independent scalar subproblems with anchors
     (A c)_i - gamma_i / rho, solved exactly (losses.prox_vector);
  2. c update: solve (2 lam I + rho A) c = rho alpha + gamma with a Cholesky
     factor of the fixed matrix (c_factor, built once per train_multistart
     and shared by its starts), applied by two BLAS triangular solves
     (trsv, in c_solve) as a correction to the previous c;
  3. multiplier update: gamma = 2 lam c, the closed form the exact c update
     implies for an invertible A.  The state therefore stores c only, and
     gamma is formed as 2 lam c wherever it is read.

The exact c update also determines the next A c without a product:
(2 lam I + rho A) c = rho alpha + 2 lam c_prev gives
A c = alpha + (2 lam / rho) (c_prev - c), an O(N) expression, so an
iteration reads one N x N operand, the factor.  The carried A c drifts
from the true product by rounding (about 1e-13 over 3300 iterations at
N = 1000).  The product itself is formed by BLAS symv (a_dot), which reads
the same triangle of A that c_factor factors, only by initial_state,
stationarity_residual and the stop check.  Both level-2 calls read their
N x N operand in place: GramMatrix keeps its entries C-contiguous, so
A.entries.T is the Fortran-ordered view symv takes, and the factor is
Fortran-ordered.

The loop stops when ||alpha - A c||_2 < eps0 for the true product: when
the carried residual passes, A c is formed once by a_dot, which replaces
the carried one, and the run goes on unless the true residual passes too.
It stops as "diverged" when the objective or residual is no longer
finite.  When rho exceeds the threshold 4 lam / lambda_min(A) the
augmented Lagrangian is guaranteed to decrease every iteration, and the
iterates are bounded; both facts are monitored as diagnostics rather than
assumed.
"""

import warnings
from array import array
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.blas import dsymv, dtrsv

from ._io import write_text_atomic
from .errors import DefinitenessError, InputError
from .kernels import GramMatrix
from .losses import MarginLoss, margin_value, prox_vector

#: Allowed uphill movement of the augmented Lagrangian before a warning.
DESCENT_SLACK = 1e-9

RHO_POLICIES = ("off", "warn", "error")

#: The triangle of A that c_factor factors and a_dot reads (False: upper,
#: in the Fortran view A.entries.T).
_LOWER = False


@dataclass(frozen=True)
class AdmmConfig:
    lam: float
    rho: float
    eps0: float = 1e-12
    max_iter: int = 10000
    enforce_rho_condition: str = "warn"

    def __post_init__(self):
        if not (self.lam > 0 and np.isfinite(self.lam)):
            raise InputError(f"regularization weight lam must be positive, got {self.lam}")
        if not (self.rho > 0 and np.isfinite(self.rho)):
            raise InputError(f"penalty rho must be positive, got {self.rho}")
        if not (self.eps0 > 0):
            raise InputError(f"stopping threshold eps0 must be positive, got {self.eps0}")
        if self.max_iter < 1:
            raise InputError(f"iteration cap must be at least 1, got {self.max_iter}")
        if self.enforce_rho_condition not in RHO_POLICIES:
            raise InputError(
                f"enforce_rho_condition must be one of {RHO_POLICIES}, "
                f"got {self.enforce_rho_condition!r}"
            )


@dataclass
class AdmmState:
    alpha: np.ndarray
    c: np.ndarray
    #: A @ c: from a_dot at a start and at a stop check, otherwise carried
    #: by admm_step through the c-update identity (equal to rounding).
    ac: np.ndarray
    k: int


@dataclass(frozen=True)
class RhoCondition:
    """Verdict on rho > 4 lam / lambda_min(A): "satisfied", "NOT satisfied",
    "not verifiable" (``detail`` says why) or "not checked" (policy "off")."""

    status: str
    lambda_min: float | None = None
    threshold: float | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "satisfied"


@dataclass(frozen=True)
class TraceRecord:
    k: int
    lagrangian: float
    objective: float
    residual: float
    step_norm_H: float


class IterationTrace:
    """TraceRecords stored as one typed array per field (40 bytes a record)."""

    def __init__(self):
        self._columns = (array("q"),) + tuple(array("d") for _ in range(4))

    def append(self, rec: TraceRecord) -> None:
        for col, v in zip(self._columns, (rec.k, rec.lagrangian, rec.objective,
                                          rec.residual, rec.step_norm_H)):
            col.append(v)

    @property
    def records(self) -> list:
        return [TraceRecord(*row) for row in zip(*self._columns)]

    @property
    def final(self) -> TraceRecord:
        return TraceRecord(*(col[-1] for col in self._columns))

    def __len__(self) -> int:
        return len(self._columns[0])

    def to_csv(self, extra_cumulative_step_norm: bool = False) -> str:
        header = "k,lagrangian,objective,residual,step_norm_H"
        if extra_cumulative_step_norm:
            header += ",cum_step_norm_H"
        lines = [header]
        cum = 0.0
        for k, lag, obj, resid, step in zip(*self._columns):
            row = f"{k},{lag:.17g},{obj:.17g},{resid:.17g},{step:.17g}"
            if extra_cumulative_step_norm:
                cum += step
                row += f",{cum:.17g}"
            lines.append(row)
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str, extra_cumulative_step_norm: bool = False) -> None:
        write_text_atomic(path, self.to_csv(extra_cumulative_step_norm))


@dataclass
class AdmmRunResult:
    state: AdmmState
    trace: IterationTrace
    status: str  # "converged" | "max_iter" | "diverged"


def initial_state(A: GramMatrix, rng: np.random.Generator) -> AdmmState:
    """Random start: c ~ Uniform[-10, 10]^n with alpha = A c."""
    c0 = rng.uniform(-10.0, 10.0, A.size)
    ac = a_dot(A, c0)
    return AdmmState(alpha=ac, c=c0, ac=ac, k=0)


def _risk(loss, labels, t) -> float:
    # np.mean's arithmetic (pairwise sum, then divide) without its dispatch.
    values = margin_value(loss, labels * t)
    return float(np.add.reduce(values, axis=None) / values.size)


def _lagrangian_given(loss, labels, cfg, st, res, cac) -> float:
    """Augmented Lagrangian from the split residual alpha - A c and c^T A c."""
    return (
        _risk(loss, labels, st.alpha)
        + cfg.lam * cac
        + float((2.0 * cfg.lam * st.c) @ res)
        + 0.5 * cfg.rho * float(res @ res)
    )


def a_dot(A: GramMatrix, c) -> np.ndarray:
    """The product A c by BLAS symv, reading the triangle c_factor factors."""
    return dsymv(1.0, A.entries.T, c, lower=_LOWER)


def c_factor(A: GramMatrix, cfg: AdmmConfig):
    """Cholesky factor of M = 2 lam I + rho A, the matrix of every c-update.

    The factor is the only N x N buffer this allocates: rho A is formed
    transposed (Fortran order, which LAPACK factors in place, and which
    c_solve's trsv reads without a copy) and its diagonal shifted.  Raises
    DefinitenessError when M is not positive definite.
    """
    m = (cfg.rho * A.entries).T
    m[np.diag_indices_from(m)] += 2.0 * cfg.lam
    try:
        return cho_factor(m, lower=_LOWER, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(f"cannot factor 2 lam I + rho A: {exc}") from None


def c_solve(factor, b) -> np.ndarray:
    """Solve (2 lam I + rho A) x = b with ``factor`` = c_factor(A, cfg).

    ``factor`` is a cho_factor tuple (F, lower).  Two BLAS triangular
    solves: with M = U^T U (upper) they are U^T y = b, then U x = y; with
    M = L L^T (lower), L y = b, then L^T x = y.  ``b`` is not modified.
    """
    chol, lower = factor
    y = dtrsv(chol, b, lower=lower, trans=0 if lower else 1)
    return dtrsv(chol, y, lower=lower, trans=1 if lower else 0, overwrite_x=1)


def admm_step(loss: MarginLoss, labels, A: GramMatrix, cfg: AdmmConfig, st: AdmmState,
              factor) -> AdmmState:
    """One full iteration (alpha, c, gamma); the input state is not modified.

    ``factor`` is c_factor(A, cfg).  Reads A c from ``st.ac`` and returns
    the new state with ``ac = alpha + (2 lam / rho) (st.c - c)``, the value
    the exact c update gives A c, so a step forms no N x N product.  That
    ``ac`` equals a_dot(A, c) to rounding, and its error carries over from
    ``st.ac``.
    """
    labels = np.asarray(labels, dtype=float)
    n = A.size
    if labels.shape != (n,):
        raise InputError("labels must match the kernel matrix size")
    gamma = 2.0 * cfg.lam * st.c
    anchors = st.ac - gamma / cfg.rho
    alpha = prox_vector(loss, cfg.rho, n, labels, anchors)
    b = cfg.rho * alpha + gamma
    # Solve for the change from st.c: an exact fixed point stays bitwise fixed.
    c = st.c + c_solve(factor, b - (gamma + cfg.rho * st.ac))
    ac = alpha + (2.0 * cfg.lam / cfg.rho) * (st.c - c)
    return AdmmState(alpha=alpha, c=c, ac=ac, k=st.k + 1)


def _psd_form(q: float) -> float:
    """A quadratic form d^T A d of a PSD matrix, with rounding below 0 clamped."""
    if q < -1e-12:
        raise DefinitenessError(
            f"kernel matrix quadratic form is negative ({q:.3e}); matrix is not PSD"
        )
    return max(q, 0.0)


def stationarity_residual(loss, labels, A: GramMatrix, cfg: AdmmConfig, st: AdmmState) -> float:
    """Max-norm violation of the fixed-point equations at a state.

    Zero exactly when alpha = A c and alpha solves the subproblems anchored
    at A c - gamma / rho, i.e. when the state is a stationary point.
    """
    labels = np.asarray(labels, dtype=float)
    ac = a_dot(A, st.c)
    split = float(np.max(np.abs(st.alpha - ac)))
    anchors = ac - (2.0 * cfg.lam * st.c) / cfg.rho
    fixed = prox_vector(loss, cfg.rho, A.size, labels, anchors)
    return max(split, float(np.max(np.abs(st.alpha - fixed))))


def admm_run(
    loss: MarginLoss,
    labels,
    A: GramMatrix,
    cfg: AdmmConfig,
    init: AdmmState,
    rho_check: RhoCondition | None = None,
    factor=None,
) -> AdmmRunResult:
    """Iterate from ``init`` until ||alpha - A c|| < eps0 or the cap.

    The test is on the true product.  Each step carries A c (admm_step);
    when the carried residual passes eps0, A c is formed once by a_dot,
    replaces the carried one in the state, and the iteration's record is
    computed from it.  The run stops as "converged" only if that true
    residual passes too.  The trace's objective and Lagrangian therefore
    use the carried A c, except on a stop-check record, which uses the true
    product; a "max_iter" run ends on a carried objective.

    ``factor`` is c_factor(A, cfg), built here when not given; callers
    running several starts on one matrix build it once and pass it.
    The monotone-descent diagnostic runs only when ``rho_check`` says
    rho clears the threshold, since the guarantee only applies above it.
    A non-finite objective or residual stops the run with status
    "diverged".  Raises DefinitenessError when 2 lam I + rho A is not
    positive definite.
    """
    labels = np.asarray(labels, dtype=float)
    monitor_descent = rho_check is not None and rho_check.ok
    if factor is None:
        factor = c_factor(A, cfg)

    st = init
    trace = IterationTrace()
    prev_c = init.c
    prev_ac = init.ac
    prev_lag = None
    status = "max_iter"
    for _ in range(cfg.max_iter):
        st = admm_step(loss, labels, A, cfg, st, factor)
        ac = st.ac
        res = st.alpha - ac
        resid = float(np.linalg.norm(res))
        if resid < cfg.eps0:
            ac = a_dot(A, st.c)
            st = replace(st, ac=ac)
            res = st.alpha - ac
            resid = float(np.linalg.norm(res))
        cac = float(st.c @ ac)
        lag = _lagrangian_given(loss, labels, cfg, st, res, cac)
        obj = _risk(loss, labels, ac) + cfg.lam * cac
        step_norm = float(np.sqrt(_psd_form(float((st.c - prev_c) @ (ac - prev_ac)))))
        trace.append(TraceRecord(st.k, lag, obj, resid, step_norm))
        if not (np.isfinite(obj) and np.isfinite(resid)):
            status = "diverged"
            break
        if monitor_descent and prev_lag is not None and lag > prev_lag + DESCENT_SLACK:
            warnings.warn(
                f"augmented Lagrangian rose by {lag - prev_lag:.3e} at iteration "
                f"{st.k} despite rho clearing the descent threshold",
                RuntimeWarning,
                stacklevel=2,
            )
        prev_lag = lag
        prev_c = st.c
        prev_ac = ac
        if resid < cfg.eps0:
            status = "converged"
            break
    return AdmmRunResult(state=st, trace=trace, status=status)
