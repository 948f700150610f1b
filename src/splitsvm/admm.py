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

admm_run iterates all its starts together as one block: alpha, c and the
carried A c are Fortran-ordered N x S arrays, one start per column.  The
elementwise work (the prox, the c-update arithmetic, the A c identity, the
losses) runs once per iteration on the whole block, and each column's risk
is a pairwise sum along that contiguous column, as for a single vector.
The BLAS calls stay per column: the two trsv of each c-solve, the symv of
a stop check and the dot products of the diagnostics, each on a contiguous
column.  A start's iterates and trace are therefore bit for bit those of
the same start run alone, whatever starts share its block.  A column
retires when its start converges, diverges or fails, and the block is
compacted to the columns still running; at the cap all remaining columns
stop together.

A start stops when ||alpha - A c||_2 < eps0 for the true product.  Each
iteration is one pass: the step, the stop check (a column whose carried
residual passes gets a_dot's A c in place of the carried one), every
column's diagnostics, then retirement.  A start stops as "converged" when
its true residual passes, "diverged" at a non-finite objective or
residual, and "failed" when d^T A d < 0 for its step d.  When rho exceeds the threshold 4 lam / lambda_min(A) the
augmented Lagrangian is guaranteed to decrease every iteration, and the
iterates are bounded; both facts are monitored as diagnostics rather than
assumed.
"""
import math
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
    """One start's iterate (1-D arrays), or a block of starts: Fortran-ordered
    N x S arrays, one start per column, as admm_run steps them."""

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

    def append(self, k, lagrangian, objective, residual, step_norm_H) -> None:
        """Add one record, given as the five fields of a TraceRecord."""
        ks, lags, objs, resids, steps = self._columns
        ks.append(k)
        lags.append(lagrangian)
        objs.append(objective)
        resids.append(residual)
        steps.append(step_norm_H)

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
    status: str  # "converged" | "max_iter" | "diverged" | "failed"
    error: str | None = None  # why a "diverged" or "failed" start stopped


def initial_state(A: GramMatrix, rng: np.random.Generator) -> AdmmState:
    """Random start: c ~ Uniform[-10, 10]^n with alpha = A c."""
    c0 = rng.uniform(-10.0, 10.0, A.size)
    ac = a_dot(A, c0)
    return AdmmState(alpha=ac, c=c0, ac=ac, k=0)


def _risk(loss, labels, t):
    """F(t), the mean loss of the margins labels * t: a float for a vector t,
    a list of floats, one per column, for a Fortran-ordered N x S block.

    np.mean's arithmetic (pairwise sum, then divide) without its dispatch;
    each column of a block is summed along its contiguous memory, in the
    same order as that column alone.
    """
    values = margin_value(loss, labels * t)
    n = values.shape[0]
    sums = np.add.reduce(values, axis=0).tolist()
    return sums / n if values.ndim == 1 else [total / n for total in sums]


def _lagrangian_given(risk, cfg, gamma, res, cac, res_sq) -> float:
    """Augmented Lagrangian of one start from F(alpha), gamma = 2 lam c, the
    split residual alpha - A c, c^T A c and ||alpha - A c||^2."""
    return risk + cfg.lam * cac + float(gamma.dot(res)) + 0.5 * cfg.rho * res_sq


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

    ``st`` holds one start (1-D arrays) or a block of starts (N x S arrays,
    one per column; admm_run's are Fortran-ordered, and a block in another
    layout steps to the same values), and ``labels`` broadcasts against it:
    shape (N,), or (N, 1) for a block, else InputError.  ``factor`` is
    c_factor(A, cfg).  The elementwise work runs on the whole block, and
    each column's c-solve is its own pair of trsv calls, so a column's
    iterate does not depend on the other columns.  Reads A c from ``st.ac``
    and returns the new state with ``ac = alpha + (2 lam / rho) (st.c - c)``,
    the value the exact c update gives A c, so a step forms no N x N
    product.  That ``ac`` equals a_dot(A, c) to rounding, and its error
    carries over from ``st.ac``.
    """
    n = A.size
    if np.shape(labels)[:1] != (n,) or np.ndim(labels) > np.ndim(st.c):
        raise InputError("labels must match the kernel matrix size")
    gamma = 2.0 * cfg.lam * st.c
    anchors = st.ac - gamma / cfg.rho
    # Fortran order keeps every column contiguous for the solves and sums.
    alpha = np.asfortranarray(prox_vector(loss, cfg.rho, n, labels, anchors))
    b = cfg.rho * alpha + gamma
    # Solve for the change from st.c: an exact fixed point stays bitwise fixed.
    dc = np.asfortranarray(b - (gamma + cfg.rho * st.ac))
    # Rows of dc.T are views of dc's contiguous columns; each is solved alone.
    for col in dc.T.reshape(-1, n):
        col[:] = c_solve(factor, col)
    c = st.c + dc
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


def _column_state(st: AdmmState, i: int, k: int) -> AdmmState:
    return AdmmState(alpha=st.alpha[:, i].copy(), c=st.c[:, i].copy(),
                     ac=st.ac[:, i].copy(), k=k)


def admm_run(
    loss: MarginLoss,
    labels,
    A: GramMatrix,
    cfg: AdmmConfig,
    inits,
    rho_check: RhoCondition | None = None,
    factor=None,
) -> list:
    """Iterate every start in ``inits`` until ||alpha - A c|| < eps0 or the cap.

    The starts run as one block, one per column (see the module docstring),
    and each start's result is bit for bit the one it gets when run alone.
    Returns one AdmmRunResult per start, in order.  A failed start keeps
    its state at the failing step and its trace up to the step before.

    The test is on the true product: each step carries A c (admm_step), and
    the stop check replaces a carried A c whose residual passes eps0 by
    a_dot's before the iteration's record is computed.  The trace's
    objective and Lagrangian therefore use the carried A c, except on a
    stop-check record; a "max_iter" run ends on a carried objective.

    ``factor`` is c_factor(A, cfg), built here when not given.  The
    monotone-descent diagnostic runs only when ``rho_check`` says rho
    clears the threshold, since the guarantee only applies above it; its
    warnings from different starts may interleave.  Raises
    DefinitenessError when 2 lam I + rho A is not positive definite, and
    InputError when ``inits`` is empty or a start's arrays are not of
    shape (N,).
    """
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (A.size,):
        raise InputError("labels must match the kernel matrix size")
    if not inits:
        raise InputError("admm_run needs at least one start")
    for j, s in enumerate(inits):
        for name in ("alpha", "c", "ac"):
            shape = np.shape(getattr(s, name))
            if shape != (A.size,):
                raise InputError(f"start {j}: {name} must have shape ({A.size},), got {shape}")
    y = labels[:, None]
    monitor_descent = rho_check is not None and rho_check.ok
    if factor is None:
        factor = c_factor(A, cfg)

    def block(arrays):
        return np.array(arrays, dtype=float).T

    st = AdmmState(alpha=block([s.alpha for s in inits]), c=block([s.c for s in inits]),
                   ac=block([s.ac for s in inits]), k=0)
    k0 = [s.k for s in inits]
    starts = list(range(len(inits)))  # the start in each column of the block
    traces = [IterationTrace() for _ in inits]
    prev_lag = [None] * len(inits)
    results = [None] * len(inits)
    prev_c = st.c
    prev_ac = st.ac
    for _ in range(cfg.max_iter):
        st = admm_step(loss, y, A, cfg, st, factor)
        res = st.alpha - st.ac
        res_sq = [float(r.dot(r)) for r in res.T]
        # The stop check: where the carried residual passes, the true product
        # replaces the carried one, in a copy, so that the step's own output
        # stays as it was.
        checked = [i for i, q in enumerate(res_sq) if math.sqrt(q) < cfg.eps0]
        if checked:
            st = replace(st, ac=st.ac.copy(order="F"))
            for i in checked:
                st.ac[:, i] = a_dot(A, st.c[:, i])
            res = st.alpha - st.ac
            res_sq = [float(r.dot(r)) for r in res.T]
        risk_alpha = _risk(loss, y, st.alpha)
        risk_ac = _risk(loss, y, st.ac)
        gamma = 2.0 * cfg.lam * st.c
        columns = zip(st.c.T, st.ac.T, res.T, res_sq, gamma.T, (st.c - prev_c).T,
                      (st.ac - prev_ac).T)
        for i, (c, ac, r, r_sq, g, dc, dac) in enumerate(columns):
            j = starts[i]
            k = k0[j] + st.k
            resid = math.sqrt(r_sq)
            cac = float(c.dot(ac))
            lag = _lagrangian_given(risk_alpha[i], cfg, g, r, cac, r_sq)
            obj = risk_ac[i] + cfg.lam * cac
            try:
                step_norm = math.sqrt(_psd_form(float(dc.dot(dac))))
            except DefinitenessError as exc:
                results[j] = AdmmRunResult(_column_state(st, i, k), traces[j], "failed", str(exc))
                continue
            traces[j].append(k, lag, obj, resid, step_norm)
            if not (math.isfinite(obj) and math.isfinite(resid)):
                error = f"diverged at iteration {k} (objective {obj}, residual {resid})"
                results[j] = AdmmRunResult(_column_state(st, i, k), traces[j], "diverged", error)
                continue
            if monitor_descent and prev_lag[j] is not None and lag > prev_lag[j] + DESCENT_SLACK:
                warnings.warn(
                    f"augmented Lagrangian rose by {lag - prev_lag[j]:.3e} at iteration "
                    f"{k} despite rho clearing the descent threshold",
                    RuntimeWarning,
                    stacklevel=2,
                )
            prev_lag[j] = lag
            if resid < cfg.eps0:
                results[j] = AdmmRunResult(_column_state(st, i, k), traces[j], "converged")
        keep = [i for i, j in enumerate(starts) if results[j] is None]
        if len(keep) < len(starts):
            # Indexing whole columns keeps the arrays Fortran-ordered.
            st = AdmmState(alpha=st.alpha[:, keep], c=st.c[:, keep], ac=st.ac[:, keep], k=st.k)
            starts = [starts[i] for i in keep]
            if not starts:
                break
        prev_c = st.c
        prev_ac = st.ac
    for i, j in enumerate(starts):
        results[j] = AdmmRunResult(_column_state(st, i, k0[j] + st.k), traces[j], "max_iter")
    return results
