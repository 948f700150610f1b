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
  2. c update: solve (2 lam I + rho A) c = rho alpha + gamma with the
     explicit inverse of that fixed matrix M (c_inverse: a Cholesky factor
     turned into M^-1 in place by LAPACK potri, built once per
     train_multistart and shared by its starts), applied by one BLAS
     symmetric product (symv, in c_solve) to the residual of the previous
     c.  A product reads one triangle once, with no dependency chain
     between its rows, where the two triangular solves of a factor do not.
     Its rounding error grows with cond(M), as a solve's residual does;
  3. multiplier update: gamma = 2 lam c, the closed form the exact c update
     implies for an invertible A.  The state therefore stores c only, and
     gamma is formed as 2 lam c wherever it is read.

The exact c update also determines the next A c without a product:
(2 lam I + rho A) c = rho alpha + 2 lam c_prev gives
A c = alpha + (2 lam / rho) (c_prev - c), an O(N) expression, so an
iteration reads one N x N operand, M^-1.  The carried A c drifts from the
true product by rounding (about 1e-13 over 3300 iterations at N = 1000).
The product itself is formed by BLAS symv (a_dot), which reads the same
triangle of A that c_inverse inverts, only by initial_state,
stationarity_residual and the stop check.  Every symv reads its N x N
operand in place: GramMatrix keeps its entries C-contiguous, so
A.entries.T is the Fortran-ordered view symv takes, and M^-1 is
Fortran-ordered.

admm_run iterates all its starts together as one block: alpha, c and the
carried A c are Fortran-ordered N x S arrays, one start per column.  The
elementwise work (the prox, the c-update arithmetic, the A c identity, the
losses) runs once per iteration on the whole block.  The risks F(alpha)
and F(A c) of every column come from one _risk call on the columns of
alpha and of A c side by side, a Fortran-ordered N x 2S block; each is a
pairwise sum along its own contiguous column, as for a single vector.
The BLAS calls stay per column: the symv with M^-1 of each c-solve, the
symv of a stop check and the dot products of the checks and diagnostics,
each on a contiguous column.  A start's iterates and trace are therefore
bit for bit those of the same start run alone, whatever starts share its
block.  A column retires when its start converges, diverges or fails, and
the block is compacted to the columns still running; at the cap all
remaining columns stop together.

A start stops when ||alpha - A c||_2 < eps0 for the true product.  Each
iteration is the step, then one loop over the columns for their stop
checks, then retirement.  A column whose carried residual passes has
a_dot's A c written into the step's A c, and its record uses that
product.  A start stops as "converged" when its true residual passes,
"diverged" at a non-finite objective or residual, and "failed" when
d^T A d < 0 for its step d.  The diagnostics of a record (the objective,
the augmented Lagrangian and the step norm) are formed every iteration
only when the caller reads the trace (admm_run's ``trace``); otherwise a
start's objective is formed only where a bound cannot show it finite, and
its record only at its last iteration.  admm_run iterates and records, and
judges nothing about rho: when rho exceeds the threshold
4 lam / lambda_min(A) the augmented Lagrangian is guaranteed to decrease
every iteration, and model.train_multistart checks that on each start's
finished trace.
"""
import math
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dpotri

from .errors import DefinitenessError, InputError, check_integers, check_labels
from .kernels import LOWER, GramMatrix, shifted_cholesky
from .losses import MarginLoss, margin_value, prox_vector

RHO_POLICIES = ("off", "warn", "error")


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
        if not (self.eps0 > 0 and np.isfinite(self.eps0)):
            raise InputError(f"stopping threshold eps0 must be positive, got {self.eps0}")
        check_integers(max_iter=self.max_iter)
        if self.max_iter < 1:
            raise InputError(f"iteration cap must be at least 1, got {self.max_iter}")
        if self.enforce_rho_condition not in RHO_POLICIES:
            raise InputError(f"enforce_rho_condition must be one of {RHO_POLICIES}, "
                             f"got {self.enforce_rho_condition!r}")


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

    def rises(self, slack: float) -> list:
        """(k, rise) of each record whose Lagrangian exceeds the previous
        record's by more than ``slack``, in record order."""
        ks, lags = self._columns[:2]
        return [(k, lag - prev) for k, prev, lag in zip(ks[1:], lags, lags[1:])
                if lag > prev + slack]

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
    """The product A c by BLAS symv, reading the triangle c_inverse inverts."""
    return dsymv(1.0, A.entries.T, c, lower=LOWER)


def c_inverse(A: GramMatrix, cfg: AdmmConfig):
    """The inverse of M = 2 lam I + rho A, the matrix of every c-update.

    Returns the triangle kernels.LOWER names of M^-1 in a Fortran-ordered
    N x N array, the only N x N buffer this allocates: LAPACK factors M in
    place (kernels.shifted_cholesky) and turns the factor into M^-1 in place
    (potri).  Raises DefinitenessError when either step fails, i.e. when M
    is not positive definite.
    """
    chol, info = shifted_cholesky(A, cfg.rho, 2.0 * cfg.lam)
    if info != 0:
        raise DefinitenessError(f"cannot factor 2 lam I + rho A: {info}-th leading minor "
                                "of the array is not positive definite")
    inverse, info = dpotri(chol, lower=LOWER, overwrite_c=1)
    if info != 0:
        raise DefinitenessError(f"cannot invert 2 lam I + rho A: LAPACK potri info {info}")
    return inverse


def c_solve(inverse, b) -> np.ndarray:
    """Solve (2 lam I + rho A) x = b with ``inverse`` = c_inverse(A, cfg).

    x = M^-1 b is one BLAS symv reading the triangle kernels.LOWER names.
    ``b`` is not modified.
    """
    return dsymv(1.0, inverse, b, lower=LOWER)


def admm_step(loss: MarginLoss, labels, cfg: AdmmConfig, st: AdmmState, inverse) -> AdmmState:
    """One full iteration (alpha, c, gamma); the input state is not modified.

    ``st`` holds one start (1-D arrays) or a block of starts (N x S arrays,
    one per column; admm_run's are Fortran-ordered, and a block in another
    layout steps to the same values), and ``labels`` has shape (N,) for one
    start and (N, 1) for a block, else InputError.  Each label must be +1 or
    -1, as for prox_vector; a step, run every iteration, does not check
    that (admm_run does, once).  ``inverse`` is
    c_inverse(A, cfg).  The elementwise work runs on the whole block, and
    each column's c-solve is its own symv call, so a column's iterate does
    not depend on the other columns.  Reads A c from ``st.ac``
    and returns the new state with ``ac = alpha + (2 lam / rho) (st.c - c)``,
    the value the exact c update gives A c, so a step forms no N x N
    product.  That ``ac`` equals a_dot(A, c) to rounding, and its error
    carries over from ``st.ac``.
    """
    n = st.c.shape[0]
    if np.shape(labels) != ((n,) if st.c.ndim == 1 else (n, 1)):
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
        col[:] = c_solve(inverse, col)
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


def _checked_labels(labels, A: GramMatrix) -> np.ndarray:
    """``labels`` as a float (N,) vector of +1 and -1, else InputError."""
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (A.size,):
        raise InputError("labels must match the kernel matrix size")
    check_labels(labels)
    return labels


def stationarity_residual(loss, labels, A: GramMatrix, cfg: AdmmConfig, st: AdmmState) -> float:
    """Max-norm violation of the fixed-point equations at a state.

    Zero exactly when alpha = A c and alpha solves the subproblems anchored
    at A c - gamma / rho, i.e. when the state is a stationary point.
    ``labels`` must be an (N,) vector of +1 and -1, else InputError.
    """
    labels = _checked_labels(labels, A)
    ac = a_dot(A, st.c)
    split = float(np.max(np.abs(st.alpha - ac)))
    anchors = ac - (2.0 * cfg.lam * st.c) / cfg.rho
    fixed = prox_vector(loss, cfg.rho, A.size, labels, anchors)
    return max(split, float(np.max(np.abs(st.alpha - fixed))))


def _column_state(st: AdmmState, i: int) -> AdmmState:
    return AdmmState(alpha=st.alpha[:, i].copy(), c=st.c[:, i].copy(),
                     ac=st.ac[:, i].copy(), k=st.k)


def admm_run(loss: MarginLoss, labels, A: GramMatrix, cfg: AdmmConfig, inits,
             inverse=None, *, trace: bool = True) -> list:
    """Iterate every start in ``inits`` until ||alpha - A c|| < eps0 or the cap.

    The starts run as one block, one per column (see the module docstring),
    and each start's result is bit for bit the one it gets when run alone.
    Returns one AdmmRunResult per start, in order.  A failed start keeps
    its state at the failing step and its trace up to the step before.

    The test is on the true product: each step carries A c (admm_step), and
    the stop check writes a_dot's A c over a carried one whose residual
    passes eps0 before the iteration's record is computed.  The trace's
    objective and Lagrangian therefore use the carried A c, except on a
    stop-check record; a "max_iter" run ends on a carried objective.

    ``trace=False`` keeps only each start's last record, the one its
    status is read from: an iteration forms a start's objective only when
    the bound below cannot show it finite, and its Lagrangian and step norm
    only for that last record.  States, statuses, errors and last records
    are bit for bit those of ``trace=True``; a failed start's trace is then
    empty.

    ``inverse`` is c_inverse(A, cfg), built here when not given.  Nothing
    here reads the rho condition: train_multistart checks descent on the
    finished traces.  Raises DefinitenessError when 2 lam I + rho A is not
    positive definite, and InputError when ``labels`` is not an (N,) vector
    of +1 and -1, ``inverse`` is not N x N, ``inits`` is empty, a start's
    arrays are not of shape (N,) or a start is not at iteration 0 (every
    start comes from initial_state).  This is the one place a run's label
    values and inverse are checked: admm_step and prox_vector, which run
    every iteration, take them as given.
    """
    labels = _checked_labels(labels, A)
    if inverse is not None and np.shape(inverse) != (A.size, A.size):
        raise InputError("inverse does not match the kernel matrix size")
    if not inits:
        raise InputError("admm_run needs at least one start")
    for j, s in enumerate(inits):
        for name in ("alpha", "c", "ac"):
            shape = np.shape(getattr(s, name))
            if shape != (A.size,):
                raise InputError(f"start {j}: {name} must have shape ({A.size},), got {shape}")
        if s.k != 0:
            raise InputError(f"start {j}: must be at iteration 0, got k = {s.k}")
    y = labels[:, None]
    if inverse is None:
        inverse = c_inverse(A, cfg)
    # Every loss has 0 <= L(z) <= 2 + |z|, so with labels of +-1 the
    # objective F(A c) + lam c^T A c is finite when every |(A c)_i| <= 1e150
    # and |lam c^T A c| <= 1e300.  Where that bound fails or reads NaN, the
    # objective is formed and tested itself.

    def block(arrays):
        return np.array(arrays, dtype=float).T

    st = AdmmState(alpha=block([s.alpha for s in inits]), c=block([s.c for s in inits]),
                   ac=block([s.ac for s in inits]), k=0)
    starts = list(range(len(inits)))  # the start in each column of the block
    traces = [IterationTrace() for _ in inits]
    results = [None] * len(inits)
    while starts:  # every column retires by the cap, when its status is "max_iter"
        prev, st = st, admm_step(loss, y, cfg, st, inverse)
        k = st.k
        record = trace or k == cfg.max_iter  # every column keeps this iteration's record
        if record:
            # F(alpha) and F(A c) in one pass, on their columns side by side
            # in a Fortran-ordered N x 2S block.
            risks = _risk(loss, y, np.concatenate((st.alpha.T, st.ac.T)).T)
            risk_alpha, risk_ac = risks[:len(starts)], risks[len(starts):]
        else:
            ac_max = np.abs(st.ac).max(axis=0).tolist()
        columns = zip(st.alpha.T, st.c.T, st.ac.T, (st.alpha - st.ac).T, (st.c - prev.c).T,
                      (st.ac - prev.ac).T)
        for i, (alpha, c, ac, r, dc, dac) in enumerate(columns):
            j = starts[i]
            r_sq = float(r.dot(r))
            checked = math.sqrt(r_sq) < cfg.eps0
            if checked:
                # The stop check: the true product replaces the carried one
                # in this step's own A c, a fresh array, never prev.ac.
                ac[:] = a_dot(A, c)
                r = alpha - ac
                r_sq = float(r.dot(r))
                dac = ac - prev.ac[:, i]
            resid = math.sqrt(r_sq)
            try:
                step_sq = _psd_form(float(dc.dot(dac)))
            except DefinitenessError as exc:
                results[j] = AdmmRunResult(_column_state(st, i), traces[j], "failed", str(exc))
                continue
            cac = float(c.dot(ac))
            lam_cac = cfg.lam * cac
            if (not (record or checked) and math.isfinite(resid)
                    and ac_max[i] <= 1e150 and abs(lam_cac) <= 1e300):
                continue  # a finite objective, and nothing to record
            obj = (risk_ac[i] if record and not checked else _risk(loss, labels, ac)) + lam_cac
            status = "max_iter" if k == cfg.max_iter else None
            error = None
            if not (math.isfinite(obj) and math.isfinite(resid)):
                status = "diverged"
                error = f"diverged at iteration {k} (objective {obj}, residual {resid})"
            elif resid < cfg.eps0:
                status = "converged"
            elif not record:
                continue
            risk = risk_alpha[i] if record else _risk(loss, labels, alpha)
            lag = _lagrangian_given(risk, cfg, 2.0 * cfg.lam * c, r, cac, r_sq)
            traces[j].append(k, lag, obj, resid, math.sqrt(step_sq))
            if status is not None:
                results[j] = AdmmRunResult(_column_state(st, i), traces[j], status, error)
        keep = [i for i, j in enumerate(starts) if results[j] is None]
        if len(keep) < len(starts):
            # Indexing whole columns keeps the arrays Fortran-ordered.
            st = AdmmState(alpha=st.alpha[:, keep], c=st.c[:, keep], ac=st.ac[:, keep], k=st.k)
            starts = [starts[i] for i in keep]
    return results
