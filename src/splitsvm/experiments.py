"""Synthetic-data benchmark protocols.

Three canned experiments over the two-overlapping-squares data:

* ``convergence_trace``: a single run on 300 points (truncated-log loss,
  gaussian kernel sigma=1, lam=0.1, rho=0.05, eps0=1e-12) recording the
  per-iteration diagnostics, including function-space step norms, and
  the stationarity residual that certifies its last state a fixed point.
* ``loss_kernel_table``: all four losses crossed with both kernels
  (gaussian sigma=2, laplacian-type sigma=1) on a 300/120 train/test split
  with lam=0.5, rho=5 and 20 starts; reports train/test accuracy.
* ``size_scaling_table``: the two-slope piecewise-linear loss with the
  gaussian kernel (sigma=1, lam=0.1, rho=1, 20 starts) over growing
  training sizes; reports accuracy and wall time.
"""

import time
from dataclasses import dataclass

import numpy as np

from .admm import AdmmConfig, admm_run, c_inverse, initial_state, stationarity_residual
from .data import Dataset, generate_synthetic
from .errors import DefinitenessError, InputError
from .kernels import KernelSpec, gram
from .losses import get_loss
from .model import TrainedModel, predict_labels, train_multistart

LOSS_ORDER = ("hinge", "pl2", "tlog", "ramp")


def _accuracy(m: TrainedModel, ds: Dataset) -> float:
    return float(np.mean(predict_labels(m, ds.X) == ds.y))


def convergence_trace(seed: int):
    """Single-start diagnostic run on the 300-point synthetic set: its
    AdmmRunResult and stationarity_residual at its last state."""
    train, _ = generate_synthetic(300, 120, seed)
    cfg = AdmmConfig(lam=0.1, rho=0.05, eps0=1e-12)
    A = gram(KernelSpec("gaussian", 1.0), train.X)
    loss = get_loss("tlog")
    init = initial_state(A, np.random.default_rng(seed))
    (run,) = admm_run(loss, train.y, A, cfg, [init])
    if run.status == "failed":
        raise DefinitenessError(run.error)
    return run, stationarity_residual(loss, train.y, A, cfg, run.state)


@dataclass
class TableRow:
    loss: str
    kernel: str
    sigma: float
    n_train: int
    n_test: int
    train_accuracy: float
    test_accuracy: float
    iterations: int
    converged: bool
    seconds: float


def _table_row(train, test, spec, loss, cfg, starts, seed, gram_matrix=None,
               inverse=None) -> TableRow:
    """Train one multistart model, timing the training, and score both splits."""
    t0 = time.perf_counter()
    model, summaries = train_multistart(
        train, spec, loss, cfg, starts, seed, gram_matrix=gram_matrix, inverse=inverse
    )
    seconds = time.perf_counter() - t0
    chosen = summaries[model.meta.start_index]
    return TableRow(
        loss=loss.name,
        kernel=spec.family,
        sigma=spec.sigma,
        n_train=train.n,
        n_test=test.n,
        train_accuracy=_accuracy(model, train),
        test_accuracy=_accuracy(model, test),
        iterations=chosen.iterations,
        converged=bool(chosen.converged),
        seconds=seconds,
    )


def loss_kernel_table(seed: int, starts: int = 20, max_iter: int = 10000):
    """Accuracy of every loss/kernel pair on one 300/120 synthetic split."""
    train, test = generate_synthetic(300, 120, seed)
    cfg = AdmmConfig(lam=0.5, rho=5.0, eps0=1e-12, max_iter=max_iter,
                     enforce_rho_condition="off")
    rows = []
    for family, sigma in (("gaussian", 2.0), ("matern1", 1.0)):
        spec = KernelSpec(family, sigma)
        A = gram(spec, train.X)
        inverse = c_inverse(A, cfg)  # one per kernel, shared by its four losses
        for loss_name in LOSS_ORDER:
            rows.append(_table_row(train, test, spec, get_loss(loss_name), cfg, starts, seed, A,
                                   inverse))
    return rows


def size_scaling_table(
    seed: int,
    sizes=(100, 200, 300, 400, 500, 600, 700, 800, 900, 1000),
    starts: int = 20,
    max_iter: int = 10000,
):
    """Train-size sweep; test sets are 40% of the training size."""
    for n in sizes:
        if n < 5 or (2 * n) % 5 != 0:
            raise InputError(f"train size {n} does not give an even 40% test size")
    cfg = AdmmConfig(lam=0.1, rho=1.0, eps0=1e-12, max_iter=max_iter,
                     enforce_rho_condition="off")
    spec = KernelSpec("gaussian", 1.0)
    loss = get_loss("pl2")
    rows = []
    for idx, n in enumerate(sizes):
        train, test = generate_synthetic(n, (2 * n) // 5, seed + idx)
        rows.append(_table_row(train, test, spec, loss, cfg, starts, seed))
    return rows


def rows_to_csv(rows, include_seconds: bool) -> str:
    header = "loss,kernel,sigma,n_train,n_test,train_accuracy,test_accuracy,iterations,converged"
    if include_seconds:
        header += ",seconds"
    lines = [header]
    for r in rows:
        line = (
            f"{r.loss},{r.kernel},{r.sigma:.17g},{r.n_train},{r.n_test},"
            f"{r.train_accuracy:.17g},{r.test_accuracy:.17g},{r.iterations},"
            f"{1 if r.converged else 0}"
        )
        if include_seconds:
            line += f",{r.seconds:.6f}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def rows_to_markdown(rows, include_seconds: bool) -> str:
    cols = ["loss", "kernel", "n_train", "n_test", "train acc", "test acc", "iters"]
    if include_seconds:
        cols.append("time (s)")
    out = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in rows:
        cells = [
            r.loss,
            f"{r.kernel} ({r.sigma:g})",
            str(r.n_train),
            str(r.n_test),
            f"{100 * r.train_accuracy:.1f}%",
            f"{100 * r.test_accuracy:.1f}%",
            str(r.iterations),
        ]
        if include_seconds:
            cells.append(f"{r.seconds:.2f}")
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"
