"""Kernel functions and kernel (Gram) matrices.

Two strictly positive definite translation-invariant kernels are provided:

* ``gaussian``:  k(x, x') = exp(-sigma * ||x - x'||_2^2)
* ``matern1``:   k(x, x') = exp(-sigma * ||x - x'||_1)

Both take values in (0, 1] and equal 1 exactly when x = x'.  The kernel
matrix of distinct points is symmetric positive definite; repeated points
make it singular, so they are rejected.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import DuplicatePointError, InputError

KERNEL_FAMILIES = ("gaussian", "matern1")

_METRIC = {"gaussian": "sqeuclidean", "matern1": "cityblock"}


@dataclass(frozen=True)
class KernelSpec:
    family: str
    sigma: float

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise InputError(
                f"unknown kernel family {self.family!r}; choose from {KERNEL_FAMILIES}"
            )
        if not (self.sigma > 0 and np.isfinite(self.sigma)):
            raise InputError(f"kernel width sigma must be positive, got {self.sigma}")


@dataclass
class GramMatrix:
    """Dense symmetric kernel matrix.

    The entries are stored C-contiguous, so ``entries.T`` is the Fortran
    view that BLAS reads without a copy.
    """

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.ascontiguousarray(self.entries, dtype=float)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise InputError("kernel matrix must be square")
        if self.entries.size == 0:
            raise InputError("kernel matrix must be nonempty")
        if not np.all(np.isfinite(self.entries)):
            raise InputError("kernel matrix entries must be finite")

    @property
    def size(self) -> int:
        return self.entries.shape[0]


#: The triangle that every symmetric BLAS and LAPACK call reads, of A and of
#: the inverse of 2 lam I + rho A (admm.a_dot, c_inverse, c_solve,
#: model.leading_eigenvalue and shifted_cholesky): False, the upper one in
#: the Fortran view entries.T.
LOWER = False


def cross_gram(spec: KernelSpec, points, others) -> np.ndarray:
    """Rectangular kernel matrix k(points_i, others_j)."""
    pts = np.asarray(points, dtype=float)
    oth = np.asarray(others, dtype=float)
    if pts.ndim != 2 or oth.ndim != 2 or pts.shape[1] != oth.shape[1]:
        raise InputError("point sets must be 2-D with matching feature dimension")
    return _kernel_of_distances(spec, cdist(pts, oth, metric=_METRIC[spec.family]))


def _kernel_of_distances(spec: KernelSpec, dist: np.ndarray) -> np.ndarray:
    """exp(-sigma * dist), computed in the distance buffer itself."""
    dist *= -spec.sigma
    return np.exp(dist, out=dist)


def gram(spec: KernelSpec, points) -> GramMatrix:
    """Kernel matrix of a point set.

    Each unordered pair is evaluated once and mirrored, so the result is
    exactly symmetric with a unit diagonal.  Identical points are rejected
    with an error naming the offending pair.
    """
    pts = np.ascontiguousarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InputError("points must be a nonempty 2-D array")
    if not np.all(np.isfinite(pts)):
        raise InputError("points must be finite")
    cond = pdist(pts, metric=_METRIC[spec.family])
    zero = np.flatnonzero(cond == 0.0)
    if zero.size:
        iu, ju = np.triu_indices(pts.shape[0], k=1)
        i, j = int(iu[zero[0]]), int(ju[zero[0]])
        raise DuplicatePointError(
            f"points {i} and {j} are identical; the kernel matrix would be singular"
        )
    # The kernel of each pair, then the mirror; exp(-sigma * 0) is 1.
    entries = squareform(_kernel_of_distances(spec, cond))
    np.fill_diagonal(entries, 1.0)
    return GramMatrix(entries)


def shifted_cholesky(A: GramMatrix, scale: float, shift: float):
    """LAPACK potrf of scale A + shift I, in place on a Fortran-ordered copy,
    reading the triangle LOWER names: (factor, info), info the order of the
    first leading minor that is not positive definite, else 0."""
    b = (scale * A.entries).T
    b[np.diag_indices_from(b)] += shift
    return dpotrf(b, lower=LOWER, clean=0, overwrite_a=1)
