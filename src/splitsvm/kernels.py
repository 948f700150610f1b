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
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import DefinitenessError, DuplicatePointError, InputError

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
    return GramMatrix(_kernel_of_distances(spec, squareform(cond)))


def min_eigenvalue(A: GramMatrix) -> float:
    """Smallest eigenvalue of a symmetric positive definite matrix.

    One dense symmetric eigenvalue computation (LAPACK via eigvalsh).
    Raises DefinitenessError when the smallest eigenvalue is not positive,
    or falls at or below the numerical noise floor size * eps * max|A|, in
    which case A cannot be certified positive definite at working precision.
    """
    m = A.entries
    floor = A.size * np.finfo(float).eps * float(np.abs(m).max())
    w = float(np.linalg.eigvalsh(m)[0])
    if not w > 0:
        raise DefinitenessError(f"matrix is not positive definite: smallest eigenvalue {w:.3e}")
    if not w > floor:
        raise DefinitenessError(
            f"smallest eigenvalue {w:.3e} is at or below the numerical noise "
            f"floor {floor:.3e}; matrix is numerically singular"
        )
    return w
