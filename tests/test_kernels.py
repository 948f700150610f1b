import math

import numpy as np
import pytest

from _oracles import eval_kernel
from splitsvm.errors import DefinitenessError, DuplicatePointError, InputError
from splitsvm.kernels import (
    KERNEL_FAMILIES,
    LOWER,
    GramMatrix,
    KernelSpec,
    cross_gram,
    gram,
    shifted_cholesky,
)
from splitsvm.model import descent_minor, leading_eigenvalue, min_eigenvalue, noise_floor


def test_kernel_families():
    assert KERNEL_FAMILIES == ("gaussian", "matern1")


@pytest.mark.parametrize(
    "family,sigma,x,xp,expected",
    [
        ("gaussian", 1.0, [0.0, 0.0], [1.0, 0.0], math.exp(-1.0)),
        ("gaussian", 1.0, [0.0, 0.0], [2.0, 0.0], math.exp(-4.0)),
        ("gaussian", 2.0, [0.0], [1.0], math.exp(-2.0)),
        ("gaussian", 1.0, [1.0, 2.0], [1.0, 2.0], 1.0),
        ("matern1", 1.0, [0.0, 0.0], [1.0, 1.0], math.exp(-2.0)),
        ("matern1", 1.0, [0.0], [-3.0], math.exp(-3.0)),
        ("matern1", 0.5, [1.0, 1.0], [2.0, 0.0], math.exp(-1.0)),
    ],
)
def test_eval_kernel_values(family, sigma, x, xp, expected):
    # Both the program's kernel and the oracle the other tests compare with.
    spec = KernelSpec(family, sigma)
    assert cross_gram(spec, [x], [xp])[0, 0] == pytest.approx(expected, rel=1e-15)
    assert eval_kernel(spec, x, xp) == pytest.approx(expected, rel=1e-15)


def test_eval_kernel_symmetric_in_arguments(rng):
    for family in KERNEL_FAMILIES:
        spec = KernelSpec(family, 0.7)
        for _ in range(20):
            x, xp = rng.normal(size=(2, 4))
            assert cross_gram(spec, [x], [xp])[0, 0] == cross_gram(spec, [xp], [x])[0, 0]


@pytest.mark.parametrize("family", ["rbf", "", "laplace"])
def test_kernel_spec_rejects_unknown_family(family):
    with pytest.raises(InputError):
        KernelSpec(family, 1.0)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
def test_kernel_spec_rejects_bad_sigma(sigma):
    with pytest.raises(InputError):
        KernelSpec("gaussian", sigma)


def test_gram_matrix_must_be_square():
    with pytest.raises(InputError):
        GramMatrix(np.ones((2, 3)))
    with pytest.raises(InputError):
        GramMatrix(np.ones(4))
    with pytest.raises(InputError, match="nonempty"):
        GramMatrix(np.zeros((0, 0)))
    assert GramMatrix(np.eye(3)).size == 3


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_gram_matrix_rejects_non_finite_entries(value):
    entries = np.eye(3)
    entries[0, 1] = entries[1, 0] = value
    with pytest.raises(InputError, match="finite"):
        GramMatrix(entries)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_gram_matches_pairwise_kernel(family, rng):
    spec = KernelSpec(family, 1.3)
    pts = rng.uniform(-2.0, 2.0, size=(12, 3))
    A = gram(spec, pts).entries
    for i in range(12):
        for j in range(12):
            assert A[i, j] == pytest.approx(
                eval_kernel(spec, pts[i], pts[j]), rel=1e-14, abs=1e-15
            )


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_gram_exactly_symmetric_unit_diagonal(family, rng):
    spec = KernelSpec(family, 2.0)
    pts = rng.normal(size=(40, 5))
    A = gram(spec, pts).entries
    np.testing.assert_array_equal(A, A.T)
    np.testing.assert_array_equal(np.diag(A), np.ones(40))


def test_gram_single_point():
    A = gram(KernelSpec("gaussian", 1.0), np.array([[3.0, 4.0]]))
    np.testing.assert_array_equal(A.entries, np.ones((1, 1)))


def test_gram_positive_definite_for_distinct_points(rng):
    for family in KERNEL_FAMILIES:
        pts = rng.uniform(-5.0, 5.0, size=(30, 2))
        A = gram(KernelSpec(family, 1.0), pts)
        assert np.linalg.eigvalsh(A.entries)[0] > 0.0


def test_cross_gram_consistent_with_gram(rng):
    pts = rng.normal(size=(15, 2))
    for family in KERNEL_FAMILIES:
        spec = KernelSpec(family, 0.8)
        full = gram(spec, pts).entries
        rect = cross_gram(spec, pts, pts)
        assert rect.shape == (15, 15)
        np.testing.assert_allclose(rect, full, rtol=1e-12, atol=1e-15)


def test_cross_gram_rectangular(rng):
    spec = KernelSpec("matern1", 1.0)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(7, 3))
    rect = cross_gram(spec, a, b)
    assert rect.shape == (4, 7)
    assert rect[2, 5] == pytest.approx(eval_kernel(spec, a[2], b[5]), rel=1e-14)


def test_cross_gram_validates_dimensions():
    spec = KernelSpec("gaussian", 1.0)
    with pytest.raises(InputError):
        cross_gram(spec, np.ones((2, 2)), np.ones((2, 3)))
    with pytest.raises(InputError):
        cross_gram(spec, np.ones(4), np.ones((2, 4)))


def test_gram_rejects_bad_points():
    spec = KernelSpec("gaussian", 1.0)
    with pytest.raises(InputError):
        gram(spec, np.ones(3))
    with pytest.raises(InputError):
        gram(spec, np.empty((0, 2)))
    with pytest.raises(InputError):
        gram(spec, np.array([[1.0, np.nan]]))


def test_gram_rejects_duplicate_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
    with pytest.raises(DuplicatePointError, match=r"points 0 and 2"):
        gram(KernelSpec("gaussian", 1.0), pts)



# ---------------------------------------------------------------------------
# smallest-eigenvalue estimation
# ---------------------------------------------------------------------------


def test_min_eigenvalue_identity():
    assert min_eigenvalue(GramMatrix(np.eye(5))) == pytest.approx(1.0, rel=1e-12)


def test_min_eigenvalue_well_separated_instance(separated_instance):
    _, _, A = separated_instance
    dense = np.linalg.eigvalsh(A.entries)[0]
    est = min_eigenvalue(A)
    assert est == pytest.approx(dense, rel=1e-8)
    assert est == pytest.approx(1.0, abs=0.05)


def test_min_eigenvalue_random_instance_matches_dense():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-3.0, 3.0, size=(25, 2))
    A = gram(KernelSpec("gaussian", 0.5), pts)
    dense = np.linalg.eigvalsh(A.entries)[0]
    est = min_eigenvalue(A)
    assert est == pytest.approx(dense, rel=1e-6)


def test_min_eigenvalue_deterministic(separated_instance):
    _, _, A = separated_instance
    assert min_eigenvalue(A) == min_eigenvalue(A)


def test_min_eigenvalue_rejects_singular_all_ones():
    with pytest.raises(DefinitenessError, match="not positive definite"):
        min_eigenvalue(GramMatrix(np.ones((3, 3))))


def test_min_eigenvalue_noise_floor():
    with pytest.raises(DefinitenessError, match="numerically singular"):
        min_eigenvalue(GramMatrix(np.diag([1.0, 1e-17])))


def test_min_eigenvalue_near_duplicate_points_not_certified():
    pts = np.array([[0.0, 0.0], [1e-9, 0.0], [5.0, 5.0]])
    A = gram(KernelSpec("gaussian", 1.0), pts)
    assert A.entries[0, 1] == 1.0  # rounds to singular at working precision
    with pytest.raises(DefinitenessError):
        min_eigenvalue(A)


def test_min_eigenvalue_jittered_duplicates():
    # Two identical points with 1e-8 added to the diagonal: eigenvalues 1e-8
    # and 2 + 1e-8, just above the noise floor.
    shift = 1e-8
    A = GramMatrix(np.ones((2, 2)) + shift * np.eye(2))
    assert min_eigenvalue(A) == pytest.approx(shift, rel=1e-6)


def test_noise_floor_reads_the_largest_magnitude():
    A = GramMatrix(np.array([[1.0, -3.0], [-3.0, 2.0]]))
    assert noise_floor(A) == 2 * np.finfo(float).eps * 3.0


def test_leading_eigenvalue_of_each_minor(separated_instance):
    _, _, A = separated_instance
    for k in range(1, A.size + 1):
        dense = np.linalg.eigvalsh(A.entries[:k, :k])[0]
        assert leading_eigenvalue(A, k) == pytest.approx(dense, rel=1e-12)
    assert leading_eigenvalue(A, A.size) == min_eigenvalue(A)


@pytest.mark.parametrize("lam,rho,expected", [
    (0.05, 1.0, 0),   # 4 lam / rho = 0.2, below every entry
    (0.2, 1.0, 3),    # 0.8: the third entry, 0.5, fails first
    (0.5, 1.0, 1),    # 2: the first entry, 1.5, fails
    (0.5, 3.5, 3),    # 0.571
    (0.1, 4.0, 0),    # 0.1
])
def test_descent_minor_is_the_first_failing_minor(lam, rho, expected):
    # rho A - 4 lam I is positive definite exactly when rho d_i > 4 lam for
    # every diagonal entry d_i of a diagonal A.
    d = np.diag([1.5, 3.0, 0.5, 2.0])
    A = GramMatrix(d)
    assert descent_minor(A, lam, rho) == expected
    assert np.array_equal(A.entries, d)  # it factors a copy


def test_descent_minor_leaves_the_noise_floor_to_the_eigenvalue():
    # lambda_min = 4 lam / rho exactly: the shift by rho f makes the matrix
    # factor, and 1e-17 below it as well.
    for below in (0.0, 1e-17):
        A = GramMatrix(np.diag([1.0, 0.4 - below]))
        assert descent_minor(A, 0.1, 1.0) == 0
    assert descent_minor(GramMatrix(np.diag([1.0, 0.4 - 1e-6])), 0.1, 1.0) == 2


def test_shifted_cholesky_factors_a_scaled_and_shifted_copy(rng):
    # The factor U of scale A + shift I = U^T U sits in the upper triangle
    # of a Fortran-ordered array (LOWER is False); A itself is not touched.
    A = gram(KernelSpec("gaussian", 1.0), rng.uniform(-2.0, 2.0, size=(30, 2)))
    before = A.entries.copy()
    factor, info = shifted_cholesky(A, 3.0, 0.25)
    assert info == 0 and factor.flags.f_contiguous and LOWER is False
    dense = np.linalg.cholesky(3.0 * before + 0.25 * np.eye(30))
    np.testing.assert_allclose(np.triu(factor), dense.T, rtol=1e-12, atol=1e-12)
    assert np.array_equal(A.entries, before)
    # info is the order of the first leading minor that does not factor.
    assert shifted_cholesky(GramMatrix(np.diag([1.0, 2.0, 0.5])), 1.0, -0.75)[1] == 3

