"""Independent reference arithmetic for the benchmark's correctness checks.

Written from the problem statement, not from the package: the kernels
k(x, x') = exp(-sigma ||x - x'||_2^2) ("gaussian") and
exp(-sigma ||x - x'||_1) ("matern1"), the four margin losses as functions of
z = y t, the training objective (1/N) sum_i L(y_i, (A c)_i) + lam c^T A c,
and the classifier sign(sum_i c_i k(x_i, x)) with ties going to +1.
Nothing here imports splitsvm.
"""

import numpy as np

#: Rows per block when forming kernel matrices, to keep memory small.
BLOCK = 2000


def kernel_block(family, sigma, x, y):
    """k(x_i, y_j) for two point sets, from per-feature differences."""
    dist = np.zeros((x.shape[0], y.shape[0]))
    for k in range(x.shape[1]):
        diff = x[:, k, None] - y[None, :, k]
        dist += diff * diff if family == "gaussian" else np.abs(diff)
    return np.exp(-sigma * dist)


def margin_loss(name, z):
    z = np.asarray(z, dtype=float)
    if name == "hinge":
        return np.where(z < 1.0, 1.0 - z, 0.0)
    if name == "pl2":
        return np.where(z < 0.0, 2.0 - z, np.where(z < 1.0, 2.0 - 2.0 * z, 0.0))
    if name == "tlog":
        return np.where(z < 1.0, np.log(2.0 - np.minimum(z, 1.0)), 0.0)
    if name == "ramp":
        return np.where(z < 0.0, 1.0, np.where(z < 1.0, 1.0 - z, 0.0))
    raise ValueError(f"unknown loss {name!r}")


def objective(loss, family, sigma, lam, x, y, c):
    """Training objective of coefficients c on labelled points (x, y)."""
    ac = kernel_block(family, sigma, x, x) @ c
    return float(np.mean(margin_loss(loss, y * ac)) + lam * (c @ ac))


def decision_values(family, sigma, centers, coeffs, points):
    """s(x) = sum_i c_i k(x_i, x) and, per point, sum_i |c_i k(x_i, x)|.

    The second array bounds the rounding error of the first, so a caller can
    tell a sign from rounding noise.
    """
    dv = np.empty(points.shape[0])
    scale = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], BLOCK):
        k = kernel_block(family, sigma, points[lo:lo + BLOCK], centers)
        dv[lo:lo + BLOCK] = k @ coeffs
        scale[lo:lo + BLOCK] = k @ np.abs(coeffs)
    return dv, scale


def labels(dv):
    return np.where(dv >= 0.0, 1.0, -1.0)


def bayes_accuracy():
    """Bayes accuracy of the two-squares problem.

    Positives are uniform on [-3, 10]^2 and negatives on [-10, 3]^2, classes
    equally likely.  The densities are equal on the overlap [-3, 3]^2, whose
    mass is 36/169 under either class; half of it is misclassified at best.
    """
    return 1.0 - 18.0 / 169.0


def accuracy_slack(n):
    """Five binomial standard deviations at the Bayes accuracy for n points."""
    p = bayes_accuracy()
    return 5.0 * float(np.sqrt(p * (1.0 - p) / n))


def read_model(path):
    """Kernel, lambda, objective, centres and coefficients of a model file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = {}
    for pos, line in enumerate(lines):
        key, _, rest = line.partition(" ")
        if key == "data":
            n, d = (int(v) for v in rest.split())
            rows = np.array([[float(v) for v in row.split()] for row in lines[pos + 1:pos + 1 + n]])
            if rows.shape != (n, d + 1):
                raise ValueError(f"{path}: expected {n} rows of {d + 1} numbers")
            family, sigma = fields["kernel"].split()
            return {
                "family": family,
                "sigma": float(sigma),
                "lam": float(fields["lambda"]),
                "loss": fields["loss"],
                "objective": float(fields["objective"]),
                "centers": rows[:, :d],
                "coeffs": rows[:, d],
            }
        fields[key] = rest
    raise ValueError(f"{path}: no data block")
