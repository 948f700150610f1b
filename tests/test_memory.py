"""Prediction runs in memory bounded by one block, not by the batch.

tracemalloc counts the bytes Python and numpy allocate, so these bounds are
deterministic; they are not timings.  The batch is 20 000 points of two
features and the model has 1000 training points, as in ``splitsvm predict``
on the benchmark's predict workload.
"""

import tracemalloc

import numpy as np
import pytest

from splitsvm.data import load_features_csv, save_labeled_features
from splitsvm.kernels import KernelSpec
from splitsvm.model import ModelMeta, TrainedModel, predict_labels

POINTS = 20000
CENTRES = 1000
MB = 2**20


def traced_peak(fn, *args):
    """(fn(*args), the peak of the bytes traced while it ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    rng = np.random.default_rng(18)
    points = rng.uniform(-10.0, 10.0, (POINTS, 2))
    path = tmp_path_factory.mktemp("batch") / "points.csv"
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in points.tolist()))
    model = TrainedModel(KernelSpec("gaussian", 1.0), 0.1, rng.uniform(-10.0, 10.0, (CENTRES, 2)),
                         rng.normal(size=CENTRES), ModelMeta("pl2", 1.0, True, 0.0, 0.0))
    return str(path), points, model


def test_reading_the_batch_peaks_below_four_times_its_array(batch):
    path, points, _ = batch
    feats, peak = traced_peak(load_features_csv, path)
    np.testing.assert_array_equal(feats, points)
    assert peak < 4 * feats.nbytes, peak


def test_labelling_the_batch_peaks_below_2_mb(batch):
    _, points, model = batch
    labels, peak = traced_peak(predict_labels, model, points)
    assert labels.shape == (POINTS,)
    assert peak < 2 * MB, peak


def test_writing_the_batch_peaks_below_1_mb(batch, tmp_path):
    _, points, _ = batch
    labels = np.where(points[:, 0] > 0.0, 1.0, -1.0)
    _, peak = traced_peak(save_labeled_features, points, labels, str(tmp_path / "out.csv"))
    assert (tmp_path / "out.csv").stat().st_size > POINTS * 10
    assert peak < MB, peak
