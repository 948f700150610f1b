"""Datasets: synthetic two-square sampling, CSV files, standardization.

The synthetic benchmark draws the positive class uniformly from the square
[-3, 10]^2 and the negative class uniformly from [-10, 3]^2.  The squares
overlap on [-3, 3]^2, so the classes are not separable and accuracies there
are capped by the overlap mass.

CSV layout: one row per point, features first, label last.  Labels are
written "1" / "-1"; accepted spellings on input are "1", "+1", "-1".  An
optional header row is auto-detected (any non-numeric cell).
"""

import csv
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._io import float_cells, open_text, write_text_atomic
from .errors import InputError, ParseError, check_integers, check_labels

_LABELS = {"1": 1.0, "+1": 1.0, "-1": -1.0}


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.X.shape[0] < 1:
            raise InputError("features must form a nonempty 2-D array")
        if self.y.shape != (self.X.shape[0],):
            raise InputError("labels must be a vector matching the number of rows")
        if not np.all(np.isfinite(self.X)):
            raise InputError("features must be finite")
        check_labels(self.y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def generate_synthetic(n_train: int, n_test: int, seed: int):
    """Balanced train/test draws from the two overlapping squares."""
    check_integers(n_train=n_train, n_test=n_test, seed=seed)
    for name, count in (("n_train", n_train), ("n_test", n_test)):
        if count < 2 or count % 2 != 0:
            raise InputError(f"{name} must be an even count of at least 2, got {count}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)

    def draw(count):
        pos = rng.uniform(-3.0, 10.0, size=(count // 2, 2))
        neg = rng.uniform(-10.0, 3.0, size=(count // 2, 2))
        x = np.vstack([pos, neg])
        y = np.concatenate([np.ones(count // 2), -np.ones(count // 2)])
        return Dataset(x, y)

    return draw(n_train), draw(n_test)


def _data_cells(path, reader, rows, width, labeled, faults):
    """The cells of the rows, with each label as its number, in one pass.

    A row's line is the reader's line count after it, the line it ends on,
    since a quoted cell may span lines.  A ragged row raises ParseError.
    The first row with a label that is not one, else a cell that is not a
    number, else a feature that is not finite, puts its message in
    ``faults``; past it the rows are only checked for their width.
    """
    for row in rows:
        if len(row) != width:
            raise ParseError(f"{path}: line {reader.line_num} has {len(row)} fields, "
                             f"expected {width}")
        if faults:
            continue
        if labeled:
            raw_label = row[-1].strip()
            if raw_label not in _LABELS:
                faults.append(f"line {reader.line_num}: label must be '1', '+1' or '-1', "
                              f"got {raw_label!r}")
                continue
            row = row[:-1]
        finite = True
        try:
            for cell in row:
                x = float(cell)
                if x - x:  # NaN for an infinite or NaN x, else 0
                    finite = False
                yield x
        except ValueError:
            faults.append(f"line {reader.line_num}: field {row.index(cell) + 1} "
                          f"is not a number: {cell!r}")
            continue
        if not finite:
            faults.append(f"line {reader.line_num}: features must be finite")
        if labeled:
            yield _LABELS[raw_label]


def _read_cells(path, labeled):
    """The data rows of a CSV file as one (rows, width) array, in one pass.

    Each cell goes through float() as csv.reader yields it, with no list of
    rows in between; a blank line reads as an empty row and is skipped, and
    a first row with a cell that is not a number is a header.  A label cell
    reads as +1 or -1.  ParseError names the first fault, from that one
    pass, so a pipe reads as a file does: an empty file or one with only a
    header, then a ragged row anywhere, then too few columns for a label
    when ``labeled``, then the first bad row (see _data_cells).
    """
    with open_text(path) as fh:
        reader = csv.reader(fh)
        rows = filter(None, reader)
        first = next(rows, None)
        if first is None:
            raise ParseError(f"{path}: file contains no data")
        if float_cells([first], 1, len(first)) is None:  # header
            first = next(rows, None)
            if first is None:
                raise ParseError(f"{path}: file contains a header but no data")
        width, faults = len(first), []
        cells = np.fromiter(_data_cells(path, reader, chain([first], rows), width, labeled,
                                        faults), float)
    if width < 1 + labeled:
        raise ParseError(f"{path}: need at least one feature column and a label column")
    if faults:
        raise ParseError(f"{path}: {faults[0]}")
    return cells.reshape(-1, width)


def load_csv(path: str) -> Dataset:
    """Read a labeled dataset (features..., label) in one pass over the file."""
    cells = _read_cells(path, labeled=True)
    return Dataset(cells[:, :-1].copy(), cells[:, -1].copy())


def load_features_csv(path: str) -> np.ndarray:
    """Read an unlabeled feature matrix (used by prediction) in one pass over
    the file."""
    return _read_cells(path, labeled=False)


#: Cells of a labeled CSV that are formatted into text and written at a time.
WRITE_CELLS = 2**12


def _labeled_text(features, labels):
    """One line per row: the features with 17 significant digits, then the
    label as "1" when it is above 0 and "-1" otherwise."""
    row = ",".join(["%.17g"] * features.shape[1] + ["%s"])
    signs = ["1" if p else "-1" for p in (labels > 0).tolist()]
    lines = [row % (*x, s) for x, s in zip(features.tolist(), signs)]
    return "\n".join(lines) + "\n"


def _labeled_chunks(features, labels):
    """_labeled_text of WRITE_CELLS cells' worth of rows at a time.  An empty
    batch is one empty chunk, so its file is the single line end "\n"."""
    labels = np.asarray(labels)
    if labels.shape != features.shape[:1]:
        raise InputError(f"{labels.shape} labels do not match {features.shape[0]} rows")
    step = max(1, WRITE_CELLS // (features.shape[1] + 1))
    return (_labeled_text(features[i:i + step], labels[i:i + step])
            for i in range(0, max(len(features), 1), step))


def save_csv(ds: Dataset, path: str) -> None:
    write_text_atomic(path, _labeled_chunks(ds.X, ds.y))


def save_labeled_features(features, labels, path: str) -> None:
    write_text_atomic(path, _labeled_chunks(np.asarray(features, dtype=float), labels))


#: Features with standard deviation below this are centered but not scaled.
SCALE_FLOOR = 1e-12


@dataclass(frozen=True)
class FeatureScaling:
    """Feature centering and scaling.  Test or prediction data must always be
    transformed with the training statistics, never its own."""

    means: np.ndarray
    scales: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "FeatureScaling":
        """The means and standard deviations of the columns of ``X``, with
        1.0 for a deviation below SCALE_FLOOR (centered, not scaled)."""
        stds = X.std(axis=0)
        return cls(X.mean(axis=0), np.where(stds < SCALE_FLOOR, 1.0, stds))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.means) / self.scales
