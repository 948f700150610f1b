import os

import pytest

from splitsvm._io import write_text_atomic
from splitsvm.errors import (
    DefinitenessError,
    DuplicatePointError,
    FormatVersionError,
    InputError,
    ParseError,
    SplitSvmError,
    TrainingError,
)


def test_write_text_atomic_creates_file(tmp_path):
    path = tmp_path / "out.txt"
    write_text_atomic(str(path), "hello\n")
    assert path.read_text() == "hello\n"


def test_write_text_atomic_overwrites(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    write_text_atomic(str(path), "new\n")
    assert path.read_text() == "new\n"


def test_write_text_atomic_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    write_text_atomic(str(path), "x\n")
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_text_atomic_missing_directory(tmp_path):
    with pytest.raises(OSError):
        write_text_atomic(str(tmp_path / "no" / "dir" / "f.txt"), "x")


def test_error_hierarchy():
    assert issubclass(InputError, SplitSvmError)
    assert issubclass(InputError, ValueError)
    assert issubclass(DuplicatePointError, InputError)
    assert issubclass(DefinitenessError, SplitSvmError)
    assert issubclass(ParseError, SplitSvmError)
    assert issubclass(FormatVersionError, ParseError)
    assert issubclass(TrainingError, SplitSvmError)


def test_public_api_importable():
    import splitsvm

    for name in (
        "AdmmConfig", "admm_run", "train_multistart", "gram", "min_eigenvalue",
        "prox", "prox_vector", "get_loss", "generate_synthetic",
        "load_model", "save_model", "decision_values", "stationarity_residual",
    ):
        assert hasattr(splitsvm, name), name
    assert splitsvm.__version__
