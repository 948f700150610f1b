import dataclasses
import inspect
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
        "AdmmConfig", "admm_run", "admm_step", "train_multistart", "gram",
        "min_eigenvalue", "rho_condition", "prox_vector", "get_loss",
        "generate_synthetic", "load_model", "save_model", "decision_values",
        "predict_labels", "stationarity_residual",
    ):
        assert hasattr(splitsvm, name), name
    assert splitsvm.__version__


def test_removed_api_stays_removed():
    import splitsvm
    import splitsvm.admm
    import splitsvm.kernels
    import splitsvm.losses
    import splitsvm.model

    for mod in (splitsvm, splitsvm.admm, splitsvm.kernels, splitsvm.losses, splitsvm.model):
        for name in (
            "prox", "ProxParams", "prox_objective", "loss_value", "eval_kernel",
            "classify", "decision_value", "rkhs_norm_sq", "rkhs_step_norm",
            "lagrangian", "objective_value", "JITTER", "Piece",
            "prox_vector_enumerated", "_piece_values", "_candidate_margins",
        ):
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
    for attr in ("admissible_at_zero", "pieces", "breakpoints"):
        assert not hasattr(splitsvm.HINGE, attr), attr
    assert "jitter" not in inspect.signature(splitsvm.gram).parameters
    assert [f.name for f in dataclasses.fields(splitsvm.admm.AdmmRunResult)] == [
        "state", "trace", "status", "error",
    ]
