import dataclasses
import inspect
import os
import re

import pytest

from splitsvm._io import check_output_paths, write_text_atomic
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
    # The error names the destination, not the temporary file.
    path = str(tmp_path / "no" / "dir" / "f.txt")
    with pytest.raises(FileNotFoundError, match=re.escape(repr(path))):
        write_text_atomic(path, "x")


def test_write_text_atomic_onto_a_directory_names_it_and_cleans_up(tmp_path):
    (tmp_path / "d").mkdir()
    path = str(tmp_path / "d")
    with pytest.raises(IsADirectoryError, match=re.escape(f"Is a directory: {path!r}") + "$"):
        write_text_atomic(path, "x")
    assert os.listdir(tmp_path) == ["d"]


@pytest.mark.parametrize("name, error", [
    ("no/f.txt", FileNotFoundError),
    ("no/", FileNotFoundError),
    ("", FileNotFoundError),
    ("d", IsADirectoryError),
    ("d/", IsADirectoryError),
])
def test_check_output_paths_names_a_path_that_cannot_be_written(tmp_path, monkeypatch,
                                                                name, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    check_output_paths("f.txt", "d/f.txt", str(tmp_path / "f.txt"))
    with pytest.raises(error, match=re.escape(repr(name)) + "$"):
        check_output_paths("f.txt", name)
    assert os.listdir(tmp_path) == ["d"]


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
    import splitsvm.data
    import splitsvm.experiments
    import splitsvm.kernels
    import splitsvm.losses
    import splitsvm.model

    modules = (splitsvm, splitsvm.admm, splitsvm.data, splitsvm.kernels, splitsvm.losses,
               splitsvm.model)
    for mod in modules:
        for name in (
            "prox", "ProxParams", "prox_objective", "loss_value", "eval_kernel",
            "classify", "decision_value", "rkhs_norm_sq", "rkhs_step_norm",
            "lagrangian", "objective_value", "JITTER", "Piece",
            "prox_vector_enumerated", "_piece_values", "_candidate_margins",
            "standardize",
        ):
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
    # The rho verdict and the descent monitor live in splitsvm.model.
    for name in ("RhoCondition", "DESCENT_SLACK"):
        assert not hasattr(splitsvm.admm, name), name
    for name in ("noise_floor", "leading_eigenvalue", "min_eigenvalue", "eigh"):
        assert not hasattr(splitsvm.kernels, name), name
    # convergence_trace returns (run, certificate); traces are written from to_csv.
    assert not hasattr(splitsvm.experiments, "ConvergenceResult")
    assert not hasattr(splitsvm.admm.IterationTrace, "write_csv")
    assert not hasattr(splitsvm.admm, "write_text_atomic")
    assert "rho_check" not in inspect.signature(splitsvm.admm_run).parameters
    assert "A" not in inspect.signature(splitsvm.admm_step).parameters
    for attr in ("admissible_at_zero", "pieces", "breakpoints"):
        assert not hasattr(splitsvm.HINGE, attr), attr
    assert "jitter" not in inspect.signature(splitsvm.gram).parameters
    assert [f.name for f in dataclasses.fields(splitsvm.admm.AdmmRunResult)] == [
        "state", "trace", "status", "error",
    ]
    # The tables fix their iteration cap; only loss_kernel_table's start count is set.
    assert list(inspect.signature(splitsvm.experiments.loss_kernel_table).parameters) == [
        "seed", "starts",
    ]
    assert list(inspect.signature(splitsvm.experiments.size_scaling_table).parameters) == [
        "seed", "sizes",
    ]
