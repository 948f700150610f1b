"""Exception types shared across the package."""

import numbers

import numpy as np


class SplitSvmError(Exception):
    """Base class for every error raised by this package."""


class InputError(SplitSvmError, ValueError):
    """Invalid argument values or mismatched dimensions."""


class DuplicatePointError(InputError):
    """Two identical inputs would make the kernel matrix singular."""


class DefinitenessError(SplitSvmError):
    """A matrix required to be symmetric positive definite is not."""


class ParseError(SplitSvmError):
    """A data or model file could not be parsed."""


class FormatVersionError(ParseError):
    """A model file declares an unsupported format version."""


class TrainingError(SplitSvmError):
    """No training start produced a usable solution."""


def check_integers(**values) -> None:
    """InputError naming the first of ``values`` that is not an integer."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise InputError(f"{name} must be an integer, got {value!r}")


def check_labels(labels) -> None:
    """InputError unless every entry of the array ``labels`` is +1 or -1."""
    if not np.all(np.abs(labels) == 1.0):
        raise InputError("labels must be +1 or -1")
