"""Text-file helpers shared by the data and model readers and writers.

Output files are written to a temporary file in the destination directory and
renamed into place, so a failed or interrupted write never leaves a partial
file behind; a writer may hand over its text a chunk at a time.  Input files
must be UTF-8 text.  Numeric cells are converted by ``float()``, so a reader
accepts exactly the spellings Python's ``float`` does.
"""

import os
import tempfile
from collections.abc import Iterable
from contextlib import contextmanager, suppress
from itertools import chain

import numpy as np

from .errors import ParseError


@contextmanager
def open_text(path: str):
    """``path`` opened to read UTF-8 text with its line ends as they are,
    past a leading byte-order mark, found by peeking so a pipe reads too;
    ParseError, with no offset (decoding is chunked), when it is not UTF-8."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            if fh.buffer.peek(3).startswith(b"\xef\xbb\xbf"):
                fh.read(1)
            yield fh
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text") from None


def write_text_atomic(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or an iterable of string chunks, to ``path``."""
    if isinstance(text, str):
        text = (text,)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def float_cells(rows, count, width):
    """float() of every cell of ``count`` rows of ``width`` cells each, as
    one (count, width) array; None when a cell is not a number."""
    try:
        flat = np.fromiter(map(float, chain.from_iterable(rows)), float, count * width)
    except ValueError:
        return None
    return flat.reshape(count, width)
