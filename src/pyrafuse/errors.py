"""Exception types shared across the package.

The CLI maps these onto exit codes: parameter/usage problems exit 1,
data and file-format problems exit 2.
"""

from __future__ import annotations

from contextlib import contextmanager


class PyrafuseError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(PyrafuseError, ValueError):
    """A parameter value is outside its documented domain."""


class SizeError(PyrafuseError, ValueError):
    """An input grid is too small (or a target too small) for the operation."""


class ShapeError(PyrafuseError, ValueError):
    """Grids that must share dimensions do not."""


class BoundsError(PyrafuseError, IndexError):
    """An index lies outside the valid range of its axis."""


class ConfigError(PyrafuseError, ValueError):
    """The requested combination of inputs and options cannot work."""


class FormatError(PyrafuseError, ValueError):
    """A file does not match its declared format.

    ``offset``, when known, is the byte offset of the first inconsistency.
    """

    def __init__(self, message: str, *, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnsupportedFormatError(FormatError):
    """The file uses a format feature outside the supported subset."""


@contextmanager
def _naming(prefix: str, errors=PyrafuseError):
    """Name the file or stage of an ``errors`` error escaping the block.

    The error's message becomes ``prefix: message`` and the same object is
    re-raised, so its type, any ``offset`` and its traceback stay as they
    were. Wrap the block where a file or a stage enters; nested blocks read
    ``outer: inner: message``.
    """
    try:
        yield
    except errors as exc:
        exc.args = (f"{prefix}: {exc}",)
        raise
