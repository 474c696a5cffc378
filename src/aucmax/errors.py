"""Exception types shared across the package, and the text-file reader that
every file format uses.

The CLI maps ValidationError to exit status 1 and NumericalError to exit
status 2; everything else is a bug.
"""


class AucmaxError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AucmaxError):
    """Bad inputs: shape mismatches, malformed files, invalid configs."""


class NumericalError(AucmaxError):
    """A computation produced a non-finite quantity and the run must abort."""


def read_text(path, encoding: str) -> str:
    """The text of the file at ``path``; a byte that does not decode as
    ``encoding`` is a ValidationError naming the path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not {encoding} text: byte {raw[exc.start]:#04x} "
                              f"at offset {exc.start}") from exc
