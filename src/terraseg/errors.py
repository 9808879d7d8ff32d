"""Exception hierarchy shared across the package, and its file I/O.

Every error carries a machine-parsable ``category`` that the CLI maps to an
exit code: "config" -> 2, "data" -> 3, anything else -> 4. The package reads
files through `read_input` and `read_json` and writes them, whole or not at
all, through `write_output`, so a file it cannot read, parse or write is one
of these errors naming it. `to_json` is the one form of every JSON output.
"""

import contextlib
import json
import os


class TerrasegError(Exception):
    """Base class for all package errors."""

    category = "runtime"

    def __reduce__(self):  # whole, without a subclass's own __init__ arguments
        return type(self).__new__, (type(self), *self.args), self.__dict__


class ShapeError(TerrasegError):
    """An array or tensor has extents incompatible with the operation."""


class ParameterError(TerrasegError):
    """An argument value is outside its documented domain."""


class GraphError(TerrasegError):
    """A network graph is malformed (cycle, dangling input, shape clash)."""


class ConfigError(TerrasegError):
    """The pipeline configuration is missing, malformed, or mistyped."""

    category = "config"


class DataError(TerrasegError):
    """Input data violates a precondition (bad labels, missing tile, ...)."""

    category = "data"


class WktParseError(DataError):
    """WKT text could not be parsed; ``offset`` is a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class StoreConflictError(DataError):
    """A store node already exists with an incompatible kind or metadata."""


class StoreNotFoundError(DataError):
    """A store group, array, or chunk region does not exist."""


class IntegrityError(DataError):
    """Stored bytes fail their checksum."""


class StoreLockError(DataError):
    """Another write or remove holds a store array's lock, the flock on its
    ``.array.json``; the message names the array's directory."""


class CheckpointFormatError(DataError):
    """A checkpoint file is truncated or corrupt; ``offset`` points at the
    first byte that failed to parse or verify."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EmptyLossError(DataError):
    """Every pixel of a loss target is ignored."""


class UndefinedMetricError(DataError):
    """A requested metric has no defined value on the given counts."""


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit code contract."""
    if isinstance(exc, TerrasegError):
        return {"config": 2, "data": 3}.get(exc.category, 4)
    return 4


def read_input(path, what: str, error: type[TerrasegError] = DataError) -> bytes:
    """The bytes of input file ``path``; an OSError (missing, a directory,
    unreadable) becomes one ``error`` naming ``what`` and the path."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        why = "not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        raise error(f"{what} {path}: {why}") from None


def read_json(path, what: str, error: type[TerrasegError] = DataError):
    """The JSON document in input file ``path``, read as `read_input` reads
    it; one that does not parse raises one ``error`` naming the path."""
    raw = read_input(path, what, error)
    try:
        return json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or bytes that are no Unicode
        raise error(f"{what} {path}: not valid JSON: {exc}") from None


def to_json(obj) -> str:
    """``obj`` as JSON text: sorted keys, 2-space indent, a final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_output(path, data: bytes | str, what: str) -> None:
    """Write ``data`` (a str as UTF-8) to ``path`` whole or not at all:
    through a ``tmp-<name>`` sibling and one ``os.replace``. An OSError (the
    path is a directory, the disk is full) removes the sibling and becomes
    one DataError naming ``what`` and the path."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, "tmp-" + name)
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise DataError(f"{what} {path}: {exc.strerror or exc}") from None
