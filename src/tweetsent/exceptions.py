"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError (and its
subclasses) -> 2, anything else -> 3.  ``read_input`` reads every input
file and ``parse_json`` parses every JSON one, so each loader refuses an
unreadable or unparsable one with its own error, ``located`` at the file;
``json_bytes`` gives the bytes of every model file and bundle JSON file.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterator
from contextlib import contextmanager


class TweetsentError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(TweetsentError):
    """Invalid command line or run configuration (bad flags or values, missing files)."""


class DataError(TweetsentError):
    """A supplied file or dataset violates its documented format or contract."""


class CorpusError(DataError):
    """Malformed tweet corpus file (bad record, missing field, duplicate id)."""


class LexiconError(DataError):
    """Malformed polarity lexicon file."""


class ModelFormatError(DataError):
    """Unreadable or incompatible serialized model file."""


class TrainingError(DataError):
    """Training preconditions violated (no documents, a label count that is
    not the row count, single-class SVM, divergence)."""


class HyperparameterError(ConfigError, ValueError):
    """A trainer hyperparameter outside the range its trainer's signature
    declares; ``check_hyperparameters`` raises it, when a config is loaded
    and again when a trainer is called."""


def read_input(
    path: str | os.PathLike,
    error: type[TweetsentError],
    what: str,
    *,
    newline: str | None = None,
) -> str:
    """The text of input file ``path``, read as UTF-8 with or without a
    byte-order mark, the one encoding rule for every input file.

    A file that is not UTF-8 raises ``error("<path> is not UTF-8 text ...")``;
    one that cannot be read (missing, a directory, no permission) raises
    ``error("cannot read <what> <path>: <reason>")``.  ``newline`` is
    :func:`open`'s: ``""`` keeps line endings, as the csv module needs.
    """
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from exc


def located(where: object, exc: TweetsentError) -> TweetsentError:
    """``exc`` again, of its own class, its message put after ``where``: the
    one way a location enters a message, as ``"<where>: <message>"``."""
    return type(exc)(f"{where}: {exc}")


@contextmanager
def errors_of(where: object) -> Iterator[None]:
    """Every package error raised inside, :func:`located` at ``where``."""
    try:
        yield
    except TweetsentError as exc:
        raise located(where, exc) from exc


# A JSON escape: a surrogate pair, a lone surrogate (group 1), or any other
# escaped character.
_ESCAPE_RE = re.compile(
    r"\\(?:u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
    r"|(u[dD][89a-fA-F][0-9a-fA-F]{2})|.)"
)


def parse_json(text: str, error: type[TweetsentError]):
    """The JSON value of ``text``; the caller says where the text is.

    Text that is not JSON, that nests too deeply for the parser's recursion
    limit, that holds an integer of more digits than Python converts
    (``sys.get_int_max_str_digits()``), or that escapes a lone surrogate
    in a string or key (``"\\ud83d"``, which RFC 7493 forbids and UTF-8
    cannot encode) raises ``error("not valid JSON (<reason>)")``.
    """
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"not valid JSON ({exc.msg} at char {exc.pos})") from exc
    except ValueError as exc:
        # Python's own advice after the ";" is for programs, not for inputs.
        reason = str(exc).partition(";")[0]
        raise error(f"not valid JSON ({reason})") from exc
    except RecursionError as exc:
        raise error("not valid JSON (nested too deeply)") from exc
    # Only a \u escape makes a surrogate: every backslash of valid JSON
    # starts an escape, so the scan pairs them as the parser did.
    if "\\u" in text:
        for match in _ESCAPE_RE.finditer(text):
            if match[1]:
                raise error(
                    f"not valid JSON (unpaired surrogate '\\{match[1]}' at char {match.start()})"
                )
    return value


def json_bytes(value) -> bytes:
    """``value`` as the bytes of a model file or a report bundle's JSON
    file: sorted keys, so a value always gives the same bytes, and no NaN
    or infinity, which strict JSON has no token for (``ValueError``)."""
    return (
        json.dumps(value, ensure_ascii=False, indent=1, sort_keys=True, allow_nan=False) + "\n"
    ).encode("utf-8")
