"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError (and its
subclasses) -> 2, anything else -> 3.  ``read_input`` reads every input
file, so each loader refuses an unreadable one with its own error.
"""

from __future__ import annotations

import os


class TweetsentError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(TweetsentError):
    """Invalid run configuration (bad flag values, missing referenced files)."""


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
