"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError (and its
subclasses) -> 2, anything else -> 3.
"""


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
    """Training preconditions violated (empty class, single-class SVM, divergence)."""


class HyperparameterError(ConfigError, ValueError):
    """A trainer hyperparameter outside its admissible range."""
