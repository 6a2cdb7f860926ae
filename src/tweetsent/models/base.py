"""The training-set container and the base class of every model.

Every trainer is a pure function of (data, hyperparameters, seed). Every
random number comes from :func:`seeded_rng`, PCG64 over the SeedSequence
of a key list; ensemble member m draws from ``seeded_rng(seed, m)`` so
adding members never perturbs earlier ones.

Ties are always broken by the canonical class order
Positive < Neutral < Negative.
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache
from types import MappingProxyType
from typing import Annotated, ClassVar, NamedTuple, get_args, get_origin

import numpy as np

from ..exceptions import DataError, HyperparameterError, TrainingError
from ..features import DocTermMatrix
from ..lexicon import SentimentLabel

__all__ = [
    "Model", "TrainingSet", "Prediction", "check_hyperparameters", "class_indices", "has_json_type",
    "hyperparameters", "seeded_rng", "validate_hyperparameters",
]


class Range(NamedTuple):
    """A hyperparameter's admissible values, given as ``typing.Annotated``
    metadata on its trainer parameter: ``wording`` completes "must be ...",
    and ``test`` holds for every admissible value."""

    wording: str
    test: Callable[[object], bool]


POSITIVE = Range("positive", lambda value: value > 0)
NON_NEGATIVE = Range("non-negative", lambda value: value >= 0)


def at_least(k: int) -> Range:
    return Range(f"at least {k}", lambda value: value >= k)


def at_most(k: int) -> Range:
    return Range(f"at most {k}", lambda value: value <= k)


Seed = Annotated[int, NON_NEGATIVE]


class Hyperparameter(NamedTuple):
    types: tuple[type, ...]
    ranges: tuple[Range, ...]


@cache
def hyperparameters(trainer: Callable) -> Mapping[str, Hyperparameter]:
    """Each keyword-only parameter of ``trainer``, in signature order, with
    the plain types its annotation admits (``int | None`` -> ``(int,
    NoneType)``) and its ranges; each trainer's annotations are read once."""
    # Not typing's hint reader: before Python 3.11 it wraps the annotation
    # of a None default in Optional, which hides the Annotated metadata.
    annotations = inspect.get_annotations(trainer, eval_str=True)
    declared = {}
    for name in trainer.__kwdefaults__:
        annotation, ranges = annotations[name], ()
        if get_origin(annotation) is Annotated:
            annotation, *ranges = get_args(annotation)
        declared[name] = Hyperparameter(get_args(annotation) or (annotation,), tuple(ranges))
    return MappingProxyType(declared)


def check_hyperparameters(trainer: Callable, arguments: Mapping) -> dict:
    """Those ``arguments`` that are hyperparameters of ``trainer`` (its
    keyword-only parameters), once each is found within the ranges its
    annotation declares; None is within every range.

    A trainer calls it on its ``locals()`` first, and the result is the
    ``hyper`` record its model keeps.

    Raises:
        HyperparameterError: a value outside its declared range.
    """
    declared = hyperparameters(trainer)
    hyper = {name: value for name, value in arguments.items() if name in declared}
    for name, value in hyper.items():
        for wording, test in declared[name].ranges:
            if value is not None and not test(value):
                raise HyperparameterError(f"{name} must be {wording}, got {value}")
    return hyper


# How a type error names a type that JSON spells its own way.
_JSON_TYPE_NAMES = {float: "finite float", type(None): "null"}


def has_json_type(value, allowed: tuple[type, ...]) -> bool:
    """JSON-value type check: bool is no int, an int is a valid float, and
    NaN or an infinity (which JSON parsing admits) is no valid float."""
    if isinstance(value, bool):
        return bool in allowed
    if isinstance(value, float) and not math.isfinite(value):
        return False
    if isinstance(value, int) and float in allowed:
        return True
    return any(isinstance(value, t) for t in allowed if t is not bool)


def validate_hyperparameters(trainer: Callable, values: Mapping) -> dict:
    """:func:`check_hyperparameters` of ``values`` read from JSON (a
    config's or a model file's), once each name is one of ``trainer``'s
    and each value has a type its annotation admits."""
    declared = hyperparameters(trainer)
    for name, value in values.items():
        if name not in declared:
            raise HyperparameterError(f"unknown name {name!r}; choose from {', '.join(declared)}")
        types = declared[name].types
        if not has_json_type(value, types):
            wanted = " or ".join(_JSON_TYPE_NAMES.get(t, t.__name__) for t in types)
            raise HyperparameterError(f"{name!r} must be {wanted}, got {value!r}")
    return check_hyperparameters(trainer, values)


def class_indices(labels: Sequence[SentimentLabel], classes: Sequence[SentimentLabel]) -> np.ndarray:
    """Each label's index in ``classes`` (``KeyError`` for one it lacks)."""
    index = {cls: i for i, cls in enumerate(classes)}
    return np.array([index[label] for label in labels], dtype=np.int64)


@dataclass(frozen=True)
class TrainingSet:
    """A vectorized corpus with aligned labels.

    ``classes`` is derived, not given: the distinct labels present, in
    canonical order, so every model breaks ties the same way.
    """

    matrix: DocTermMatrix
    labels: tuple[SentimentLabel, ...]
    classes: tuple[SentimentLabel, ...] = field(init=False)

    def __post_init__(self):
        if len(self.labels) != self.matrix.n_docs:
            raise TrainingError(
                f"{len(self.labels)} labels for a {self.matrix.n_docs}-row matrix"
            )
        if not self.labels:
            raise TrainingError("training set has no documents")
        object.__setattr__(self, "classes", tuple(sorted(set(self.labels))))

    @property
    def n_docs(self) -> int:
        return self.matrix.n_docs

    def y(self) -> np.ndarray:
        """Labels as indices into ``classes``."""
        return class_indices(self.labels, self.classes)

    def header(self) -> dict:
        """What a model fitted on this set records about it: its
        ``classes``, its vocabulary ``terms`` and its ``weighting``."""
        return {
            "classes": self.classes,
            "terms": self.matrix.vocab.terms,
            "weighting": self.matrix.weighting,
        }

    def take(self, rows: Sequence[int] | np.ndarray) -> "TrainingSet":
        """Row subset; the class set is recomputed from surviving labels."""
        rows = np.asarray(rows, dtype=np.int64)
        return TrainingSet(
            matrix=self.matrix.take(rows),
            labels=tuple(self.labels[i] for i in rows),
        )


@dataclass(frozen=True)
class Prediction:
    """Predicted label plus a per-class score (posterior, margin, or vote share)."""

    label: SentimentLabel
    scores: dict[SentimentLabel, float]


def seeded_rng(*key: int) -> np.random.Generator:
    """PCG64 over the SeedSequence of ``key``: the one seeding rule for every draw."""
    return np.random.default_rng(np.random.SeedSequence(list(key)))


@dataclass(frozen=True)
class Model:
    """The base of every model, and its one prediction path.

    A model records the ``classes``, vocabulary ``terms`` and ``weighting``
    of the matrix it was trained on (:meth:`TrainingSet.header`).  There
    are two subclasses, ``LinearModel`` and ``TreeModel``; each model
    states its ``kind`` (the ``model_kind`` its files carry), and each
    subclass one kernel, ``_scores(matrix)``, which maps the sparse matrix
    to ``(n_docs, n_classes)`` scores, each row's from that row alone:
    linear margins (softmax for naive Bayes and maxent), a decision tree's
    leaf class shares or an ensemble's vote shares.  The predicted class is a row's first
    highest score.  ``predict`` scores one document, a one-row matrix,
    through the same path, to the same bytes as its row in any batch.
    """

    kind: ClassVar[str]
    classes: tuple[SentimentLabel, ...]
    terms: tuple[str, ...]
    weighting: str

    def predict_batch(self, matrix: DocTermMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Predicted class indices into ``classes`` and the per-class scores
        of every row of ``matrix``, which must hold features of the model's
        weighting over its vocabulary (``DataError``)."""
        if matrix.weighting != self.weighting:
            raise DataError(
                f"model was trained on {self.weighting!r} features, "
                f"not on the {matrix.weighting!r} features given"
            )
        if matrix.vocab.terms != self.terms:
            raise DataError(
                f"model vocabulary ({len(self.terms)} terms) is not that of the "
                f"features given ({matrix.n_terms} terms); a different corpus or min_df?"
            )
        if matrix.nnz and int(matrix.indices.max()) >= len(self.terms):
            raise ValueError(
                f"vector column {int(matrix.indices.max())} out of range for "
                f"{len(self.terms)}-term vocabulary"
            )
        scores = self._scores(matrix)
        return np.argmax(scores, axis=1), scores

    def predict(self, row: DocTermMatrix) -> Prediction:
        """Label and per-class scores of one document, given as a one-row
        matrix such as ``matrix.row(i)``."""
        if row.n_docs != 1:
            raise ValueError(f"predict takes a one-row matrix, got {row.n_docs} rows")
        labels, scores = self.predict_batch(row)
        return Prediction(
            label=self.classes[labels[0]],
            scores={cls: float(s) for cls, s in zip(self.classes, scores[0])},
        )
