"""The training-set container and the base class of every model.

Every trainer is a pure function of (data, hyperparameters, seed). Where
randomness is needed it comes from numpy's PCG64 generator seeded through
SeedSequence; ensemble member m draws from the substream
SeedSequence([seed, m]) so adding members never perturbs earlier ones.

Ties are always broken by the canonical class order
Positive < Neutral < Negative.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache
from types import MappingProxyType
from typing import Annotated, ClassVar, NamedTuple, get_args, get_origin

import numpy as np

from ..exceptions import HyperparameterError, TrainingError
from ..features import DocTermMatrix
from ..lexicon import SentimentLabel

__all__ = [
    "Model", "TrainingSet", "Prediction", "check_hyperparameters", "hyperparameters", "member_rng",
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
        lookup = {c: i for i, c in enumerate(self.classes)}
        return np.array([lookup[l] for l in self.labels], dtype=np.int64)

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


def member_rng(seed: int, member: int) -> np.random.Generator:
    """Deterministic per-member generator: PCG64 over SeedSequence([seed, member])."""
    return np.random.default_rng(np.random.SeedSequence([seed, member]))


@dataclass(frozen=True)
class Model:
    """The base of every model, and its one prediction path.

    A model records the ``classes``, vocabulary ``terms`` and ``weighting``
    of the matrix it was trained on (:meth:`TrainingSet.header`).  Each
    subclass states its ``kind`` (the ``model_kind`` its files carry) and
    one kernel, ``_scores(x)``, which maps dense ``(n_docs, n_terms)`` rows
    to ``(n_docs, n_classes)`` scores: naive Bayes posteriors, linear
    margins (softmax for maxent), a tree's leaf class shares or an
    ensemble's vote shares.  The predicted class is a row's first highest
    score.  ``predict`` scores one document, a one-row matrix, through the
    same path.
    """

    kind: ClassVar[str]
    classes: tuple[SentimentLabel, ...]
    terms: tuple[str, ...]
    weighting: str

    def predict_batch(self, matrix: DocTermMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Predicted class indices into ``classes`` and the per-class scores
        of every row of ``matrix``."""
        if matrix.n_terms != len(self.terms):
            raise ValueError(
                f"matrix over {matrix.n_terms} terms for a {len(self.terms)}-term model"
            )
        if matrix.nnz and int(matrix.indices.max()) >= len(self.terms):
            raise ValueError(
                f"vector column {int(matrix.indices.max())} out of range for "
                f"{len(self.terms)}-term vocabulary"
            )
        scores = self._scores(matrix.toarray())
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
