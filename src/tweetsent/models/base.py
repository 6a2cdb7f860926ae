"""Shared training-set container and prediction path for all models.

Every trainer is a pure function of (data, hyperparameters, seed). Where
randomness is needed it comes from numpy's PCG64 generator seeded through
SeedSequence; ensemble member m draws from the substream
SeedSequence([seed, m]) so adding members never perturbs earlier ones.

Ties are always broken by the canonical class order
Positive < Neutral < Negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import HyperparameterError, TrainingError
from ..features import COUNTS, DocTermMatrix, SparseVector, Vocabulary
from ..lexicon import SentimentLabel

__all__ = ["Classifier", "TrainingSet", "Prediction", "member_rng"]


def _canonical(labels: Sequence[SentimentLabel]) -> tuple[SentimentLabel, ...]:
    return tuple(sorted(set(labels)))


@dataclass(frozen=True)
class TrainingSet:
    """A vectorized corpus with aligned labels.

    ``classes`` defaults to the distinct labels present, in canonical
    order; it may list extra classes explicitly, but trainers reject
    classes with no documents.
    """

    matrix: DocTermMatrix
    labels: tuple[SentimentLabel, ...]
    classes: tuple[SentimentLabel, ...] = field(default=())

    def __post_init__(self):
        if len(self.labels) != self.matrix.n_docs:
            raise TrainingError(
                f"{len(self.labels)} labels for a {self.matrix.n_docs}-row matrix"
            )
        if not self.classes:
            if not self.labels:
                raise TrainingError("training set has no documents")
            object.__setattr__(self, "classes", _canonical(self.labels))
        missing = set(self.labels) - set(self.classes)
        if missing:
            raise TrainingError(f"labels outside the class set: {sorted(missing)}")

    @property
    def n_docs(self) -> int:
        return self.matrix.n_docs

    def y(self) -> np.ndarray:
        """Labels as indices into ``classes``."""
        lookup = {c: i for i, c in enumerate(self.classes)}
        return np.array([lookup[l] for l in self.labels], dtype=np.int64)

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
    if seed < 0:
        raise HyperparameterError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, member]))


class Classifier:
    """The one prediction path of every model.

    Subclasses provide ``classes``, ``terms`` and one kernel, ``_scores(x)``,
    which maps dense ``(n_docs, n_terms)`` rows to ``(n_docs, n_classes)``
    scores: naive Bayes posteriors, linear margins (softmax for maxent), a
    tree's leaf class shares or an ensemble's vote shares.  The predicted
    class is a row's first highest score.
    """

    classes: tuple[SentimentLabel, ...]
    terms: tuple[str, ...]

    def predict_batch(self, matrix: DocTermMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Predicted class indices into ``classes`` and the per-class scores
        of every row of ``matrix``."""
        if matrix.nnz and int(matrix.indices.max()) >= len(self.terms):
            raise ValueError(
                f"vector column {int(matrix.indices.max())} out of range for "
                f"{len(self.terms)}-term vocabulary"
            )
        scores = self._scores(matrix.toarray())
        return np.argmax(scores, axis=1), scores

    def predict(self, vec: SparseVector) -> Prediction:
        """Label and per-class scores of one document: a one-row batch."""
        # toarray reads only the vocabulary's size, so the row needs no
        # term index, document frequencies or weighting of its own.
        row = DocTermMatrix(
            vocab=Vocabulary(self.terms, {}, np.zeros(0, dtype=np.int64)),
            indptr=np.array([0, vec.nnz]), indices=vec.cols, data=vec.weights,
            weighting=COUNTS,
        )
        labels, scores = self.predict_batch(row)
        return Prediction(
            label=self.classes[labels[0]],
            scores={cls: float(s) for cls, s in zip(self.classes, scores[0])},
        )
