"""Model evaluation: confusion matrices, per-class and macro metrics,
and seeded k-fold cross-validation.

A confusion matrix is one ``bincount`` of (gold, predicted) class-index
pairs.  Per-class scores follow the usual one-vs-rest reading of it:
a class's true positives are its diagonal cell, ``tp + fn`` its row sum
and ``tp + fp`` its column sum; recall is ``tp / (tp + fn)``, precision
is ``tp / (tp + fp)``, and F1 is their harmonic mean.  Whenever a
denominator is zero the score is defined as zero rather than raising.
:func:`score` scores a model on a whole matrix with one batch prediction.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .exceptions import DataError
from .features import DocTermMatrix
from .lexicon import SentimentLabel
from .models import Model, TrainingSet, seeded_rng
from .models.base import class_indices

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClassMetrics:
    """One-vs-rest scores for a single class."""

    label: SentimentLabel
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MacroMetrics:
    """Unweighted means of per-class precision, recall, and F1."""

    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts indexed ``[gold class, predicted class]`` over ``classes``."""

    classes: tuple[SentimentLabel, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        if self.counts.shape != (len(self.classes), len(self.classes)):
            raise ValueError(
                f"counts shape {self.counts.shape} does not match "
                f"{len(self.classes)} classes"
            )


def confusion_matrix(
    gold: Sequence[SentimentLabel],
    predicted: Sequence[SentimentLabel],
    classes: Sequence[SentimentLabel] | None = None,
) -> ConfusionMatrix:
    """Tally gold/predicted label pairs.

    ``classes`` fixes the axis order; by default it is the canonical label
    order restricted to labels that actually occur in either sequence.
    """
    classes = tuple(sorted(set(gold) | set(predicted)) if classes is None else classes)
    if not classes:
        raise ValueError("cannot build a confusion matrix with no classes")
    return _tally(
        _positions(gold, classes, "gold"),
        _positions(predicted, classes, "predicted"),
        classes,
    )


def _positions(labels: Sequence[SentimentLabel], classes, role: str) -> np.ndarray:
    """Each label's index in ``classes``."""
    try:
        return class_indices(labels, classes)
    except KeyError as exc:
        raise ValueError(f"{role} label {exc.args[0]!s} is not in the class list") from None


def _tally(gold: np.ndarray, predicted: np.ndarray, classes) -> ConfusionMatrix:
    """The confusion matrix of aligned gold and predicted indices into
    ``classes``: one ``bincount`` of ``gold * n_classes + predicted``."""
    if gold.shape != predicted.shape:
        raise ValueError(
            f"got {gold.shape[0]} gold labels but {predicted.shape[0]} predictions"
        )
    n = len(classes)
    counts = np.bincount(gold * n + predicted, minlength=n * n).reshape(n, n)
    return ConfusionMatrix(classes=tuple(classes), counts=counts)


def f1_from_precision_recall(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; zero when both are zero."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def per_class_metrics(cm: ConfusionMatrix) -> tuple[ClassMetrics, ...]:
    """One-vs-rest scores of every class, in ``cm.classes`` order."""
    true_positives = np.diagonal(cm.counts).tolist()
    gold_totals = cm.counts.sum(axis=1).tolist()  # tp + fn
    predicted_totals = cm.counts.sum(axis=0).tolist()  # tp + fp
    metrics = []
    for label, tp, n_gold, n_predicted in zip(
        cm.classes, true_positives, gold_totals, predicted_totals
    ):
        precision = tp / n_predicted if n_predicted else 0.0
        recall = tp / n_gold if n_gold else 0.0
        f1 = f1_from_precision_recall(precision, recall)
        metrics.append(ClassMetrics(label, precision, recall, f1, support=n_gold))
    return tuple(metrics)


def macro_average(per_class: Sequence[ClassMetrics | MacroMetrics]) -> MacroMetrics:
    """Unweighted means of the scores of each class (or of each fold)."""
    if not per_class:
        raise ValueError("cannot macro-average zero classes")
    return MacroMetrics(
        precision=float(np.mean([m.precision for m in per_class])),
        recall=float(np.mean([m.recall for m in per_class])),
        f1=float(np.mean([m.f1 for m in per_class])),
    )


def accuracy(cm: ConfusionMatrix) -> float:
    total = int(cm.counts.sum())
    if total == 0:
        return 0.0
    return float(np.trace(cm.counts) / total)


def score(
    model: Model,
    matrix: DocTermMatrix,
    gold: np.ndarray,
    classes: Sequence[SentimentLabel],
) -> tuple[float, MacroMetrics]:
    """Accuracy and macro metrics of ``model`` on ``matrix``'s rows against
    ``gold``, each row's class as an index into ``classes``, with the
    confusion matrix built over ``classes``.  Every model class must be in
    ``classes`` (``DataError``)."""
    predicted, _ = model.predict_batch(matrix)
    try:
        lookup = class_indices(model.classes, classes)
    except KeyError as exc:
        raise DataError(
            f"model class {exc.args[0]!s} is not in the class list (a different lexicon?)"
        ) from None
    cm = _tally(np.asarray(gold, dtype=np.int64), lookup[predicted], classes)
    return accuracy(cm), macro_average(per_class_metrics(cm))


def k_fold_split(
    n_docs: int, k: int, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split ``range(n_docs)`` into ``k`` disjoint (train, test) index pairs.

    A seeded permutation is dealt round-robin into ``k`` hands, so fold
    sizes differ by at most one.  Both index arrays come back sorted, i.e.
    rows keep their corpus order within each split.
    """
    if k < 2:
        raise ValueError(f"k-fold cross-validation needs k >= 2, got k={k}")
    if k > n_docs:
        raise ValueError(f"cannot split {n_docs} documents into {k} folds")
    rng = seeded_rng(seed)
    perm = rng.permutation(n_docs)
    folds = [perm[i::k] for i in range(k)]
    splits = []
    for i in range(k):
        test = np.sort(folds[i])
        train = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        splits.append((train, test))
    return splits


@dataclass(frozen=True)
class FoldMetrics:
    """Held-out scores for one cross-validation fold."""

    fold: int
    n_test: int
    accuracy: float
    macro: MacroMetrics


@dataclass(frozen=True)
class CVResult:
    folds: tuple[FoldMetrics, ...]
    mean_accuracy: float
    std_accuracy: float
    mean_macro: MacroMetrics
    warnings: tuple[str, ...] = ()

    @property
    def k(self) -> int:
        return len(self.folds)


def cross_validate(
    trainer: Callable[[TrainingSet], Model],
    training: TrainingSet,
    *,
    k: int = 4,
    seed: int = 0,
) -> CVResult:
    """Train on each k-fold training split and score the held-out fold.

    Each fold's model is fit on a :class:`TrainingSet` rebuilt from the
    training rows alone, so a fold that loses a class trains without it
    (recorded in ``warnings``); scoring always uses the full class list.
    The accuracy spread is the population standard deviation over folds.
    """
    splits = k_fold_split(training.matrix.n_docs, k, seed=seed)
    y = training.y()
    fold_metrics = []
    warnings: list[str] = []
    for fold, (train_rows, test_rows) in enumerate(splits):
        sub = training.take(train_rows)
        if set(sub.classes) != set(training.classes):
            missing = [str(c) for c in training.classes if c not in sub.classes]
            message = (
                f"fold {fold}: training split lost class(es) {', '.join(missing)}"
            )
            warnings.append(message)
            logger.warning(message)
        fold_accuracy, macro = score(
            trainer(sub),
            training.matrix.take(test_rows),
            y[test_rows],
            training.classes,
        )
        fold_metrics.append(
            FoldMetrics(fold=fold, n_test=len(test_rows), accuracy=fold_accuracy, macro=macro)
        )
    accuracies = np.array([fm.accuracy for fm in fold_metrics])
    return CVResult(
        folds=tuple(fold_metrics),
        mean_accuracy=float(accuracies.mean()),
        std_accuracy=float(accuracies.std()),
        mean_macro=macro_average([fm.macro for fm in fold_metrics]),
        warnings=tuple(warnings),
    )
