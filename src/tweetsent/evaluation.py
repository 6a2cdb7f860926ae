"""Classifier evaluation: confusion matrices, per-class and macro metrics,
and seeded k-fold cross-validation.

Per-class scores follow the usual one-vs-rest reading of the confusion
matrix: recall is ``tp / (tp + fn)``, precision is ``tp / (tp + fp)``, and
F1 is their harmonic mean.  Whenever a denominator is zero the score is
defined as zero rather than raising.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .features import DocTermMatrix
from .lexicon import CANONICAL_LABELS, SentimentLabel
from .models import Model, TrainingSet

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

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def index(self, label: SentimentLabel) -> int:
        return self.classes.index(label)

    def count(self, gold: SentimentLabel, predicted: SentimentLabel) -> int:
        return int(self.counts[self.index(gold), self.index(predicted)])

    def true_positives(self, label: SentimentLabel) -> int:
        i = self.index(label)
        return int(self.counts[i, i])

    def false_positives(self, label: SentimentLabel) -> int:
        i = self.index(label)
        return int(self.counts[:, i].sum() - self.counts[i, i])

    def false_negatives(self, label: SentimentLabel) -> int:
        i = self.index(label)
        return int(self.counts[i, :].sum() - self.counts[i, i])


def confusion_matrix(
    gold: Sequence[SentimentLabel],
    predicted: Sequence[SentimentLabel],
    classes: Sequence[SentimentLabel] | None = None,
) -> ConfusionMatrix:
    """Tally gold/predicted label pairs.

    ``classes`` fixes the axis order; by default it is the canonical label
    order restricted to labels that actually occur in either sequence.
    """
    if len(gold) != len(predicted):
        raise ValueError(
            f"got {len(gold)} gold labels but {len(predicted)} predictions"
        )
    if classes is None:
        seen = set(gold) | set(predicted)
        classes = tuple(cls for cls in CANONICAL_LABELS if cls in seen)
    else:
        classes = tuple(classes)
    if not classes:
        raise ValueError("cannot build a confusion matrix with no classes")
    position = {cls: i for i, cls in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for g, p in zip(gold, predicted):
        if g not in position:
            raise ValueError(f"gold label {g!s} is not in the class list")
        if p not in position:
            raise ValueError(f"predicted label {p!s} is not in the class list")
        counts[position[g], position[p]] += 1
    return ConfusionMatrix(classes=classes, counts=counts)


def f1_from_precision_recall(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; zero when both are zero."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def precision_recall_f1(cm: ConfusionMatrix, label: SentimentLabel) -> ClassMetrics:
    tp = cm.true_positives(label)
    fp = cm.false_positives(label)
    fn = cm.false_negatives(label)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return ClassMetrics(
        label=label,
        precision=precision,
        recall=recall,
        f1=f1_from_precision_recall(precision, recall),
        support=tp + fn,
    )


def per_class_metrics(cm: ConfusionMatrix) -> tuple[ClassMetrics, ...]:
    return tuple(precision_recall_f1(cm, label) for label in cm.classes)


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
    total = cm.total
    if total == 0:
        return 0.0
    return float(np.trace(cm.counts) / total)


def score(
    model: Model,
    matrix: DocTermMatrix,
    gold: Sequence[SentimentLabel],
    classes: Sequence[SentimentLabel],
) -> tuple[float, MacroMetrics]:
    """Accuracy and macro metrics of ``model`` on ``matrix``'s rows against
    ``gold``, with the confusion matrix built over ``classes``."""
    label_idx, _ = model.predict_batch(matrix)
    cm = confusion_matrix(gold, [model.classes[i] for i in label_idx], classes=classes)
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
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
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
            [training.labels[i] for i in test_rows],
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
