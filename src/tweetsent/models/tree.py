"""CART-style decision tree on dense term-weight rows.

Splits minimise Gini impurity.  Candidate thresholds are midpoints between
consecutive distinct values of a column, ties go to the lowest column and
then the lowest threshold, and a midpoint that rounds onto the right-hand
value (adjacent floats) is skipped.  A split is kept even when it does not
reduce impurity, as long as both children are nonempty — a node only
becomes a leaf when it is pure, too small, too deep, or has no usable
threshold.

The split search is exact, not binned: one numpy pass per node sorts every
candidate column at once and scores every boundary between distinct values,
with the same arithmetic as a column-at-a-time search, so it picks the same
split bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..features import SparseVector
from ..lexicon import SentimentLabel
from .base import Prediction, TrainingSet, check_columns


def gini_impurity(counts) -> float:
    """Gini impurity ``1 - sum((c/n)^2)`` of a class-count vector."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1:
        raise ValueError(f"expected a 1-D count vector, got shape {counts.shape}")
    if (counts < 0).any():
        raise ValueError("class counts must be non-negative")
    total = counts.sum()
    if total == 0:
        raise ValueError("gini impurity is undefined for an empty node")
    fractions = counts / total
    return float(1.0 - (fractions * fractions).sum())


def _gini_rows(counts: np.ndarray) -> np.ndarray:
    """Row-wise Gini impurity for a (rows, classes) count matrix."""
    totals = counts.sum(axis=1, keepdims=True)
    fractions = counts / totals
    return 1.0 - (fractions * fractions).sum(axis=1)


@dataclass(frozen=True)
class TreeNode:
    """One node of a fitted tree.

    Every node carries the class counts of the training rows that reached
    it.  Internal nodes route by ``value[column] <= threshold`` (left) vs.
    greater (right); leaves have ``column is None``.
    """

    counts: np.ndarray
    column: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.column is None

    @property
    def n_nodes(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + self.left.n_nodes + self.right.n_nodes

    @property
    def depth(self) -> int:
        """Edge count of the longest root-to-leaf path below this node."""
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth, self.right.depth)


def _best_split(
    x: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    rows: np.ndarray,
    columns: np.ndarray,
) -> tuple[int, float] | None:
    """Lowest-weighted-impurity (column, threshold) over ``columns``.

    Scores every candidate column of the node in one pass: the ``(n, k)``
    block of the node's rows and candidate columns is sorted column by
    column, and class counts and impurities are computed only at the
    boundaries between distinct values, which count columns have few of.
    Returns None when no candidate column has a usable threshold on ``rows``.
    """
    n_rows = rows.shape[0]
    block = x[rows][:, columns]
    order = np.argsort(block, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(block, order, axis=0)
    # Boundaries in column-major order: by candidate column, then by
    # ascending threshold within a column.
    col_idx, pos = np.nonzero((sorted_vals[:-1] < sorted_vals[1:]).T)
    if pos.size == 0:
        return None

    labels = y[rows]
    sorted_labels = labels[order]
    left_counts = np.empty((pos.size, n_classes), dtype=np.float64)
    for cls in range(n_classes):
        left_counts[:, cls] = np.cumsum(sorted_labels == cls, axis=0)[pos, col_idx]
    totals = np.bincount(labels, minlength=n_classes).astype(np.float64)
    right_counts = totals - left_counts
    n_left = pos + 1
    n_right = n_rows - n_left
    weighted = (
        n_left * _gini_rows(left_counts) + n_right * _gini_rows(right_counts)
    ) / n_rows

    # A midpoint that rounds up onto the right-hand value (adjacent floats)
    # would send every row left, so it is no candidate.
    upper = sorted_vals[pos + 1, col_idx]
    midpoints = 0.5 * (sorted_vals[pos, col_idx] + upper)
    weighted[midpoints >= upper] = np.inf
    # argmin returns the first minimum: the lowest column, then the lowest
    # threshold, among equal impurities.
    best = int(np.argmin(weighted))
    if weighted[best] == np.inf:
        return None
    return int(columns[col_idx[best]]), float(midpoints[best])


def grow_tree(
    x: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    *,
    max_depth: int | None = None,
    min_samples_split: int = 2,
    column_sampler=None,
) -> TreeNode:
    """Grow a tree on dense rows ``x`` with integer labels ``y``.

    ``column_sampler``, when given, is called once per internal-node
    attempt and must return the (sorted) candidate columns for that split;
    ensemble trainers use it to restrict each split to a random subset.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    if min_samples_split < 2:
        raise ValueError(f"min_samples_split must be at least 2, got {min_samples_split}")

    all_columns = np.arange(x.shape[1])

    def build(rows: np.ndarray, depth: int) -> TreeNode:
        counts = np.bincount(y[rows], minlength=n_classes).astype(np.float64)
        at_limit = max_depth is not None and depth >= max_depth
        if (
            at_limit
            or rows.shape[0] < min_samples_split
            or gini_impurity(counts) == 0.0
        ):
            return TreeNode(counts=counts)
        columns = all_columns if column_sampler is None else column_sampler()
        split = _best_split(x, y, n_classes, rows, columns)
        if split is None:
            return TreeNode(counts=counts)
        column, threshold = split
        goes_left = x[rows, column] <= threshold
        left = build(rows[goes_left], depth + 1)
        right = build(rows[~goes_left], depth + 1)
        return TreeNode(
            counts=counts, column=column, threshold=threshold, left=left, right=right
        )

    if x.shape[0] == 0:
        raise ValueError("cannot grow a tree on an empty training set")
    return build(np.arange(x.shape[0]), 0)


@dataclass(frozen=True)
class DecisionTreeModel:
    """A fitted classification tree over a fixed vocabulary."""

    classes: tuple[SentimentLabel, ...]
    terms: tuple[str, ...]
    root: TreeNode
    hyper: dict = field(default_factory=dict)

    def predict(self, vec: SparseVector) -> Prediction:
        check_columns(vec, len(self.terms))
        node = self.root
        while not node.is_leaf:
            pos = np.searchsorted(vec.cols, node.column)
            value = (
                float(vec.weights[pos])
                if pos < vec.cols.size and vec.cols[pos] == node.column
                else 0.0
            )
            node = node.left if value <= node.threshold else node.right
        total = node.counts.sum()
        shares = node.counts / total
        best = int(np.argmax(shares))
        return Prediction(
            label=self.classes[best],
            scores={cls: float(s) for cls, s in zip(self.classes, shares)},
        )


def train_decision_tree(
    training: TrainingSet,
    *,
    max_depth: int | None = None,
    min_samples_split: int = 2,
) -> DecisionTreeModel:
    """Fit a single CART tree on the densified training matrix."""
    root = grow_tree(
        training.matrix.toarray(),
        training.y(),
        len(training.classes),
        max_depth=max_depth,
        min_samples_split=min_samples_split,
    )
    return DecisionTreeModel(
        classes=training.classes,
        terms=training.matrix.vocab.terms,
        root=root,
        hyper={"max_depth": max_depth, "min_samples_split": min_samples_split},
    )
