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
split bit for bit.  Class counts come from one integer prefix sum of packed
per-row class codes, 21 bits per class, which is exact for up to three
classes and :data:`MAX_TREE_ROWS` training rows; a larger training set is a
:class:`TrainingError`.

A fitted :class:`Tree` is five flat per-node arrays, as in scikit-learn,
grown with an explicit stack and walked level by level for all rows at
once, so no tree is too deep for the interpreter's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import HyperparameterError, TrainingError
from ..lexicon import SentimentLabel
from .base import Classifier, TrainingSet

LEAF = -1

# The split search counts classes in 21-bit fields of one int64: it handles
# at most three classes, one per sentiment label, and a count must stay below
# 2**21, so a tree trains on at most MAX_TREE_ROWS rows.
_FIELD_BITS = 21
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_CLASS_SHIFTS = _FIELD_BITS * np.arange(3, dtype=np.int64)
_CLASS_CODES = np.left_shift(1, _CLASS_SHIFTS)
MAX_TREE_ROWS = _FIELD_MASK


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
class Tree:
    """A fitted tree as parallel per-node arrays in depth-first preorder.

    Node 0 is the root.  An internal node routes a row left when
    ``row[column] <= threshold``, else right; its children come after it.
    A leaf has ``column``, ``left`` and ``right`` equal to ``LEAF`` and
    threshold 0.  ``counts[i]`` are the class counts of the training rows
    that reached node ``i``.
    """

    column: np.ndarray  # int64, (n_nodes,)
    threshold: np.ndarray  # float64, (n_nodes,)
    left: np.ndarray  # int64, (n_nodes,)
    right: np.ndarray  # int64, (n_nodes,)
    counts: np.ndarray  # float64, (n_nodes, n_classes)

    @property
    def n_nodes(self) -> int:
        return self.column.shape[0]

    @property
    def depth(self) -> int:
        """Edge count of the longest root-to-leaf path."""
        level = np.zeros(self.n_nodes, dtype=np.int64)
        for node in np.flatnonzero(self.column != LEAF):  # parents before children
            level[[self.left[node], self.right[node]]] = level[node] + 1
        return int(level.max())

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Index of the leaf each row of ``x`` reaches, all rows one level
        at a time."""
        node = np.zeros(x.shape[0], dtype=np.int64)
        active = np.arange(x.shape[0])
        while active.size:
            at = node[active]
            internal = self.column[at] != LEAF
            active, at = active[internal], at[internal]
            goes_left = x[active, self.column[at]] <= self.threshold[at]
            node[active] = np.where(goes_left, self.left[at], self.right[at])
        return node


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
    column, one int64 prefix sum of packed class codes runs down the sorted
    block, and class counts and impurities are computed only at the
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

    # Class counts left of each boundary from one integer prefix sum: row
    # codes pack a 1 into class c's 21-bit field, so a prefix sum of codes
    # holds every class's count exactly, and is unpacked only at the
    # boundaries.
    labels = y[rows]
    packed = np.cumsum(_CLASS_CODES[labels][order], axis=0)[pos, col_idx]
    left_counts = (
        (packed[:, None] >> _CLASS_SHIFTS[:n_classes]) & _FIELD_MASK
    ).astype(np.float64)
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
) -> Tree:
    """Grow a tree on dense rows ``x`` with integer labels ``y``.

    ``column_sampler``, when given, is called once per internal-node
    attempt, in node preorder, and must return the (sorted) candidate
    columns for that split; ensemble trainers use it to restrict each split
    to a random subset.
    """
    if max_depth is not None and max_depth < 0:
        raise HyperparameterError(f"max_depth must be non-negative, got {max_depth}")
    if min_samples_split < 2:
        raise HyperparameterError(
            f"min_samples_split must be at least 2, got {min_samples_split}"
        )
    if x.shape[0] == 0:
        raise ValueError("cannot grow a tree on an empty training set")
    if x.shape[0] > MAX_TREE_ROWS:
        raise TrainingError(
            f"a tree trains on at most {MAX_TREE_ROWS} documents, got {x.shape[0]}"
        )

    all_columns = np.arange(x.shape[1])
    column, threshold, right, counts = [], [], [], []
    # Entries are (rows, depth, parent whose right child this is).  The left
    # child is pushed last and popped first, so nodes are made, and the
    # sampler is called, in depth-first preorder: a left child is always
    # the node right after its parent.
    stack = [(np.arange(x.shape[0]), 0, LEAF)]
    while stack:
        rows, depth, parent = stack.pop()
        node = len(column)
        if parent != LEAF:
            right[parent] = node
        counts.append(np.bincount(y[rows], minlength=n_classes).astype(np.float64))
        column.append(LEAF)
        threshold.append(0.0)
        right.append(LEAF)
        if (
            (max_depth is not None and depth >= max_depth)
            or rows.shape[0] < min_samples_split
            or gini_impurity(counts[node]) == 0.0
        ):
            continue
        columns = all_columns if column_sampler is None else column_sampler()
        split = _best_split(x, y, n_classes, rows, columns)
        if split is None:
            continue
        column[node], threshold[node] = split
        goes_left = x[rows, column[node]] <= threshold[node]
        stack.append((rows[~goes_left], depth + 1, node))
        stack.append((rows[goes_left], depth + 1, LEAF))

    column = np.array(column, dtype=np.int64)
    return Tree(
        column=column,
        threshold=np.array(threshold, dtype=np.float64),
        left=np.where(column == LEAF, LEAF, np.arange(column.size) + 1),
        right=np.array(right, dtype=np.int64),
        counts=np.array(counts).reshape(column.size, n_classes),
    )


@dataclass(frozen=True)
class DecisionTreeModel(Classifier):
    """A fitted classification tree over a fixed vocabulary."""

    classes: tuple[SentimentLabel, ...]
    terms: tuple[str, ...]
    tree: Tree
    hyper: dict = field(default_factory=dict)

    def _scores(self, x: np.ndarray) -> np.ndarray:
        """Class shares of the leaf each row reaches."""
        counts = self.tree.counts[self.tree.apply(x)]
        return counts / counts.sum(axis=1, keepdims=True)


def train_decision_tree(
    training: TrainingSet,
    *,
    max_depth: int | None = None,
    min_samples_split: int = 2,
) -> DecisionTreeModel:
    """Fit a single CART tree on the densified training matrix."""
    tree = grow_tree(
        training.matrix.toarray(),
        training.y(),
        len(training.classes),
        max_depth=max_depth,
        min_samples_split=min_samples_split,
    )
    return DecisionTreeModel(
        classes=training.classes,
        terms=training.matrix.vocab.terms,
        tree=tree,
        hyper={"max_depth": max_depth, "min_samples_split": min_samples_split},
    )
