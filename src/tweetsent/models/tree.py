"""CART-style decision tree on sparse term-weight rows.

Splits minimise Gini impurity.  Candidate thresholds are midpoints between
consecutive distinct values of a column, ties go to the lowest column and
then the lowest threshold, and a midpoint that rounds onto the right-hand
value (adjacent floats) is skipped.  A split is kept even when it does not
reduce impurity, as long as both children are nonempty — a node only
becomes a leaf when it is pure, too small, too deep, or has no usable
threshold.

The split search is an exact histogram search.  :func:`bin_training_set`
bins each column once per fit, by its distinct values with zero among them,
straight from the CSR matrix; a node then counts classes per bin with one
``bincount`` over its nonzero entries and takes each column's zero bin as
the node's class totals minus that column's nonzero counts.  Boundaries lie
between adjacent bins that occur in the node, and are scored with the same
midpoints and arithmetic as a sort of the node's values, so the search
picks that sort's split bit for bit.  Counts are integer ``bincount``s, so
there is no cap on the number of training rows.

A fitted :class:`Tree` is five flat per-node arrays, as in scikit-learn,
grown with an explicit stack and walked level by level for all rows at
once, so no tree is too deep for the interpreter's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import HyperparameterError
from ..lexicon import SentimentLabel
from .base import Classifier, TrainingSet

LEAF = -1


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


@dataclass(frozen=True)
class BinnedRows:
    """Training rows coded for the histogram split search.

    Each column's bins are its distinct values, zero among them; bins run
    by column and then by ascending value (``bin_column``, ``bin_value``).
    Entries are the matrix's nonzero values, row by row as in CSR
    (``indptr``), each coded with its row's label ``y``: ``entry_code`` is
    ``label * n_bins + bin`` and ``entry_column_code`` is
    ``label * n_columns + column``.  No entry lies in a zero bin;
    ``zero_code[label * n_columns + c]`` is the code of column ``c``'s zero
    bin.  The same entries, grouped by column (``column_ptr``,
    ``column_rows``, ``column_values``), route rows at a split.
    """

    y: np.ndarray  # int64, (n_rows,)
    n_classes: int
    indptr: np.ndarray  # int64, (n_rows + 1,)
    entry_code: np.ndarray  # int64, (nnz,)
    entry_column_code: np.ndarray  # int64, (nnz,)
    bin_column: np.ndarray  # int64, (n_bins,)
    bin_value: np.ndarray  # float64, (n_bins,)
    zero_code: np.ndarray  # int64, (n_classes * n_columns,)
    column_ptr: np.ndarray  # int64, (n_columns + 1,)
    column_rows: np.ndarray  # int64, (nnz,)
    column_values: np.ndarray  # float64, (nnz,)

    @property
    def n_rows(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def n_columns(self) -> int:
        return self.column_ptr.shape[0] - 1

    def column(self, c: int) -> np.ndarray:
        """Column ``c`` of every row, zeros included."""
        values = np.zeros(self.n_rows)
        lo, hi = self.column_ptr[c], self.column_ptr[c + 1]
        values[self.column_rows[lo:hi]] = self.column_values[lo:hi]
        return values


def bin_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    n_columns: int,
    y: np.ndarray,
    n_classes: int,
) -> BinnedRows:
    """Bin the CSR matrix ``(indptr, indices, data)`` of ``n_columns``
    columns, whose row ``i`` holds ``data[indptr[i]:indptr[i + 1]]`` at
    columns ``indices[...]``, at most one value per column, and has label
    ``y[i]`` out of ``n_classes``."""
    n_rows = indptr.shape[0] - 1
    rows = np.repeat(np.arange(n_rows), np.diff(indptr))
    # A stored zero is no entry: it belongs to the column's zero bin.
    nonzero = data != 0
    rows, columns, values = rows[nonzero], indices[nonzero], data[nonzero]
    nnz = values.shape[0]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])

    # Sort every entry, plus one zero per column, by (column, value); each
    # run of equal pairs is one bin.
    all_columns = np.concatenate([columns, np.arange(n_columns)])
    all_values = np.concatenate([values, np.zeros(n_columns)])
    order = np.lexsort((all_values, all_columns))
    sorted_columns, sorted_values = all_columns[order], all_values[order]
    starts_bin = np.ones(order.shape[0], dtype=bool)
    starts_bin[1:] = (sorted_columns[1:] != sorted_columns[:-1]) | (
        sorted_values[1:] != sorted_values[:-1]
    )
    bin_of = np.empty(order.shape[0], dtype=np.int64)
    bin_of[order] = np.cumsum(starts_bin) - 1
    bin_column = sorted_columns[starts_bin].astype(np.int64)

    by_column = order[order < nnz]
    column_ptr = np.zeros(n_columns + 1, dtype=np.int64)
    np.cumsum(np.bincount(columns, minlength=n_columns), out=column_ptr[1:])
    n_bins = bin_column.shape[0]
    labels = y[rows]
    return BinnedRows(
        y=y,
        n_classes=n_classes,
        indptr=indptr,
        entry_code=labels * n_bins + bin_of[:nnz],
        entry_column_code=labels * n_columns + columns,
        bin_column=bin_column,
        bin_value=sorted_values[starts_bin],
        zero_code=(n_bins * np.arange(n_classes)[:, None] + bin_of[nnz:]).ravel(),
        column_ptr=column_ptr,
        column_rows=rows[by_column],
        column_values=values[by_column],
    )


def _best_split(
    binned: BinnedRows,
    rows: np.ndarray,
    node_counts: np.ndarray,
    columns: np.ndarray,
) -> tuple[int, float] | None:
    """Lowest-weighted-impurity (column, threshold) over ``columns``.

    ``rows`` are the node's rows, repeats allowed, ``node_counts`` their
    integer class counts, and ``columns`` the ascending candidate columns.
    One ``bincount`` of the node's nonzero entries fills every bin's class
    counts, and each column's zero bin gets the rest of the node.  The
    boundaries between candidate bins present in the node are scored in
    bin order, so the first minimum is the lowest column, then the lowest
    threshold.  Returns None when no candidate column has a usable
    threshold on ``rows``.
    """
    n_rows = rows.shape[0]
    n_classes, n_columns = node_counts.shape[0], binned.n_columns
    n_bins = binned.bin_value.shape[0]
    starts = binned.indptr[rows]
    lengths = binned.indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    entries = np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])
    hist = np.bincount(binned.entry_code[entries], minlength=n_classes * n_bins)
    nonzero = np.bincount(
        binned.entry_column_code[entries], minlength=n_classes * n_columns
    )
    hist[binned.zero_code] = np.repeat(node_counts, n_columns) - nonzero
    hist = hist.reshape(n_classes, n_bins)

    present = hist.any(axis=0)
    if columns.shape[0] < n_columns:
        candidate = np.zeros(n_columns, dtype=bool)
        candidate[columns] = True
        present &= candidate[binned.bin_column]
    present = np.flatnonzero(present)
    column = binned.bin_column[present]
    boundary = np.flatnonzero(column[:-1] == column[1:])
    if boundary.size == 0:
        return None

    # Every column's bins hold the whole node, so the running count over
    # all bins before column c is c times the node's counts.
    left = (
        hist.cumsum(axis=1)[:, present[boundary]].T
        - column[boundary, None] * node_counts
    )
    n_left = left.sum(axis=1)
    n_right = n_rows - n_left
    # One _gini_rows call for the left then the right children: a C-ordered
    # (rows, classes) array, as the sort search passed, so each row's sum
    # of squared shares rounds as it did there.
    impurity = _gini_rows(
        np.concatenate([left, node_counts - left]).astype(np.float64)
    )
    weighted = (
        n_left * impurity[: boundary.size] + n_right * impurity[boundary.size :]
    ) / n_rows

    value = binned.bin_value[present]
    upper = value[boundary + 1]
    midpoints = 0.5 * (value[boundary] + upper)
    # A midpoint that rounds up onto the right-hand value (adjacent floats)
    # would send every row left, so it is no candidate.
    weighted[midpoints >= upper] = np.inf
    best = int(np.argmin(weighted))
    if weighted[best] == np.inf:
        return None
    return int(column[boundary[best]]), float(midpoints[best])


def grow_tree(
    binned: BinnedRows,
    *,
    rows: np.ndarray | None = None,
    max_depth: int | None = None,
    min_samples_split: int = 2,
    column_sampler=None,
) -> Tree:
    """Grow a tree on the binned training rows ``binned``.

    ``rows`` are the training rows, all rows by default; a bootstrap
    resample lists rows as often as it draws them.  ``column_sampler``,
    when given, is called once per internal-node attempt, in node preorder,
    and must return the sorted candidate columns for that split; ensemble
    trainers use it to restrict each split to a random subset.
    """
    if max_depth is not None and max_depth < 0:
        raise HyperparameterError(f"max_depth must be non-negative, got {max_depth}")
    if min_samples_split < 2:
        raise HyperparameterError(
            f"min_samples_split must be at least 2, got {min_samples_split}"
        )
    if rows is None:
        rows = np.arange(binned.n_rows)
    if rows.shape[0] == 0:
        raise ValueError("cannot grow a tree on an empty training set")

    all_columns = np.arange(binned.n_columns)
    column, threshold, right, counts = [], [], [], []
    # Entries are (rows, depth, parent whose right child this is).  The left
    # child is pushed last and popped first, so nodes are made, and the
    # sampler is called, in depth-first preorder: a left child is always
    # the node right after its parent.
    stack = [(rows, 0, LEAF)]
    while stack:
        rows, depth, parent = stack.pop()
        node = len(column)
        if parent != LEAF:
            right[parent] = node
        node_counts = np.bincount(binned.y[rows], minlength=binned.n_classes)
        counts.append(node_counts)
        column.append(LEAF)
        threshold.append(0.0)
        right.append(LEAF)
        if (
            (max_depth is not None and depth >= max_depth)
            or rows.shape[0] < min_samples_split
            or np.count_nonzero(node_counts) == 1
        ):
            continue
        columns = all_columns if column_sampler is None else column_sampler()
        split = _best_split(binned, rows, node_counts, columns)
        if split is None:
            continue
        column[node], threshold[node] = split
        goes_left = binned.column(column[node])[rows] <= threshold[node]
        stack.append((rows[~goes_left], depth + 1, node))
        stack.append((rows[goes_left], depth + 1, LEAF))

    column = np.array(column, dtype=np.int64)
    return Tree(
        column=column,
        threshold=np.array(threshold, dtype=np.float64),
        left=np.where(column == LEAF, LEAF, np.arange(column.size) + 1),
        right=np.array(right, dtype=np.int64),
        counts=np.array(counts, dtype=np.float64).reshape(
            column.size, binned.n_classes
        ),
    )


def bin_training_set(training: TrainingSet) -> BinnedRows:
    """The training set's rows binned for :func:`grow_tree`, once per fit."""
    m = training.matrix
    return bin_rows(
        m.indptr, m.indices, m.data, m.n_terms, training.y(), len(training.classes)
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
    """Fit a single CART tree on the sparse training matrix."""
    tree = grow_tree(
        bin_training_set(training),
        max_depth=max_depth,
        min_samples_split=min_samples_split,
    )
    return DecisionTreeModel(
        classes=training.classes,
        terms=training.matrix.vocab.terms,
        tree=tree,
        hyper={"max_depth": max_depth, "min_samples_split": min_samples_split},
    )
