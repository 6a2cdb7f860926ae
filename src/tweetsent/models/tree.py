"""CART-style decision trees, and their bagging and random-forest
committees, on sparse term-weight rows.

Splits minimise Gini impurity.  Candidate thresholds are midpoints between
consecutive distinct values of a column, ties go to the lowest column and
then the lowest threshold, and a midpoint that rounds onto the right-hand
value (adjacent floats) is skipped.  A split is kept even when it does not
reduce impurity, as long as both children are nonempty — a node only
becomes a leaf when it is pure, too small, too deep, or has no usable
threshold.

The split search is an exact histogram search.  :func:`bin_rows` bins
each column once per fit, by its distinct values with zero among them,
straight from the CSR matrix; a node then counts classes per bin from its
nonzero entries and takes each column's zero bin as the node's class totals
minus that column's nonzero counts, which it finds through each entry's
bin.  Boundaries lie between adjacent bins that occur in the node, and
are scored with the same midpoints and arithmetic as a sort of the node's
values, so the search picks that sort's split bit for bit.  Counts are
integer ``bincount``s, so there is no cap on the number of training rows.

:func:`grow_trees` grows the members of an ensemble in lockstep, as
GPU histogram tree builders do for the nodes of one level.  Each tree
makes its nodes in depth-first preorder from its own stack, up to the next
node to try to split, calling its own column sampler for that node; one
batched search then scores the nodes of all trees with one ``bincount``
over (node, class, bin), which also gives their children's class counts,
and one pass routes their rows.  Members are grown :data:`GROW_GROUP` at
a time and their nodes searched in batches of about :data:`SEARCH_ROWS`
rows, so no array grows with the ensemble.

The three trainers share one fit, :func:`_train_trees`, which bins the
training rows once per committee, not once per member: a member's
bootstrap resample is a list of row indices into that one binning,
repeats included, so no member copies the matrix.  Member ``m`` of a
committee seeded with ``seed`` draws all of its randomness (the bootstrap
resample and, for a random forest, the per-split column subsets) from the
dedicated substream ``seeded_rng(seed, m)``, so members are independent
of each other and reproducible in isolation.  A decision tree is the
one-member committee that sees every row and every column, and draws no
random number.

A fitted :class:`Tree` is four flat per-node arrays in preorder, as in
scikit-learn less the left-child array (a left child is the next node),
grown with explicit stacks and walked level by level for all rows at
once, so no tree is too deep for the interpreter's recursion limit.

:class:`TreeModel` is every tree model, and scores through one walk:
:func:`stack_trees` joins its trees into one node array, and each
:data:`WALK_CHUNK` rows, densified on their own and never the whole
batch, walk it from every root at once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from math import floor, sqrt
from typing import Annotated

import numpy as np

from ..features import DocTermMatrix, index_ranges
from .base import (
    NON_NEGATIVE, Model, Seed, TrainingSet, at_least, at_most, check_hyperparameters, seeded_rng,
)

DECISION_TREE = "decision_tree"
BAGGING = "bagging"
RANDOM_FOREST = "random_forest"

# The growth limits every tree trainer takes: None grows to purity.
MaxDepth = Annotated[int | None, NON_NEGATIVE]
MinSamplesSplit = Annotated[int, at_least(2)]

LEAF = -1

# Trees grown in lockstep, and rows searched in one batch: nodes are
# batched until their rows would pass SEARCH_ROWS, so a batch's arrays stay
# small whatever the ensemble and the training set.  Results depend on
# neither.
GROW_GROUP = 32
SEARCH_ROWS = 2048

# Rows densified and walked per pass of TreeModel._scores.  Results do not
# depend on it; it bounds the walk's arrays to this many rows times the
# vocabulary, or times the number of trees.
WALK_CHUNK = 256


def _gini_rows(counts: np.ndarray) -> np.ndarray:
    """Row-wise Gini impurity for a (rows, classes) count matrix."""
    totals = counts.sum(axis=1, keepdims=True)
    fractions = counts / totals
    return 1.0 - (fractions * fractions).sum(axis=1)


@dataclass(frozen=True)
class Tree:
    """A fitted tree as parallel per-node arrays in depth-first preorder.

    Node 0 is the root.  An internal node routes a row left when
    ``row[column] <= threshold``, else right.  Its left child is the next
    node in preorder, ``i + 1``, so only its right child is stored: a later
    node, after the left child's subtree.  A leaf has ``column`` and
    ``right`` equal to ``LEAF`` and threshold 0.  ``counts[i]`` are the
    class counts of the training rows that reached node ``i``.
    """

    column: np.ndarray  # int64, (n_nodes,)
    threshold: np.ndarray  # float64, (n_nodes,)
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
            level[[node + 1, self.right[node]]] = level[node] + 1
        return int(level.max())

    def walk(self, x: np.ndarray, rows: np.ndarray, node: np.ndarray) -> np.ndarray:
        """Index of the leaf that row ``rows[i]`` of ``x`` reaches from node
        ``node[i]``, for every ``i`` at once, one level at a time."""
        node = node.copy()
        active = np.arange(node.shape[0])
        while active.size:
            at = node[active]
            internal = self.column[at] != LEAF
            active, at = active[internal], at[internal]
            goes_left = x[rows[active], self.column[at]] <= self.threshold[at]
            node[active] = np.where(goes_left, at + 1, self.right[at])
        return node


def stack_trees(trees) -> tuple[Tree, np.ndarray]:
    """The trees as one :class:`Tree` whose node arrays run tree after tree,
    with right-child links shifted to match, and the index of each tree's
    root.  Left children need no shift: each is still the next node."""
    sizes = [tree.n_nodes for tree in trees]
    roots = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=roots[1:])
    column = np.concatenate([tree.column for tree in trees])
    right = np.concatenate([tree.right for tree in trees])
    stacked = Tree(
        column=column,
        threshold=np.concatenate([tree.threshold for tree in trees]),
        right=np.where(column != LEAF, right + np.repeat(roots, sizes), LEAF),
        counts=np.concatenate([tree.counts for tree in trees]),
    )
    return stacked, roots


@dataclass(frozen=True)
class BinnedRows:
    """Training rows coded for the histogram split search.

    Each column's bins are its distinct values, zero among them; bins run
    by column and then by ascending value (``bin_column``, ``bin_value``),
    and ``zero_bin[c]`` is column ``c``'s zero bin.  Entries are the
    matrix's nonzero values, row by row as in CSR (row ``i`` has
    ``row_length[i]`` entries from ``row_start[i]``), none in a zero bin,
    each coded with its row's label ``y`` as ``label * n_bins + bin``
    (``entry_code``); ``bin_column_code[code]`` is such a code's ``label *
    n_columns + column``.  The same entries, grouped by column
    (``column_ptr``, ``column_rows``, ``column_values``), route rows at a
    split.
    """

    y: np.ndarray  # int64, (n_rows,)
    n_classes: int
    row_start: np.ndarray  # int64, (n_rows,)
    row_length: np.ndarray  # int64, (n_rows,)
    entry_code: np.ndarray  # int64, (nnz,)
    bin_column: np.ndarray  # int64, (n_bins,)
    bin_value: np.ndarray  # float64, (n_bins,)
    bin_column_code: np.ndarray  # int64, (n_classes * n_bins,)
    zero_bin: np.ndarray  # int64, (n_columns,)
    column_ptr: np.ndarray  # int64, (n_columns + 1,)
    column_rows: np.ndarray  # int64, (nnz,)
    column_values: np.ndarray  # float64, (nnz,)

    @property
    def n_rows(self) -> int:
        return self.y.shape[0]

    @property
    def n_columns(self) -> int:
        return self.column_ptr.shape[0] - 1


def bin_rows(matrix: DocTermMatrix, y: np.ndarray, n_classes: int) -> BinnedRows:
    """Bin the rows of ``matrix``, whose row ``i`` has label ``y[i]`` out
    of ``n_classes``, for :func:`grow_trees`, once per fit: three values
    per entry, and what a bin or a column implies stored once per bin or
    column."""
    n_rows, n_columns = matrix.n_docs, matrix.n_terms
    # A stored zero is no entry: it belongs to the column's zero bin.
    nonzero = matrix.data != 0
    rows, columns, values = matrix.entry_rows()[nonzero], matrix.indices[nonzero], matrix.data[nonzero]
    nnz = values.shape[0]
    row_length = np.bincount(rows, minlength=n_rows)

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
    return BinnedRows(
        y=y,
        n_classes=n_classes,
        row_start=np.cumsum(row_length) - row_length,
        row_length=row_length,
        entry_code=y[rows] * bin_column.shape[0] + bin_of[:nnz],
        bin_column=bin_column,
        bin_value=sorted_values[starts_bin],
        bin_column_code=(n_columns * np.arange(n_classes)[:, None] + bin_column).ravel(),
        zero_bin=bin_of[nnz:],
        column_ptr=column_ptr,
        column_rows=rows[by_column],
        column_values=values[by_column],
    )


def _histograms(
    binned: BinnedRows, node_rows: Sequence[np.ndarray], node_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Class counts of every (node, class, bin) for the nodes with rows
    ``node_rows`` and integer class counts ``node_counts``: one
    ``bincount`` of the nodes' nonzero entries by bin and one by their
    bins' columns, whose zero bins get the rest of their node.  Also
    returns which (node, column) pairs have a nonzero entry: only those
    columns can split the node."""
    n_nodes = len(node_rows)
    n_classes, n_columns = node_counts.shape[1], binned.n_columns
    n_bins = binned.bin_value.shape[0]
    rows = np.concatenate(node_rows)
    lengths = binned.row_length[rows]
    entries, _ = index_ranges(binned.row_start[rows], lengths)
    bin_code = binned.entry_code[entries]
    column_code = binned.bin_column_code[bin_code]
    if n_nodes > 1:  # one node needs no node offsets
        node_of_entry = np.repeat(
            np.repeat(np.arange(n_nodes), [r.shape[0] for r in node_rows]), lengths
        )
        bin_code += node_of_entry * (n_classes * n_bins)
        column_code += node_of_entry * (n_classes * n_columns)
    hist = np.bincount(bin_code, minlength=n_nodes * n_classes * n_bins).reshape(
        n_nodes, n_classes, n_bins
    )
    nonzero = np.bincount(
        column_code, minlength=n_nodes * n_classes * n_columns
    ).reshape(n_nodes, n_classes, n_columns)
    active = nonzero.any(axis=1)
    hist[:, :, binned.zero_bin] = np.subtract(node_counts[:, :, None], nonzero, out=nonzero)
    return hist, active


def _boundaries(
    binned: BinnedRows,
    node_rows: Sequence[np.ndarray],
    node_counts: np.ndarray,
    node_columns: Sequence[np.ndarray | None],
) -> tuple[np.ndarray, ...]:
    """Every boundary between two bins of a candidate column that are
    adjacent among the bins present in a node, by node and then in bin
    order: its node, its column, the values either side of it, and the
    class counts of the node's rows left of it, class by class."""
    n_columns, n_bins = binned.n_columns, binned.bin_value.shape[0]
    n_classes = node_counts.shape[1]
    hist, candidate = _histograms(binned, node_rows, node_counts)
    subsets = [
        i for i, columns in enumerate(node_columns)
        if columns is not None and columns.shape[0] < n_columns
    ]
    if subsets:
        sampled = np.zeros((len(subsets), n_columns), dtype=bool)
        sizes = [node_columns[i].shape[0] for i in subsets]
        sampled[
            np.repeat(np.arange(len(subsets)), sizes),
            np.concatenate([node_columns[i] for i in subsets]),
        ] = True
        candidate[subsets] &= sampled
    found = np.flatnonzero(hist.any(axis=1) & candidate[:, binned.bin_column])
    node, bins = np.divmod(found, n_bins)
    column = binned.bin_column[bins]
    same = (node[:-1] == node[1:]) & (column[:-1] == column[1:])
    boundary = np.flatnonzero(same)

    # The present bins' counts, class by class.  A boundary's left child
    # holds its column's present bins up to it: the count before the next
    # bin less the count before the column's first present bin in the node.
    class_offset = n_bins * np.arange(n_classes)[:, None]
    found = hist.ravel()[found + node * ((n_classes - 1) * n_bins) + class_offset]
    before = found.cumsum(axis=1) - found
    starts_run = np.concatenate([[True], ~same])
    run_start = np.maximum.accumulate(np.where(starts_run, np.arange(node.shape[0]), 0))
    left = np.take(before, boundary + 1, axis=1) - np.take(
        before, run_start[boundary], axis=1
    )
    value = binned.bin_value[bins]
    return node[boundary], column[boundary], value[boundary], value[boundary + 1], left


def _best_splits(
    binned: BinnedRows,
    node_rows: Sequence[np.ndarray],
    node_counts: np.ndarray,
    node_columns: Sequence[np.ndarray | None],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest-weighted-impurity (column, threshold) of every node at once.

    Node ``i`` has the rows ``node_rows[i]``, repeats allowed, the integer
    class counts ``node_counts[i]``, and the candidate columns
    ``node_columns[i]``, or None for every column.  A node's boundaries
    are scored in bin order, so its first minimum is the lowest column,
    then the lowest threshold.  Returns the columns, ``LEAF`` for a node
    with no usable threshold, the thresholds, and the class counts of each
    split's left child (zeros for a leaf); the right child's are the
    node's less those.
    """
    split_column = np.full(len(node_rows), LEAF, dtype=np.int64)
    split_threshold = np.zeros(len(node_rows))
    split_left = np.zeros_like(node_counts)
    node, column, lower, upper, left = _boundaries(
        binned, node_rows, node_counts, node_columns
    )
    if node.size == 0:
        return split_column, split_threshold, split_left

    counts = np.take(node_counts.T, node, axis=1)
    n_rows = node_counts.sum(axis=1)[node]
    n_left = left.sum(axis=0)
    n_right = n_rows - n_left
    # One _gini_rows call for the left then the right children: a C-ordered
    # (rows, classes) array, as the sort search passed, so each row's sum
    # of squared shares rounds as it did there.
    impurity = _gini_rows(
        np.concatenate([left, counts - left], axis=1).T.astype(np.float64, order="C")
    )
    weighted = (
        n_left * impurity[: node.size] + n_right * impurity[node.size :]
    ) / n_rows

    midpoints = 0.5 * (lower + upper)
    # A midpoint that rounds up onto the right-hand value (adjacent floats)
    # would send every row left, so it is no candidate.
    weighted[midpoints >= upper] = np.inf

    # Each node's first minimum: its boundaries are one run, in bin order.
    starts_node = np.concatenate([[True], node[1:] != node[:-1]])
    first = np.flatnonzero(starts_node)
    lowest = np.minimum.reduceat(weighted, first)
    at_lowest = np.flatnonzero(weighted == lowest[np.cumsum(starts_node) - 1])
    best = at_lowest[np.searchsorted(at_lowest, first)][lowest != np.inf]
    split_column[node[best]] = column[best]
    split_threshold[node[best]] = midpoints[best]
    split_left[node[best]] = left[:, best].T
    return split_column, split_threshold, split_left


def _route(
    binned: BinnedRows,
    node_rows: Sequence[np.ndarray],
    column: np.ndarray,
    threshold: np.ndarray,
) -> list[np.ndarray]:
    """Split every node ``i`` on ``row[column[i]] <= threshold[i]``.

    Returns the children's rows, node ``i``'s left child at ``2 * i`` and
    its right child at ``2 * i + 1``, each in its parent's row order.
    """
    n_nodes = len(node_rows)
    rows = np.concatenate(node_rows)
    sizes = [r.shape[0] for r in node_rows]
    node_of_row = np.repeat(np.arange(n_nodes), sizes)
    # Each node's split column for every training row, zeros included.
    starts = binned.column_ptr[column]
    lengths = binned.column_ptr[column + 1] - starts
    entries, _ = index_ranges(starts, lengths)
    values = np.zeros((n_nodes, binned.n_rows))
    values[np.repeat(np.arange(n_nodes), lengths), binned.column_rows[entries]] = (
        binned.column_values[entries]
    )
    goes_left = values[node_of_row, rows] <= threshold[node_of_row]
    # Masking keeps the rows grouped by node, each group in its order.
    left, right = rows[goes_left], rows[~goes_left]
    ends = np.cumsum(sizes)
    left_ends = np.cumsum(goes_left)[ends - 1].tolist()
    right_ends = (ends - left_ends).tolist()
    children = []
    for a, b, c, d in zip([0] + left_ends, left_ends, [0] + right_ends, right_ends):
        children += (left[a:b], right[c:d])
    return children


class _Growth:
    """One tree being grown: its nodes so far and its stack of nodes to make."""

    __slots__ = ("column", "threshold", "right", "counts", "stack", "sampler")

    def __init__(self, rows: np.ndarray, counts: np.ndarray, sampler) -> None:
        self.column, self.threshold, self.right, self.counts = [], [], [], []
        # Entries are (rows, class counts, depth, parent whose right child
        # this is).  The left child is pushed last and popped first, so
        # nodes are made, and the sampler is called, in depth-first
        # preorder: a left child is always the node right after its parent.
        self.stack = [(rows, counts, 0, LEAF)]
        self.sampler = sampler

    def next_attempt(self, max_depth: int | None, min_samples_split: int):
        """Make nodes up to the next one to try to split; returns it as
        (node, rows, class counts, depth, candidate columns or None), or
        None once the tree is complete."""
        while self.stack:
            rows, counts, depth, parent = self.stack.pop()
            node = len(self.column)
            if parent != LEAF:
                self.right[parent] = node
            self.counts.append(counts)
            self.column.append(LEAF)
            self.threshold.append(0.0)
            self.right.append(LEAF)
            if (
                (max_depth is not None and depth >= max_depth)
                or rows.shape[0] < min_samples_split
                or np.count_nonzero(counts) == 1
            ):
                continue
            columns = None if self.sampler is None else self.sampler()
            return node, rows, counts, depth, columns
        return None

    def tree(self, n_classes: int) -> Tree:
        column = np.array(self.column, dtype=np.int64)
        return Tree(
            column=column,
            threshold=np.array(self.threshold, dtype=np.float64),
            right=np.array(self.right, dtype=np.int64),
            counts=np.array(self.counts, dtype=np.float64).reshape(
                column.size, n_classes
            ),
        )


def _batches(attempts: list) -> list[list]:
    """``attempts`` cut into runs of at most :data:`SEARCH_ROWS` rows, or
    of one node where a node alone has more."""
    batches, n_rows = [], 0
    for attempt in attempts:
        size = attempt[1][1].shape[0]
        if not batches or n_rows + size > SEARCH_ROWS:
            batches.append([])
            n_rows = 0
        batches[-1].append(attempt)
        n_rows += size
    return batches


def _split_batch(binned: BinnedRows, batch: list) -> None:
    """Search the (growth, attempt) pairs of ``batch`` at once, and push
    the children of every node that splits onto its growth's stack."""
    growths, attempts = zip(*batch)
    nodes, node_rows, node_counts, depths, node_columns = zip(*attempts)
    node_counts = np.array(node_counts)
    column, threshold, left = _best_splits(binned, node_rows, node_counts, node_columns)
    split = np.flatnonzero(column != LEAF).tolist()
    if not split:
        return
    children = _route(
        binned, [node_rows[i] for i in split], column[split], threshold[split]
    )
    right = node_counts - left
    for k, i in enumerate(split):
        growth, node, depth = growths[i], nodes[i], depths[i]
        growth.column[node] = int(column[i])
        growth.threshold[node] = float(threshold[i])
        growth.stack.append((children[2 * k + 1], right[i], depth + 1, node))
        growth.stack.append((children[2 * k], left[i], depth + 1, LEAF))


def _grow_group(
    binned: BinnedRows,
    members: list[tuple[np.ndarray, object]],
    max_depth: int | None,
    min_samples_split: int,
) -> list[Tree]:
    """Grow the (rows, column sampler) ``members`` in lockstep: each step
    searches every unfinished tree's next node to try."""
    growths = [
        _Growth(rows, np.bincount(binned.y[rows], minlength=binned.n_classes), sampler)
        for rows, sampler in members
    ]
    active = growths
    while active:
        attempts = [(g, g.next_attempt(max_depth, min_samples_split)) for g in active]
        attempts = [(g, a) for g, a in attempts if a is not None]
        for batch in _batches(attempts):
            _split_batch(binned, batch)
        active = [g for g, _ in attempts]
    return [g.tree(binned.n_classes) for g in growths]


def grow_trees(
    binned: BinnedRows,
    members,
    *,
    max_depth: int | None = None,
    min_samples_split: int = 2,
) -> list[Tree]:
    """Grow one tree per (rows, column sampler) pair of ``members``.

    ``rows`` are a tree's training rows; a bootstrap resample lists rows as
    often as it draws them.  The column sampler, when not None, is called
    once per attempt to split a node, in the tree's node preorder, and
    returns the distinct candidate columns of that split; None makes every
    column a candidate.  A tree does not depend on the others it is grown
    with.  ``members`` may be a lazy iterable: it is read
    :data:`GROW_GROUP` pairs at a time, and each group is grown in
    lockstep before the next is read.  The trainers check ``max_depth`` and
    ``min_samples_split``.
    """
    trees: list[Tree] = []
    members = iter(members)
    while group := list(islice(members, GROW_GROUP)):
        if any(rows.shape[0] == 0 for rows, _ in group):
            raise ValueError("cannot grow a tree on an empty training set")
        trees += _grow_group(binned, group, max_depth, min_samples_split)
    return trees


@dataclass(frozen=True)
class TreeModel(Model):
    """A fitted decision tree, or a committee of them, over a fixed vocabulary.

    A ``"decision_tree"`` holds one tree and scores a row with the class
    shares of the leaf it reaches.  A ``"random_forest"`` or ``"bagging"``
    holds its members, each voting for the first most frequent class of
    the leaf it reaches, and scores a row with each class's share of the
    votes.
    """

    kind: str
    trees: tuple[Tree, ...]
    hyper: dict = field(default_factory=dict)

    @cached_property
    def _stacked(self) -> tuple[Tree, np.ndarray, np.ndarray]:
        """The trees stacked into one node array, each tree's root in it,
        and each node's per-class table: its class shares for a decision
        tree, a one-hot of its vote for an ensemble."""
        stacked, roots = stack_trees(self.trees)
        counts = stacked.counts
        if self.kind == DECISION_TREE:
            table = counts / counts.sum(axis=1, keepdims=True)
        else:
            table = np.eye(counts.shape[1])[np.argmax(counts, axis=1)]
        return stacked, roots, table

    def _scores(self, matrix: DocTermMatrix) -> np.ndarray:
        """The mean over the trees of the table row at the leaf each row
        reaches, walked :data:`WALK_CHUNK` rows at a time."""
        stacked, roots, table = self._stacked
        scores = np.empty((matrix.n_docs, table.shape[1]))
        for start in range(0, matrix.n_docs, WALK_CHUNK):
            rows = np.arange(start, min(start + WALK_CHUNK, matrix.n_docs))
            # The chunk's dense rows are only the walk's argument, so they
            # are freed before the next chunk is densified.
            leaf = stacked.walk(
                matrix.take(rows).toarray(),
                np.tile(np.arange(rows.size), roots.size),
                np.repeat(roots, rows.size),
            )
            scores[rows] = table[leaf].reshape(roots.size, rows.size, -1).sum(axis=0)
        return scores / len(self.trees)


def _train_trees(kind: str, training: TrainingSet, hyper: dict) -> TreeModel:
    """The tree model of ``kind`` that the checked hyperparameters ``hyper``
    describe; a decision tree's give no committee size, seed or sampling."""
    binned = bin_rows(training.matrix, training.y(), len(training.classes))
    n_docs, n_terms = training.n_docs, training.matrix.n_terms
    bootstrap = hyper.get("bootstrap", False)
    k = hyper.get("n_features_per_split")
    sampled = k is not None and k < n_terms

    def member(m):
        rng = seeded_rng(hyper["seed"], m) if bootstrap or sampled else None
        rows = rng.integers(0, n_docs, size=n_docs) if bootstrap else np.arange(n_docs)
        return rows, (lambda: rng.choice(n_terms, size=k, replace=False)) if sampled else None

    # Read lazily, a group at a time, so that only one group's bootstrap
    # rows exist at once.
    trees = grow_trees(
        binned,
        map(member, range(hyper.get("n_members", 1))),
        max_depth=hyper["max_depth"],
        min_samples_split=hyper["min_samples_split"],
    )
    return TreeModel(kind=kind, **training.header(), trees=tuple(trees), hyper=hyper)


def train_decision_tree(
    training: TrainingSet,
    *,
    max_depth: MaxDepth = None,
    min_samples_split: MinSamplesSplit = 2,
) -> TreeModel:
    """Fit a single CART tree on the sparse training matrix."""
    return _train_trees(
        DECISION_TREE, training, check_hyperparameters(train_decision_tree, locals())
    )


def train_bagging(
    training: TrainingSet,
    *,
    n_members: Annotated[int, at_least(1), at_most(1_000)] = 15,
    max_depth: MaxDepth = None,
    min_samples_split: MinSamplesSplit = 2,
    seed: Seed = 0,
    bootstrap: bool = True,
) -> TreeModel:
    """Bagged trees: each member sees a bootstrap resample, all columns."""
    return _train_trees(BAGGING, training, check_hyperparameters(train_bagging, locals()))


def train_random_forest(
    training: TrainingSet,
    *,
    n_members: Annotated[int, at_least(1), at_most(1_000)] = 25,
    max_depth: MaxDepth = None,
    min_samples_split: MinSamplesSplit = 2,
    seed: Seed = 0,
    bootstrap: bool = True,
    n_features_per_split: Annotated[int | None, at_least(1)] = None,
) -> TreeModel:
    """Random forest: bagging plus a fresh column subset at every split.

    ``n_features_per_split`` defaults to ``floor(sqrt(n_terms))`` (at least
    one).  When it reaches the vocabulary size the subset covers every
    column and member trees coincide with plain bagged trees.
    """
    if n_features_per_split is None:
        n_features_per_split = max(1, floor(sqrt(training.matrix.n_terms)))
    return _train_trees(
        RANDOM_FOREST, training, check_hyperparameters(train_random_forest, locals())
    )
