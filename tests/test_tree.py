"""Decision tree: Gini arithmetic, an exhaustive split oracle, and growth rules.

The core suite draws random small datasets and checks the tree's root split
against a brute-force enumeration of every (column, threshold) candidate,
so the histogram split search inside the package is validated by an
independent, obviously-correct implementation.  A second oracle, the
earlier one-column-at-a-time sort search, pins the exact split and whole
tree the histogram search must reproduce, tie-breaks included: node by
node in random batches, and for single trees and every bagging and
random-forest member grown in lockstep.
"""

import numpy as np
import pytest

from tweetsent.datagen import make_toy_training_set
from tweetsent.features import COUNTS, DocTermMatrix, build_count_matrix, build_vocabulary
from tweetsent.lexicon import SentimentLabel
from tweetsent.models import (
    DECISION_TREE,
    TrainingSet,
    TreeModel,
    seeded_rng,
    train_bagging,
    train_decision_tree,
    train_random_forest,
)
from tweetsent.models import tree as tree_module
from tweetsent.models.tree import (
    LEAF,
    Tree,
    _best_splits,
    _gini_rows,
    bin_rows,
    grow_trees,
    stack_trees,
)

from conftest import one_row


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


def enumerate_weighted_ginis(x, y, n_classes):
    """Weighted child impurity of every admissible (column, threshold) split.

    Thresholds are midpoints between consecutive distinct sorted values of a
    column; a midpoint that rounds up onto the right-hand value is skipped
    because it cannot separate the rows.  Returns a list of
    ``(weighted_gini, column, threshold)`` triples.
    """
    n_rows = x.shape[0]
    candidates = []
    for col in range(x.shape[1]):
        distinct = np.unique(x[:, col])
        for lo, hi in zip(distinct[:-1], distinct[1:]):
            threshold = 0.5 * (lo + hi)
            if threshold >= hi:
                continue
            left = y[x[:, col] <= threshold]
            right = y[x[:, col] > threshold]
            weighted = (
                left.size * gini_impurity(np.bincount(left, minlength=n_classes))
                + right.size * gini_impurity(np.bincount(right, minlength=n_classes))
            ) / n_rows
            candidates.append((weighted, col, float(threshold)))
    return candidates


def weighted_gini_of_split(x, y, n_classes, column, threshold):
    """Weighted child impurity of one concrete split of the full dataset."""
    left = y[x[:, column] <= threshold]
    right = y[x[:, column] > threshold]
    return (
        left.size * gini_impurity(np.bincount(left, minlength=n_classes))
        + right.size * gini_impurity(np.bincount(right, minlength=n_classes))
    ) / x.shape[0]


def reference_best_split(x, y, n_classes, rows, columns):
    """The per-column split search the vectorized one replaced, kept verbatim
    in its arithmetic: one stable argsort and one one-hot prefix sum per
    column, then the lowest weighted impurity with an admissible midpoint,
    ties to the first column in ``columns`` and then the lowest threshold."""
    n_rows = rows.shape[0]
    best = None
    for col in columns:
        values = x[rows, col]
        order = np.argsort(values, kind="stable")
        sorted_vals = values[order]
        boundaries = np.nonzero(sorted_vals[:-1] < sorted_vals[1:])[0]
        if boundaries.size == 0:
            continue
        one_hot = np.zeros((n_rows, n_classes), dtype=np.float64)
        one_hot[np.arange(n_rows), y[rows[order]]] = 1.0
        prefix = one_hot.cumsum(axis=0)

        left_counts = prefix[boundaries]
        right_counts = prefix[-1] - left_counts
        n_left = boundaries + 1
        n_right = n_rows - n_left
        weighted = (
            n_left * _gini_rows(left_counts) + n_right * _gini_rows(right_counts)
        ) / n_rows

        pick = None
        threshold = 0.0
        for j in np.argsort(weighted, kind="stable"):
            midpoint = 0.5 * (sorted_vals[boundaries[j]] + sorted_vals[boundaries[j] + 1])
            if midpoint < sorted_vals[boundaries[j] + 1]:
                pick, threshold = int(j), float(midpoint)
                break
        if pick is None:
            continue
        if best is None or weighted[pick] < best[0]:
            best = (float(weighted[pick]), int(col), threshold)
    if best is None:
        return None
    return best[1], best[2]


def binned_rows(x, y, n_classes):
    """Dense ``x`` as a sparse matrix with labels ``y``, binned for the search."""
    rows, cols = np.nonzero(x)
    indptr = np.zeros(x.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=x.shape[0]), out=indptr[1:])
    matrix = DocTermMatrix(
        vocab=build_vocabulary([[f"t{j}" for j in range(x.shape[1])]]),
        indptr=indptr,
        indices=cols.astype(np.int64),
        data=x[rows, cols].astype(np.float64),
        weighting=COUNTS,
    )
    return bin_rows(matrix, y, n_classes)


def left_counts(x, y, n_classes, rows, column, threshold):
    """Class counts of the ``rows`` of dense ``x`` that a split sends left."""
    return np.bincount(y[rows][x[rows, column] <= threshold], minlength=n_classes)


def histogram_split(x, y, n_classes, rows, columns):
    """The package's histogram search, called with the reference's arguments
    as a batch of one node: its (column, threshold), or None.  The left
    child's counts it gives must be those of the rows the split sends left."""
    node_counts = np.bincount(y[rows], minlength=n_classes)
    column, threshold, left = _best_splits(
        binned_rows(x, y, n_classes), [rows], node_counts[None], [columns]
    )
    if column[0] == LEAF:
        return None
    np.testing.assert_array_equal(
        left[0], left_counts(x, y, n_classes, rows, column[0], threshold[0])
    )
    return int(column[0]), float(threshold[0])


def grow(x, y, n_classes, *, rows=None, column_sampler=None, **kwargs):
    """A tree grown on dense rows ``x``, all of them by default, as a
    one-member :func:`grow_trees` call."""
    if rows is None:
        rows = np.arange(x.shape[0])
    (tree,) = grow_trees(
        binned_rows(x, y, n_classes), [(rows, column_sampler)], **kwargs
    )
    return tree


def reference_search(x, y, n_classes):
    """A stand-in for the batched search that answers each node of a batch
    with ``reference_best_split`` on dense rows ``x``, and each split's left
    counts by recounting the rows it sends left."""
    all_columns = np.arange(x.shape[1])

    def search(binned, node_rows, node_counts, node_columns):
        column = np.full(len(node_rows), LEAF)
        threshold = np.zeros(len(node_rows))
        left = np.zeros_like(node_counts)
        for i, (rows, columns) in enumerate(zip(node_rows, node_columns)):
            split = reference_best_split(
                x, y, n_classes, rows, all_columns if columns is None else columns
            )
            if split is not None:
                column[i], threshold[i] = split
                left[i] = left_counts(x, y, n_classes, rows, *split)
        return column, threshold, left

    return search


def reference_tree(monkeypatch, x, y, n_classes, **kwargs):
    """A tree grown on dense rows ``x`` with ``reference_best_split`` in
    place of the histogram search."""
    with monkeypatch.context() as patch:
        patch.setattr(tree_module, "_best_splits", reference_search(x, y, n_classes))
        return grow(x, y, n_classes, **kwargs)


def reference_grow(x, y, n_classes, *, rows=None, column_sampler=None):
    """A tree grown recursively, node by node in preorder, with
    ``reference_best_split``: an engine-independent oracle for the whole
    tree and, through ``column_sampler``, for the order of its calls."""
    nodes = []  # [column, threshold, right, counts]

    def grow(rows):
        node = len(nodes)
        counts = np.bincount(y[rows], minlength=n_classes)
        nodes.append([LEAF, 0.0, LEAF, counts])
        if rows.shape[0] < 2 or np.count_nonzero(counts) == 1:
            return node
        columns = np.arange(x.shape[1]) if column_sampler is None else column_sampler()
        split = reference_best_split(x, y, n_classes, rows, columns)
        if split is not None:
            goes_left = x[rows, split[0]] <= split[1]
            nodes[node][:2] = split
            grow(rows[goes_left])  # the left child is the next node
            nodes[node][2] = grow(rows[~goes_left])
        return node

    grow(np.arange(y.shape[0]) if rows is None else rows)
    column, threshold, right, counts = zip(*nodes)
    return Tree(
        column=np.array(column),
        threshold=np.array(threshold),
        right=np.array(right),
        counts=np.array(counts, dtype=np.float64),
    )


def flatten_tree(tree):
    """Per-node (column, threshold, right, counts) tuples in preorder:
    equal iff the trees are."""
    return list(
        zip(
            tree.column.tolist(),
            tree.threshold.tolist(),
            tree.right.tolist(),
            map(tuple, tree.counts.tolist()),
        )
    )


def is_leaf(tree):
    """Whether the root is a leaf, i.e. the tree is a single node."""
    return tree.column[0] == LEAF


# An adjacent-float pair whose midpoint rounds up onto the right-hand value.
ADJ_LO = np.nextafter(1.0, 2.0)
ADJ_HI = np.nextafter(ADJ_LO, 2.0)


def count_matrix(rng, n_rows, n_cols):
    """Small-integer counts, mostly zero: many ties in values and impurities."""
    x = rng.integers(0, 4, size=(n_rows, n_cols)).astype(np.float64)
    return x * (rng.random((n_rows, n_cols)) < 0.5)


def tfidf_matrix(rng, n_rows, n_cols):
    """Counts times per-column ln(n / df)-style weights, as TF-IDF rows."""
    idf = np.log(n_rows / rng.integers(1, n_rows + 1, size=n_cols))
    return count_matrix(rng, n_rows, n_cols) * idf


def adjacent_float_matrix(rng, n_rows, n_cols):
    """Columns drawn from {0, ADJ_LO, ADJ_HI}, so some boundaries are unusable."""
    return np.array([0.0, ADJ_LO, ADJ_HI])[rng.integers(0, 3, size=(n_rows, n_cols))]


def count_training_set(rng, n_docs, n_terms):
    """A random count-matrix training set over three classes."""
    labels = (SentimentLabel.POSITIVE, SentimentLabel.NEUTRAL, SentimentLabel.NEGATIVE)
    terms = [f"t{j}" for j in range(n_terms)]
    counts = count_matrix(rng, n_docs, n_terms).astype(np.int64)
    docs = [[t for t, c in zip(terms, row) for _ in range(c)] for row in counts]
    return TrainingSet(
        matrix=build_count_matrix(build_vocabulary([terms] + docs), docs),
        labels=tuple(labels[i] for i in rng.integers(0, 3, size=n_docs)),
    )


class TestSplitSearchMatchesPerColumnReference:
    """The histogram search returns the reference's exact (column, threshold)."""

    @staticmethod
    def _cases(make, seed, n_cases=300, subsets=False):
        rng = np.random.default_rng(seed)
        for _ in range(n_cases):
            n_rows = int(rng.integers(2, 40))
            n_cols = int(rng.integers(1, 10))
            n_classes = int(rng.integers(2, 4))
            x = make(rng, n_rows, n_cols)
            y = rng.integers(0, n_classes, size=n_rows)
            # Bootstrap-style rows: repeats allowed, corpus order kept.
            rows = np.sort(rng.integers(0, n_rows, size=int(rng.integers(2, n_rows + 2))))
            if subsets:
                size = int(rng.integers(1, n_cols + 1))
                columns = np.sort(rng.choice(n_cols, size=size, replace=False))
            else:
                columns = np.arange(n_cols)
            yield x, y, n_classes, rows, columns

    @pytest.mark.parametrize(
        "make, seed",
        [(count_matrix, 11), (tfidf_matrix, 12), (adjacent_float_matrix, 13)],
        ids=["counts", "tfidf", "adjacent-floats"],
    )
    @pytest.mark.parametrize("subsets", [False, True], ids=["all-columns", "subsets"])
    def test_identical_split(self, make, seed, subsets):
        found = 0
        for case in self._cases(make, seed, subsets=subsets):
            expected = reference_best_split(*case)
            assert histogram_split(*case) == expected
            found += expected is not None
        assert found >= 200  # most cases have a usable split

    @pytest.mark.parametrize(
        "make, seed", [(count_matrix, 21), (tfidf_matrix, 22)], ids=["counts", "tfidf"]
    )
    def test_identical_split_three_classes_larger_nodes(self, make, seed):
        """Bootstrap nodes of hundreds of rows over three classes, so bins
        hold many rows and repeated rows."""
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n_rows = int(rng.integers(200, 800))
            n_cols = int(rng.integers(1, 10))
            x = make(rng, n_rows, n_cols)
            y = rng.integers(0, 3, size=n_rows)
            rows = np.sort(rng.integers(0, n_rows, size=n_rows))  # a bootstrap
            case = (x, y, 3, rows, np.arange(n_cols))
            assert histogram_split(*case) == reference_best_split(*case)

    @pytest.mark.parametrize(
        "make, seed",
        [(count_matrix, 41), (tfidf_matrix, 42), (adjacent_float_matrix, 43)],
        ids=["counts", "tfidf", "adjacent-floats"],
    )
    def test_identical_split_on_a_member_root(self, make, seed):
        """Root rows as an ensemble member passes them, an unsorted
        bootstrap with repeats, over a random column subset."""
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n_rows = int(rng.integers(2, 40))
            n_cols = int(rng.integers(1, 10))
            x = make(rng, n_rows, n_cols)
            y = rng.integers(0, 3, size=n_rows)
            rows = rng.integers(0, n_rows, size=n_rows)
            size = int(rng.integers(1, n_cols + 1))
            columns = np.sort(rng.choice(n_cols, size=size, replace=False))
            case = (x, y, 3, rows, columns)
            assert histogram_split(*case) == reference_best_split(*case)

    def test_unusable_midpoint_is_skipped(self):
        """The best-impurity boundary lies between adjacent floats, so the
        split falls back to the next candidate, as in the reference."""
        assert 0.5 * (ADJ_LO + ADJ_HI) == ADJ_HI
        x = np.array(
            [[ADJ_LO, 0.0], [ADJ_LO, 0.0], [ADJ_HI, 0.0], [ADJ_HI, 1.0]]
        )
        y = np.array([0, 0, 1, 1])
        case = (x, y, 2, np.arange(4), np.arange(2))
        assert histogram_split(*case) == reference_best_split(*case) == (1, 0.5)

    def test_only_unusable_midpoints_give_none(self):
        x = np.array([[ADJ_LO], [ADJ_HI], [ADJ_HI]])
        case = (x, np.array([0, 1, 1]), 2, np.arange(3), np.arange(1))
        assert reference_best_split(*case) is None
        assert histogram_split(*case) is None

    def test_all_constant_columns_give_none(self):
        x = np.tile(np.array([[0.0, 2.0, 0.5]]), (6, 1))
        case = (x, np.array([0, 1, 2, 0, 1, 2]), 3, np.arange(6), np.arange(3))
        assert reference_best_split(*case) is None
        assert histogram_split(*case) is None

    @pytest.mark.parametrize(
        "make", [count_matrix, tfidf_matrix, adjacent_float_matrix]
    )
    @pytest.mark.parametrize("sampled", [False, True], ids=["all-columns", "sampled"])
    @pytest.mark.parametrize("bootstrap", [False, True], ids=["all-rows", "bootstrap"])
    def test_whole_trees_are_identical(self, monkeypatch, make, sampled, bootstrap):
        """Trees grown with either search agree node for node; the impurity
        oracle above cannot see a changed tie-break, this can.  A bootstrap
        tree grows from row indices, repeats included, into the binning of
        all rows; the reference tree grows on the resampled rows ``x[rows]``."""
        rng = np.random.default_rng(2024)
        for trial in range(20):
            x = make(rng, 60, 12)
            y = rng.integers(0, 3, size=60)
            rows = rng.integers(0, 60, size=60) if bootstrap else np.arange(60)

            def sampler():
                sampler_rng = np.random.default_rng(trial)
                if sampled:
                    return lambda: np.sort(sampler_rng.choice(12, size=4, replace=False))
                return None

            histogram = grow(x, y, 3, rows=rows, column_sampler=sampler())
            reference = reference_tree(
                monkeypatch, x[rows], y[rows], 3, column_sampler=sampler()
            )
            assert flatten_tree(histogram) == flatten_tree(reference)

    @pytest.mark.parametrize("trainer", [train_bagging, train_random_forest])
    def test_ensemble_members_are_identical(self, monkeypatch, trainer):
        """Each member, grown from the ensemble's one binning, equals the
        reference tree grown on its resampled rows, with the same per-split
        column draws."""
        rng = np.random.default_rng(31)
        for seed in range(4):
            training = count_training_set(rng, 60, 12)
            model = trainer(training, n_members=3, seed=seed)
            x, y = training.matrix.toarray(), training.y()
            for m, member in enumerate(model.trees):
                member_draws = seeded_rng(seed, m)
                rows = member_draws.integers(0, 60, size=60)
                k = model.hyper.get("n_features_per_split")
                sampler = (
                    (lambda: np.sort(member_draws.choice(12, size=k, replace=False)))
                    if k is not None
                    else None
                )
                reference = reference_tree(
                    monkeypatch, x[rows], y[rows], 3, column_sampler=sampler
                )
                assert flatten_tree(member) == flatten_tree(reference)


class TestLockstepGrowth:
    """Growing many trees at once changes no tree, no sampler call and no
    prediction."""

    @pytest.mark.parametrize(
        "make, seed",
        [(count_matrix, 61), (tfidf_matrix, 62), (adjacent_float_matrix, 63)],
        ids=["counts", "tfidf", "adjacent-floats"],
    )
    def test_batched_search_equals_the_reference_node_by_node(self, make, seed):
        """Random batches mixing node sizes, bootstrap repeats, column
        subsets and all columns, and nodes with no usable threshold: every
        node gets the reference's exact (column, threshold), and every split
        node the class counts of the rows it sends left."""
        rng = np.random.default_rng(seed)
        found = unsplittable = 0
        for _ in range(80):
            n_rows = int(rng.integers(2, 40))
            n_cols = int(rng.integers(1, 10))
            n_classes = int(rng.integers(2, 4))
            x = make(rng, n_rows, n_cols)
            y = rng.integers(0, n_classes, size=n_rows)
            node_rows, node_columns = [], []
            for _ in range(int(rng.integers(1, 9))):
                size = int(rng.integers(1, 2 * n_rows))
                # One row, repeated or not, has no threshold at all.
                rows = rng.integers(0, n_rows, size=size) if rng.random() < 0.8 else (
                    np.full(size, rng.integers(0, n_rows))
                )
                node_rows.append(rows)
                if rng.random() < 0.5:
                    node_columns.append(None)
                else:
                    k = int(rng.integers(1, n_cols + 1))
                    node_columns.append(np.sort(rng.choice(n_cols, size=k, replace=False)))
            node_counts = np.array([np.bincount(y[r], minlength=n_classes) for r in node_rows])
            column, threshold, left = _best_splits(
                binned_rows(x, y, n_classes), node_rows, node_counts, node_columns
            )
            for i, (rows, columns) in enumerate(zip(node_rows, node_columns)):
                if columns is None:
                    columns = np.arange(n_cols)
                expected = reference_best_split(x, y, n_classes, rows, columns)
                got = None if column[i] == LEAF else (int(column[i]), float(threshold[i]))
                assert got == expected
                if got is not None:
                    np.testing.assert_array_equal(
                        left[i], left_counts(x, y, n_classes, rows, *got)
                    )
                found += expected is not None
                unsplittable += expected is None
        assert found >= 150 and unsplittable >= 30

    @pytest.mark.parametrize("make", [count_matrix, adjacent_float_matrix])
    def test_every_member_calls_its_sampler_as_a_reference_grow(self, make):
        """Each member's sampler is called as often, with the same draws,
        as by a recursive preorder grow of that member alone with the
        reference search, and the trees agree."""
        rng = np.random.default_rng(71)
        x = make(rng, 60, 12)
        y = rng.integers(0, 3, size=60)
        n_members = 9
        member_rows = [rng.integers(0, 60, size=60) for _ in range(n_members)]

        def logged(log, member):
            draws = np.random.default_rng(member)

            def sampler():
                log.append(np.sort(draws.choice(12, size=4, replace=False)))
                return log[-1]

            return sampler

        logs = [[] for _ in range(n_members)]
        trees = grow_trees(
            binned_rows(x, y, 3),
            [(rows, logged(log, m)) for m, (rows, log) in enumerate(zip(member_rows, logs))],
        )
        for m, rows in enumerate(member_rows):
            alone = []
            reference = reference_grow(x, y, 3, rows=rows, column_sampler=logged(alone, m))
            assert flatten_tree(trees[m]) == flatten_tree(reference)
            assert len(logs[m]) == len(alone) > 1
            assert all(np.array_equal(a, b) for a, b in zip(logs[m], alone))

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("trainer", [train_bagging, train_random_forest])
    def test_results_do_not_depend_on_group_and_chunk_sizes(
        self, monkeypatch, trainer, size
    ):
        """Growing one or two trees at a time, searching batches of one or
        two rows' worth of nodes, and walking one or two rows at a time give
        the same members and the same scores as the default sizes."""
        training = count_training_set(np.random.default_rng(81), 70, 12)
        expected = trainer(training, n_members=5, seed=4)
        expected_scores = expected.predict_batch(training.matrix)[1]
        monkeypatch.setattr(tree_module, "GROW_GROUP", size)
        monkeypatch.setattr(tree_module, "SEARCH_ROWS", size)
        monkeypatch.setattr(tree_module, "WALK_CHUNK", size)
        model = trainer(training, n_members=5, seed=4)
        assert [flatten_tree(t) for t in model.trees] == [
            flatten_tree(t) for t in expected.trees
        ]
        np.testing.assert_array_equal(model.predict_batch(training.matrix)[1], expected_scores)

    def test_stacked_walk_equals_the_per_member_walk(self, monkeypatch):
        """Walking the stacked members from each root reaches each member's
        own leaves, and the ensemble's vote shares, walked chunk by chunk
        of the sparse rows, tally the members' walks."""
        training = count_training_set(np.random.default_rng(91), 80, 12)
        model = train_random_forest(training, n_members=7, seed=2)
        x = training.matrix.toarray()
        n_rows = x.shape[0]
        forest, roots = stack_trees(model.trees)
        assert forest.n_nodes == sum(t.n_nodes for t in model.trees)
        stacked = forest.walk(
            x, np.tile(np.arange(n_rows), 7), np.repeat(roots, n_rows)
        ).reshape(7, n_rows).T
        votes = np.zeros((n_rows, len(model.classes)))
        for m, (root, member) in enumerate(zip(roots, model.trees)):
            leaves = member.walk(x, np.arange(n_rows), np.zeros(n_rows, dtype=np.int64))
            np.testing.assert_array_equal(stacked[:, m], root + leaves)
            votes[np.arange(n_rows), np.argmax(member.counts[leaves], axis=1)] += 1
        monkeypatch.setattr(tree_module, "WALK_CHUNK", 16)
        np.testing.assert_array_equal(model.predict_batch(training.matrix)[1], votes / 7)


class TestNodeCounts:
    """A node counts every row that reaches it, repeats included."""

    def test_counts_follow_duplicated_bootstrap_rows(self):
        rng = np.random.default_rng(5)
        x = count_matrix(rng, 40, 6)
        y = rng.integers(0, 3, size=40)
        rows = rng.integers(0, 40, size=40)
        assert np.unique(rows).size < rows.size
        tree = grow(x, y, 3, rows=rows)
        assert tree.n_nodes > 1
        np.testing.assert_array_equal(tree.counts[0], np.bincount(y[rows], minlength=3))
        # Every resampled row reaches the leaf it was routed to in training.
        reached = tree.walk(x, rows, np.zeros(rows.size, dtype=np.int64))
        for node in range(tree.n_nodes):
            if tree.column[node] == LEAF:
                expected = np.bincount(y[rows][reached == node], minlength=3)
            else:
                expected = tree.counts[node + 1] + tree.counts[tree.right[node]]
            np.testing.assert_array_equal(tree.counts[node], expected)


class TestBinning:
    """What the binning stores follows the entries, bins and columns."""

    def test_binned_rows_keep_three_values_per_entry(self):
        """On a wide random matrix, the binning's arrays with one value per
        stored entry (its code, and its row and value by column) take 24
        bytes an entry; the rest take at most three int64s per row, two
        values plus one code per class per bin, and two int64s per column.
        Neither an entry's column code nor a per-class zero bin is stored."""
        rng = np.random.default_rng(11)
        n_rows, n_columns, n_classes = 400, 3000, 3
        x = count_matrix(rng, n_rows, n_columns) * (rng.random((n_rows, n_columns)) < 0.05)
        binned = binned_rows(x, rng.integers(0, n_classes, size=n_rows), n_classes)
        nnz, n_bins = np.count_nonzero(x), binned.bin_value.shape[0]
        assert nnz not in {n_rows, n_bins, n_classes * n_bins, n_columns, n_columns + 1}
        arrays = [
            value for value in vars(binned).values() if isinstance(value, np.ndarray)
        ]
        per_entry = sum(a.nbytes for a in arrays if a.shape[0] == nnz)
        assert per_entry == 24 * nnz
        rest = sum(a.nbytes for a in arrays if a.shape[0] != nnz)
        assert rest <= 8 * (3 * n_rows + (2 + n_classes) * n_bins + 2 * n_columns + 1)


class TestGiniImpurity:
    """The oracle's impurity values checked against hand arithmetic."""

    @pytest.mark.parametrize(
        "counts, expected",
        [
            ([5, 0, 0], 0.0),
            ([1, 1], 0.5),
            ([1, 1, 1], 2.0 / 3.0),
            ([2, 1, 1], 0.625),
            ([3, 1], 1.0 - (9.0 + 1.0) / 16.0),
        ],
    )
    def test_hand_computed_values(self, counts, expected):
        """1 - sum of squared class fractions, worked by hand."""
        assert gini_impurity(counts) == pytest.approx(expected, abs=1e-15)

    def test_rejects_matrix_input(self):
        """Only 1-D count vectors are meaningful."""
        with pytest.raises(ValueError, match="1-D"):
            gini_impurity(np.ones((2, 2)))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            gini_impurity([3, -1])

    def test_rejects_empty_node(self):
        with pytest.raises(ValueError, match="empty"):
            gini_impurity([0, 0, 0])


class TestRootSplitOracle:
    """The chosen root split must be optimal under exhaustive enumeration."""

    def test_root_split_minimises_weighted_gini(self):
        """100 random 8-document, 3-term datasets, exact agreement.

        Feature values are small integers so duplicated values and tied
        impurities occur often, exercising the boundary handling and the
        tie-break rules rather than only the generic path.
        """
        rng = np.random.default_rng(1905)
        checked_splits = 0
        for _ in range(100):
            x = rng.integers(0, 4, size=(8, 3)).astype(np.float64)
            y = rng.integers(0, 3, size=8)
            while np.unique(y).size < 2:
                y = rng.integers(0, 3, size=8)

            tree = grow(x, y, 3)
            candidates = enumerate_weighted_ginis(x, y, 3)
            if not candidates:
                assert is_leaf(tree)
                continue

            checked_splits += 1
            assert not is_leaf(tree)
            achieved = weighted_gini_of_split(x, y, 3, tree.column[0], tree.threshold[0])
            best = min(w for w, _, _ in candidates)
            assert achieved == pytest.approx(best, abs=1e-12)
        assert checked_splits >= 90  # constant columns are rare at this size

    def test_tied_columns_break_to_the_lowest_column(self):
        """Two identical columns: the split must use column 0."""
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        tree = grow(x, y, 2)
        assert (tree.column[0], tree.threshold[0]) == (0, 0.5)

    def test_tied_thresholds_break_to_the_lowest_threshold(self):
        """Values 0,1,2 with labels 0,1,0: both midpoints tie at 1/3."""
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 0])
        tree = grow(x, y, 2)
        assert (tree.column[0], tree.threshold[0]) == (0, 0.5)


class TestGrowTree:
    """Stopping rules and split admissibility."""

    def test_pure_node_is_a_leaf(self):
        """No split is attempted once one class remains."""
        x = np.array([[0.0], [1.0], [2.0]])
        tree = grow(x, np.array([1, 1, 1]), 2)
        assert is_leaf(tree)
        np.testing.assert_array_equal(tree.counts, [[0.0, 3.0]])

    def test_max_depth_zero_forces_a_leaf_root(self):
        x = np.array([[0.0], [1.0]])
        tree = grow(x, np.array([0, 1]), 2, max_depth=0)
        assert is_leaf(tree)

    def test_max_depth_bounds_the_tree(self):
        """A depth-1 stump cannot perfectly fit three classes on one column."""
        x = np.arange(6, dtype=np.float64).reshape(6, 1)
        y = np.array([0, 0, 1, 1, 2, 2])
        tree = grow(x, y, 3, max_depth=1)
        assert tree.depth == 1
        assert grow(x, y, 3).depth == 2

    def test_min_samples_split_forces_a_leaf(self):
        x = np.array([[0.0], [1.0], [2.0]])
        tree = grow(x, np.array([0, 1, 0]), 2, min_samples_split=4)
        assert is_leaf(tree)

    def test_zero_gain_split_is_still_taken(self):
        """An alternating-label square has no impurity-reducing root split,
        yet two levels of splits fit it perfectly."""
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([0, 0, 1, 1])
        tree = grow(x, y, 2)
        assert not is_leaf(tree)
        assert tree.depth == 2
        assert tree.n_nodes == 7
        root_gini = gini_impurity(tree.counts[0])
        assert weighted_gini_of_split(x, y, 2, tree.column[0], tree.threshold[0]) == (
            pytest.approx(root_gini)
        )

    def test_constant_columns_make_a_leaf(self):
        """With no distinct values anywhere there is nothing to split on."""
        x = np.ones((4, 2))
        tree = grow(x, np.array([0, 1, 0, 1]), 2)
        assert is_leaf(tree)

    def test_column_sampler_restricts_candidate_columns(self):
        """A sampler that only offers column 1 overrides a better column 0."""
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        tree = grow(x, y, 2, column_sampler=lambda: np.array([1]))
        assert tree.column[0] == 1

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            grow(np.empty((0, 2)), np.empty(0, dtype=np.int64), 2)

    @pytest.mark.parametrize(
        "kwargs", [{"max_depth": -1}, {"min_samples_split": 1}]
    )
    def test_rejects_bad_hyperparameters(self, kwargs):
        """The trainer checks the growth limits; grow_trees, which only the
        trainers call, takes them as given."""
        training = TrainingSet(
            matrix=build_count_matrix(build_vocabulary([["a"]]), [[], ["a"]]),
            labels=(SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE),
        )
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            train_decision_tree(training, **kwargs)


class TestDecisionTreeModel:
    """Routing and scoring of a fitted tree."""

    @staticmethod
    def _stump():
        """value[term 0] <= 0.5 goes to a Positive leaf, else Negative."""
        return TreeModel(
            kind=DECISION_TREE,
            classes=(
                SentimentLabel.POSITIVE,
                SentimentLabel.NEUTRAL,
                SentimentLabel.NEGATIVE,
            ),
            terms=("a", "b"),
            weighting="counts",
            trees=(
                Tree(
                    column=np.array([0, LEAF, LEAF]),
                    threshold=np.array([0.5, 0.0, 0.0]),
                    right=np.array([2, LEAF, LEAF]),
                    counts=np.array([[3.0, 0.0, 2.0], [3.0, 0.0, 0.0], [0.0, 0.0, 2.0]]),
                ),
            ),
        )

    def test_fits_the_toy_corpus_exactly(self):
        """Distinct count signatures let the tree memorise all ten documents."""
        training = make_toy_training_set()
        model = train_decision_tree(training)
        predicted = [
            model.predict(training.matrix.row(i)).label
            for i in range(training.n_docs)
        ]
        assert predicted == list(training.labels)

    def test_absent_terms_route_as_zero(self):
        """A document without the split term takes the <= branch."""
        model = self._stump()
        empty = one_row(model, [], [])
        assert model.predict(empty).label is SentimentLabel.POSITIVE
        present = one_row(model, [0], [1.0])
        assert model.predict(present).label is SentimentLabel.NEGATIVE

    def test_scores_are_leaf_class_shares(self):
        """Scores report the training-class mix of the reached leaf."""
        model = self._stump()
        vec = one_row(model, [0], [2.0])
        scores = model.predict(vec).scores
        assert scores[SentimentLabel.NEGATIVE] == 1.0
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_out_of_range_column_is_rejected(self):
        model = self._stump()
        vec = one_row(model, [2], [1.0])
        with pytest.raises(ValueError, match="out of range"):
            model.predict(vec)
