"""Decision tree: Gini arithmetic, an exhaustive split oracle, and growth rules.

The core suite draws random small datasets and checks the tree's root split
against a brute-force enumeration of every (column, threshold) candidate,
so the vectorized split search inside the package is validated by an
independent, obviously-correct implementation.  A second oracle, the
earlier one-column-at-a-time search, pins the exact split and whole tree
the vectorized search must reproduce, tie-breaks included.
"""

import numpy as np
import pytest

from tweetsent.datagen import make_toy_training_set
from tweetsent.exceptions import TrainingError
from tweetsent.features import SparseVector
from tweetsent.lexicon import SentimentLabel
from tweetsent.models import train_decision_tree
from tweetsent.models import tree as tree_module
from tweetsent.models.tree import (
    LEAF,
    DecisionTreeModel,
    Tree,
    _best_split,
    _gini_rows,
    gini_impurity,
    grow_tree,
)


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


def flatten_tree(tree):
    """Per-node (column, threshold, left, right, counts) tuples in preorder:
    equal iff the trees are."""
    return list(
        zip(
            tree.column.tolist(),
            tree.threshold.tolist(),
            tree.left.tolist(),
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


class TestSplitSearchMatchesPerColumnReference:
    """The vectorized search returns the reference's exact (column, threshold)."""

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
            assert _best_split(*case) == expected
            found += expected is not None
        assert found >= 200  # most cases have a usable split

    @pytest.mark.parametrize(
        "make, seed", [(count_matrix, 21), (tfidf_matrix, 22)], ids=["counts", "tfidf"]
    )
    def test_identical_split_three_classes_larger_nodes(self, make, seed):
        """Nodes of hundreds of rows over three classes, so every class's
        packed count runs well past a few bits."""
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n_rows = int(rng.integers(200, 800))
            n_cols = int(rng.integers(1, 10))
            x = make(rng, n_rows, n_cols)
            y = rng.integers(0, 3, size=n_rows)
            rows = np.sort(rng.integers(0, n_rows, size=n_rows))  # a bootstrap
            case = (x, y, 3, rows, np.arange(n_cols))
            assert _best_split(*case) == reference_best_split(*case)

    def test_unusable_midpoint_is_skipped(self):
        """The best-impurity boundary lies between adjacent floats, so the
        split falls back to the next candidate, as in the reference."""
        assert 0.5 * (ADJ_LO + ADJ_HI) == ADJ_HI
        x = np.array(
            [[ADJ_LO, 0.0], [ADJ_LO, 0.0], [ADJ_HI, 0.0], [ADJ_HI, 1.0]]
        )
        y = np.array([0, 0, 1, 1])
        case = (x, y, 2, np.arange(4), np.arange(2))
        assert _best_split(*case) == reference_best_split(*case) == (1, 0.5)

    def test_only_unusable_midpoints_give_none(self):
        x = np.array([[ADJ_LO], [ADJ_HI], [ADJ_HI]])
        case = (x, np.array([0, 1, 1]), 2, np.arange(3), np.arange(1))
        assert reference_best_split(*case) is None
        assert _best_split(*case) is None

    def test_all_constant_columns_give_none(self):
        x = np.tile(np.array([[0.0, 2.0, 0.5]]), (6, 1))
        case = (x, np.array([0, 1, 2, 0, 1, 2]), 3, np.arange(6), np.arange(3))
        assert reference_best_split(*case) is None
        assert _best_split(*case) is None

    @pytest.mark.parametrize(
        "make", [count_matrix, tfidf_matrix, adjacent_float_matrix]
    )
    @pytest.mark.parametrize("sampled", [False, True], ids=["all-columns", "sampled"])
    def test_whole_trees_are_identical(self, monkeypatch, make, sampled):
        """Trees grown with either search agree node for node; the impurity
        oracle above cannot see a changed tie-break, this can."""
        rng = np.random.default_rng(2024)
        for trial in range(20):
            x = make(rng, 60, 12)
            y = rng.integers(0, 3, size=60)

            def grow():
                sampler_rng = np.random.default_rng(trial)
                sampler = (
                    (lambda: np.sort(sampler_rng.choice(12, size=4, replace=False)))
                    if sampled
                    else None
                )
                return flatten_tree(grow_tree(x, y, 3, column_sampler=sampler))

            vectorized = grow()
            with monkeypatch.context() as patch:
                patch.setattr(tree_module, "_best_split", reference_best_split)
                reference = grow()
            assert vectorized == reference


class TestTrainingSetSizeLimit:
    """The split search packs class counts into 21-bit fields of an int64."""

    def test_largest_counts_fit_their_fields(self):
        """MAX_TREE_ROWS in every field at once neither carries into the next
        field nor reaches the sign bit, so every prefix count is exact."""
        limit = tree_module.MAX_TREE_ROWS
        assert limit < 1 << tree_module._FIELD_BITS
        packed = sum(limit << int(shift) for shift in tree_module._CLASS_SHIFTS)
        assert packed <= np.iinfo(np.int64).max

    def test_more_rows_than_the_limit_is_a_training_error(self, monkeypatch):
        monkeypatch.setattr(tree_module, "MAX_TREE_ROWS", 5)
        x = np.arange(12, dtype=np.float64).reshape(6, 2)
        y = np.array([0, 1, 2, 0, 1, 2])
        with pytest.raises(TrainingError, match="at most 5 documents, got 6"):
            grow_tree(x, y, 3)
        assert grow_tree(x[:5], y[:5], 3).n_nodes > 1


class TestGiniImpurity:
    """Impurity values checked against hand arithmetic."""

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

            tree = grow_tree(x, y, 3)
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
        tree = grow_tree(x, y, 2)
        assert (tree.column[0], tree.threshold[0]) == (0, 0.5)

    def test_tied_thresholds_break_to_the_lowest_threshold(self):
        """Values 0,1,2 with labels 0,1,0: both midpoints tie at 1/3."""
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 0])
        tree = grow_tree(x, y, 2)
        assert (tree.column[0], tree.threshold[0]) == (0, 0.5)


class TestGrowTree:
    """Stopping rules and split admissibility."""

    def test_pure_node_is_a_leaf(self):
        """No split is attempted once one class remains."""
        x = np.array([[0.0], [1.0], [2.0]])
        tree = grow_tree(x, np.array([1, 1, 1]), 2)
        assert is_leaf(tree)
        np.testing.assert_array_equal(tree.counts, [[0.0, 3.0]])

    def test_max_depth_zero_forces_a_leaf_root(self):
        x = np.array([[0.0], [1.0]])
        tree = grow_tree(x, np.array([0, 1]), 2, max_depth=0)
        assert is_leaf(tree)

    def test_max_depth_bounds_the_tree(self):
        """A depth-1 stump cannot perfectly fit three classes on one column."""
        x = np.arange(6, dtype=np.float64).reshape(6, 1)
        y = np.array([0, 0, 1, 1, 2, 2])
        tree = grow_tree(x, y, 3, max_depth=1)
        assert tree.depth == 1
        assert grow_tree(x, y, 3).depth == 2

    def test_min_samples_split_forces_a_leaf(self):
        x = np.array([[0.0], [1.0], [2.0]])
        tree = grow_tree(x, np.array([0, 1, 0]), 2, min_samples_split=4)
        assert is_leaf(tree)

    def test_zero_gain_split_is_still_taken(self):
        """An alternating-label square has no impurity-reducing root split,
        yet two levels of splits fit it perfectly."""
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([0, 0, 1, 1])
        tree = grow_tree(x, y, 2)
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
        tree = grow_tree(x, np.array([0, 1, 0, 1]), 2)
        assert is_leaf(tree)

    def test_column_sampler_restricts_candidate_columns(self):
        """A sampler that only offers column 1 overrides a better column 0."""
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        tree = grow_tree(x, y, 2, column_sampler=lambda: np.array([1]))
        assert tree.column[0] == 1

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            grow_tree(np.empty((0, 2)), np.empty(0, dtype=np.int64), 2)

    @pytest.mark.parametrize(
        "kwargs", [{"max_depth": -1}, {"min_samples_split": 1}]
    )
    def test_rejects_bad_hyperparameters(self, kwargs):
        x = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            grow_tree(x, np.array([0, 1]), 2, **kwargs)


class TestDecisionTreeModel:
    """Routing and scoring of a fitted tree."""

    @staticmethod
    def _stump():
        """value[term 0] <= 0.5 goes to a Positive leaf, else Negative."""
        return DecisionTreeModel(
            classes=(
                SentimentLabel.POSITIVE,
                SentimentLabel.NEUTRAL,
                SentimentLabel.NEGATIVE,
            ),
            terms=("a", "b"),
            tree=Tree(
                column=np.array([0, LEAF, LEAF]),
                threshold=np.array([0.5, 0.0, 0.0]),
                left=np.array([1, LEAF, LEAF]),
                right=np.array([2, LEAF, LEAF]),
                counts=np.array([[3.0, 0.0, 2.0], [3.0, 0.0, 0.0], [0.0, 0.0, 2.0]]),
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
        empty = SparseVector(
            cols=np.array([], dtype=np.int64), weights=np.array([])
        )
        assert model.predict(empty).label is SentimentLabel.POSITIVE
        present = SparseVector(
            cols=np.array([0], dtype=np.int64), weights=np.array([1.0])
        )
        assert model.predict(present).label is SentimentLabel.NEGATIVE

    def test_scores_are_leaf_class_shares(self):
        """Scores report the training-class mix of the reached leaf."""
        model = self._stump()
        vec = SparseVector(
            cols=np.array([0], dtype=np.int64), weights=np.array([2.0])
        )
        scores = model.predict(vec).scores
        assert scores[SentimentLabel.NEGATIVE] == 1.0
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_out_of_range_column_is_rejected(self):
        model = self._stump()
        vec = SparseVector(
            cols=np.array([2], dtype=np.int64), weights=np.array([1.0])
        )
        with pytest.raises(ValueError, match="out of range"):
            model.predict(vec)
