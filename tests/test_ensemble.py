"""Tree ensembles: voting, seeding discipline, and degeneracy identities.

The key invariants: a one-member ensemble with no bootstrap and (for the
forest) a column budget covering the whole vocabulary must coincide
bit-for-bit with a plain decision tree, and member ``m`` must depend only
on ``(seed, m)`` so extending an ensemble never rewrites earlier members.
"""

import numpy as np
import pytest

from tweetsent.datagen import make_toy_training_set
from tweetsent.features import build_count_matrix, build_vocabulary
from tweetsent.lexicon import SentimentLabel
from tweetsent.models import (
    TrainingSet,
    TreeModel,
    train_bagging,
    train_decision_tree,
    train_random_forest,
)
from tweetsent.models.tree import LEAF, Tree

from conftest import one_row

TREE_ARRAYS = ("column", "threshold", "right", "counts")


def same_tree(a: Tree, b: Tree) -> bool:
    """Structural equality: all four per-node arrays are equal."""
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in TREE_ARRAYS)


def random_training_set(rng, n_docs=12, n_terms=4):
    """A small random integer-count training set with at least two classes."""
    labels_pool = (
        SentimentLabel.POSITIVE,
        SentimentLabel.NEUTRAL,
        SentimentLabel.NEGATIVE,
    )
    terms = [f"t{j}" for j in range(n_terms)]
    counts = rng.integers(0, 3, size=(n_docs, n_terms))
    docs = [
        [term for j, term in enumerate(terms) for _ in range(row[j])]
        for row in counts
    ]
    y = rng.integers(0, 3, size=n_docs)
    while np.unique(y).size < 2:
        y = rng.integers(0, 3, size=n_docs)
    vocab = build_vocabulary([terms] + docs)
    return TrainingSet(
        matrix=build_count_matrix(vocab, docs),
        labels=tuple(labels_pool[i] for i in y),
    )


class TestDegeneracyIdentities:
    """Switching off every source of ensemble randomness recovers the tree."""

    def test_single_member_forest_equals_plain_tree(self):
        """No bootstrap + full column budget: the forest IS the tree."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            training = random_training_set(rng)
            plain = train_decision_tree(training)
            forest = train_random_forest(
                training,
                n_members=1,
                bootstrap=False,
                n_features_per_split=training.matrix.n_terms,
                seed=int(rng.integers(1000)),
            )
            assert same_tree(plain.trees[0], forest.trees[0])

    def test_single_member_bagging_equals_plain_tree(self):
        """No bootstrap: the single bagged member IS the tree."""
        rng = np.random.default_rng(43)
        for _ in range(20):
            training = random_training_set(rng)
            plain = train_decision_tree(training)
            bagged = train_bagging(
                training, n_members=1, bootstrap=False, seed=int(rng.integers(1000))
            )
            assert same_tree(plain.trees[0], bagged.trees[0])

    def test_oversized_column_budget_behaves_like_no_budget(self):
        """A budget of n_terms or more must not consume any randomness."""
        training = make_toy_training_set()
        n_terms = training.matrix.n_terms
        exact = train_random_forest(training, n_features_per_split=n_terms, seed=1)
        oversized = train_random_forest(
            training, n_features_per_split=n_terms + 5, seed=1
        )
        for a, b in zip(exact.trees, oversized.trees):
            assert same_tree(a, b)


class TestSeeding:
    """Member m draws only from the (seed, m) substream."""

    def test_same_seed_reproduces_every_member(self):
        training = make_toy_training_set()
        a = train_random_forest(training, n_members=5, seed=11)
        b = train_random_forest(training, n_members=5, seed=11)
        for x, y in zip(a.trees, b.trees):
            assert same_tree(x, y)

    def test_extending_an_ensemble_keeps_earlier_members(self):
        """Members 0..2 of a 3-tree and a 6-tree ensemble are identical."""
        training = make_toy_training_set()
        small = train_bagging(training, n_members=3, seed=5)
        big = train_bagging(training, n_members=6, seed=5)
        for x, y in zip(small.trees, big.trees):
            assert same_tree(x, y)

    def test_different_seed_changes_the_bootstrap(self):
        training = make_toy_training_set()
        a = train_bagging(training, n_members=4, seed=0)
        b = train_bagging(training, n_members=4, seed=1)
        assert not all(
            same_tree(x, y) for x, y in zip(a.trees, b.trees)
        )

    def test_members_differ_from_each_other(self):
        """Distinct substreams draw distinct bootstraps (on a non-trivial set)."""
        training = make_toy_training_set()
        model = train_bagging(training, n_members=4, seed=2)
        roots = model.trees
        assert not all(same_tree(roots[0], m) for m in roots[1:])


class TestVoting:
    """Majority vote with canonical-order tie-breaking."""

    @staticmethod
    def _stump(winning_class_index):
        """A leaf-only tree that always predicts one class."""
        counts = np.zeros((1, 3))
        counts[0, winning_class_index] = 1.0
        leaf = np.array([LEAF])
        return Tree(column=leaf, threshold=np.zeros(1), right=leaf, counts=counts)

    def _committee(self, votes):
        return TreeModel(
            kind="bagging",
            classes=(
                SentimentLabel.POSITIVE,
                SentimentLabel.NEUTRAL,
                SentimentLabel.NEGATIVE,
            ),
            terms=("a",),
            weighting="counts",
            trees=tuple(self._stump(v) for v in votes),
        )

    def test_vote_counts_tally_member_predictions(self):
        model = self._committee([0, 2, 2, 1, 2])
        vec = one_row(model, [], [])
        scores = model.predict(vec).scores
        np.testing.assert_array_equal(
            [scores[c] for c in model.classes], np.array([1.0, 1.0, 3.0]) / 5
        )
        assert model.predict(vec).label is SentimentLabel.NEGATIVE

    def test_ties_break_to_the_earlier_class(self):
        """Positive precedes Negative, so a 1-1 split predicts Positive."""
        model = self._committee([2, 0])
        vec = one_row(model, [], [])
        assert model.predict(vec).label is SentimentLabel.POSITIVE

    def test_scores_are_vote_shares(self):
        model = self._committee([0, 0, 1, 2])
        vec = one_row(model, [], [])
        scores = model.predict(vec).scores
        assert scores[SentimentLabel.POSITIVE] == 0.5
        assert sum(scores.values()) == pytest.approx(1.0)


class TestTraining:
    """End-to-end behaviour of the two ensemble trainers."""

    def test_bagging_fits_the_toy_corpus(self):
        training = make_toy_training_set()
        model = train_bagging(training, seed=0)
        predicted = [
            model.predict(training.matrix.row(i)).label
            for i in range(training.n_docs)
        ]
        assert predicted == list(training.labels)

    def test_random_forest_fits_the_toy_corpus(self):
        training = make_toy_training_set()
        model = train_random_forest(training, seed=0)
        predicted = [
            model.predict(training.matrix.row(i)).label
            for i in range(training.n_docs)
        ]
        assert predicted == list(training.labels)

    def test_member_count_matches_request(self):
        model = train_bagging(make_toy_training_set(), n_members=7)
        assert len(model.trees) == 7

    def test_forest_records_its_default_column_budget(self):
        """The toy vocabulary has nine terms, so the default budget is 3."""
        model = train_random_forest(make_toy_training_set())
        assert model.hyper["n_features_per_split"] == 3
        assert "n_features_per_split" not in train_bagging(
            make_toy_training_set()
        ).hyper

    def test_disabling_every_randomness_makes_identical_members(self):
        """No bootstrap and no column budget leaves nothing to vary."""
        training = make_toy_training_set()
        model = train_random_forest(
            training,
            n_members=3,
            bootstrap=False,
            n_features_per_split=training.matrix.n_terms,
        )
        assert same_tree(model.trees[0], model.trees[1])
        assert same_tree(model.trees[0], model.trees[2])

    @pytest.mark.parametrize(
        "trainer, kwargs",
        [
            (train_bagging, {"n_members": 0}),
            (train_random_forest, {"n_members": -1}),
            (train_random_forest, {"n_features_per_split": 0}),
        ],
    )
    def test_rejects_bad_hyperparameters(self, trainer, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            trainer(make_toy_training_set(), **kwargs)
