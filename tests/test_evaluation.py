"""Evaluation harness: confusion tallies, P/R/F1 arithmetic, k-fold CV.

Metric values are checked against hand-worked fractions on small fixed
confusion matrices, and the cross-validation loop is probed with
instrumented trainers to pin down exactly which rows each fold sees.
"""

import numpy as np
import pytest

from tweetsent.datagen import make_toy_training_set
from tweetsent.evaluation import (
    ConfusionMatrix,
    accuracy,
    confusion_matrix,
    cross_validate,
    f1_from_precision_recall,
    k_fold_split,
    macro_average,
    per_class_metrics,
    precision_recall_f1,
    score,
)
from tweetsent.features import build_count_matrix, build_vocabulary
from tweetsent.lexicon import SentimentLabel
from tweetsent.models import TrainingSet, train_naive_bayes

POS = SentimentLabel.POSITIVE
NEU = SentimentLabel.NEUTRAL
NEG = SentimentLabel.NEGATIVE


def three_class_matrix():
    """A fixed 3x3 confusion matrix used by several hand-worked checks.

    Rows are gold, columns predicted:
          P  Neu Neg
    P   [ 5,  1,  0]
    Neu [ 2,  3,  1]
    Neg [ 0,  1,  4]
    """
    return ConfusionMatrix(
        classes=(POS, NEU, NEG),
        counts=np.array([[5, 1, 0], [2, 3, 1], [0, 1, 4]], dtype=np.int64),
    )


class TestConfusionMatrix:
    """Tallying and axis conventions."""

    def test_tallies_gold_rows_and_predicted_columns(self):
        gold = [POS, POS, NEU, NEG]
        predicted = [POS, NEU, NEU, POS]
        cm = confusion_matrix(gold, predicted)
        assert cm.count(POS, POS) == 1
        assert cm.count(POS, NEU) == 1
        assert cm.count(NEU, NEU) == 1
        assert cm.count(NEG, POS) == 1
        assert cm.total == 4

    def test_default_classes_follow_canonical_order(self):
        """Only labels that occur appear, ordered Positive, Neutral, Negative."""
        cm = confusion_matrix([NEG, POS], [POS, POS])
        assert cm.classes == (POS, NEG)

    def test_explicit_classes_keep_unseen_rows(self):
        cm = confusion_matrix([POS], [POS], classes=(POS, NEU, NEG))
        assert cm.counts.shape == (3, 3)
        assert cm.count(NEU, NEU) == 0

    def test_accessor_arithmetic(self):
        cm = three_class_matrix()
        assert cm.true_positives(NEU) == 3
        assert cm.false_positives(NEU) == 2  # one gold P and one gold Neg
        assert cm.false_negatives(NEU) == 3  # two predicted P, one Neg

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="gold labels"):
            confusion_matrix([POS], [POS, NEG])

    def test_rejects_labels_outside_the_class_list(self):
        with pytest.raises(ValueError, match="not in the class list"):
            confusion_matrix([POS], [NEG], classes=(POS, NEU))

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="no classes"):
            confusion_matrix([], [])

    def test_rejects_mismatched_count_shape(self):
        with pytest.raises(ValueError, match="does not match"):
            ConfusionMatrix(classes=(POS, NEG), counts=np.zeros((3, 3)))


class TestPerClassMetrics:
    """Precision, recall, and F1 against hand-worked fractions."""

    def test_hand_worked_positive_class(self):
        """tp=5, fp=2, fn=1 gives P=5/7, R=5/6, F1=10/13."""
        metrics = precision_recall_f1(three_class_matrix(), POS)
        assert metrics.precision == pytest.approx(5 / 7)
        assert metrics.recall == pytest.approx(5 / 6)
        assert metrics.f1 == pytest.approx(10 / 13)
        assert metrics.support == 6

    def test_hand_worked_neutral_class(self):
        """tp=3, fp=2, fn=3 gives P=3/5, R=1/2, F1=6/11."""
        metrics = precision_recall_f1(three_class_matrix(), NEU)
        assert metrics.precision == pytest.approx(3 / 5)
        assert metrics.recall == pytest.approx(1 / 2)
        assert metrics.f1 == pytest.approx(6 / 11)

    def test_never_predicted_class_scores_zero(self):
        """All denominators guard against 0/0 by defining the score as 0."""
        cm = confusion_matrix([POS, POS], [POS, POS], classes=(POS, NEG))
        metrics = precision_recall_f1(cm, NEG)
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.f1 == 0.0
        assert metrics.support == 0

    @pytest.mark.parametrize(
        "precision, recall, expected",
        [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (1.0, 0.0, 0.0)],
    )
    def test_f1_harmonic_mean(self, precision, recall, expected):
        assert f1_from_precision_recall(precision, recall) == pytest.approx(expected)


class TestMacroAndAccuracy:
    """Unweighted class means and the accuracy trace."""

    def test_macro_average_is_the_unweighted_mean(self):
        per_class = per_class_metrics(three_class_matrix())
        macro = macro_average(per_class)
        assert macro.precision == pytest.approx(
            np.mean([m.precision for m in per_class])
        )
        assert macro.f1 == pytest.approx(np.mean([m.f1 for m in per_class]))

    def test_macro_average_rejects_empty_input(self):
        with pytest.raises(ValueError, match="zero classes"):
            macro_average([])

    def test_accuracy_is_trace_over_total(self):
        assert accuracy(three_class_matrix()) == pytest.approx(12 / 17)

    def test_accuracy_of_empty_matrix_is_zero(self):
        cm = ConfusionMatrix(classes=(POS, NEG), counts=np.zeros((2, 2), dtype=np.int64))
        assert accuracy(cm) == 0.0


class TestKFoldSplit:
    """Seeded round-robin splitting."""

    def test_folds_partition_the_rows(self):
        splits = k_fold_split(10, 3, seed=1)
        all_test = np.concatenate([test for _, test in splits])
        np.testing.assert_array_equal(np.sort(all_test), np.arange(10))

    def test_train_is_the_complement_of_test(self):
        for train, test in k_fold_split(11, 4, seed=2):
            combined = np.sort(np.concatenate([train, test]))
            np.testing.assert_array_equal(combined, np.arange(11))
            assert np.intersect1d(train, test).size == 0

    def test_fold_sizes_differ_by_at_most_one(self):
        sizes = [test.size for _, test in k_fold_split(10, 4, seed=0)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 10

    def test_indices_come_back_sorted(self):
        for train, test in k_fold_split(9, 3, seed=5):
            assert np.all(np.diff(train) > 0)
            assert np.all(np.diff(test) > 0)

    def test_same_seed_reproduces_the_split(self):
        a = k_fold_split(20, 4, seed=7)
        b = k_fold_split(20, 4, seed=7)
        for (ta, sa), (tb, sb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(sa, sb)

    def test_different_seed_changes_the_split(self):
        a = k_fold_split(20, 4, seed=0)
        b = k_fold_split(20, 4, seed=1)
        assert any(
            not np.array_equal(sa, sb) for (_, sa), (_, sb) in zip(a, b)
        )

    def test_rejects_fewer_than_two_folds(self):
        with pytest.raises(ValueError, match="k >= 2"):
            k_fold_split(10, 1)

    def test_rejects_more_folds_than_documents(self):
        with pytest.raises(ValueError, match="cannot split"):
            k_fold_split(3, 4)


class TestCrossValidate:
    """The CV loop: what each fold sees and how results aggregate."""

    def test_each_fold_trains_on_the_complement(self):
        """An instrumented trainer observes exactly the train-split row counts."""
        training = make_toy_training_set()
        seen_sizes = []

        def recording_trainer(sub):
            seen_sizes.append(sub.n_docs)
            return train_naive_bayes(sub)

        result = cross_validate(recording_trainer, training, k=5, seed=0)
        assert seen_sizes == [8, 8, 8, 8, 8]
        assert [fm.n_test for fm in result.folds] == [2, 2, 2, 2, 2]

    def test_aggregates_match_fold_values(self):
        result = cross_validate(train_naive_bayes, make_toy_training_set(), k=5)
        accuracies = [fm.accuracy for fm in result.folds]
        assert result.mean_accuracy == pytest.approx(np.mean(accuracies))
        assert result.std_accuracy == pytest.approx(np.std(accuracies))
        assert result.mean_macro.f1 == pytest.approx(
            np.mean([fm.macro.f1 for fm in result.folds])
        )
        assert result.k == 5

    def test_same_seed_reproduces_the_result(self):
        a = cross_validate(train_naive_bayes, make_toy_training_set(), k=4, seed=3)
        b = cross_validate(train_naive_bayes, make_toy_training_set(), k=4, seed=3)
        assert [fm.accuracy for fm in a.folds] == [fm.accuracy for fm in b.folds]

    def test_losing_a_class_in_a_training_split_warns(self):
        """A class with one document disappears from one fold's training split."""
        docs = [("good",)] * 5 + [("bad",)]
        labels = (POS,) * 5 + (NEG,)
        vocab = build_vocabulary(docs)
        training = TrainingSet(
            matrix=build_count_matrix(vocab, docs), labels=labels
        )
        result = cross_validate(train_naive_bayes, training, k=2, seed=0)
        assert len(result.warnings) == 1
        assert "lost class" in result.warnings[0]

    def test_full_corpus_without_class_loss_has_no_warnings(self):
        result = cross_validate(train_naive_bayes, make_toy_training_set(), k=2)
        assert result.warnings == ()


class TestScore:
    """The one scoring path of cross-validation folds and saved models."""

    def test_labels_map_through_the_model_classes_onto_the_given_classes(self):
        """The model knows Positive and Negative only; the confusion matrix
        still spans all three classes, so absent Neutral scores zero."""
        docs = [("good",)] * 3 + [("bad",)]
        matrix = build_count_matrix(build_vocabulary(docs), docs)
        gold = (POS, POS, POS, NEG)
        model = train_naive_bayes(TrainingSet(matrix=matrix, labels=gold))
        assert model.classes == (POS, NEG)
        acc, macro = score(model, matrix, gold, (POS, NEU, NEG))
        assert acc == 1.0
        assert macro.precision == pytest.approx(2 / 3)
        assert macro.recall == pytest.approx(2 / 3)
