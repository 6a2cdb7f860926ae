"""Multinomial naive Bayes against exact Bayes-rule arithmetic.

The core suite enumerates a grid of tiny corpora (documents as explicit
count vectors, every labeling with at least two distinct classes) and
checks the trained model's posteriors against rational-arithmetic
(`fractions.Fraction`) Bayes computations, so there is no floating-point
reference involved.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from tweetsent.features import build_count_matrix, build_vocabulary
from tweetsent.lexicon import CANONICAL_LABELS, SentimentLabel
from tweetsent.models import TrainingSet, train_naive_bayes

from conftest import one_row


def _training_set(count_rows: tuple[tuple[int, ...], ...], labels) -> TrainingSet:
    """Build a TrainingSet whose count matrix equals ``count_rows`` exactly."""
    n_terms = len(count_rows[0])
    terms = [f"t{j}" for j in range(n_terms)]
    docs = [
        [term for j, term in enumerate(terms) for _ in range(row[j])]
        for row in count_rows
    ]
    # the seed document mentions every term once so the vocabulary always
    # has all n_terms columns in a fixed order; it is not part of the data
    vocab = build_vocabulary([terms] + docs)
    return TrainingSet(matrix=build_count_matrix(vocab, docs), labels=tuple(labels))


def _oracle_posteriors(count_rows, labels, query, alpha=Fraction(1)):
    """Exact multinomial Bayes posteriors for one query count vector."""
    classes = sorted(set(labels))
    n_docs = len(count_rows)
    n_terms = len(count_rows[0])
    joints = []
    for cls in classes:
        rows = [row for row, lab in zip(count_rows, labels) if lab == cls]
        prior = Fraction(len(rows), n_docs)
        total = sum(sum(row) for row in rows)
        joint = prior
        for t in range(n_terms):
            count_t = sum(row[t] for row in rows)
            theta = (count_t + alpha) / (total + alpha * n_terms)
            joint *= theta ** query[t]
        joints.append(joint)
    denominator = sum(joints)
    return classes, [joint / denominator for joint in joints]


def _label_combinations(n_docs: int, class_pool) -> list[tuple]:
    """All labelings from the pool that use at least two distinct classes."""
    return [
        combo
        for combo in itertools.product(class_pool, repeat=n_docs)
        if len(set(combo)) >= 2
    ]


def _grid_cases():
    """The enumerated (count_rows, labels) grid; several thousand cases."""
    pos, neu, neg = CANONICAL_LABELS
    slices = [
        # (n_docs, n_terms, count values per cell, class pool)
        (2, 1, (0, 1, 2), (pos, neu, neg)),
        (2, 2, (0, 1, 2), (pos, neg)),
        (2, 4, (0, 1), (pos, neg)),
        (3, 1, (0, 1, 2), (pos, neu, neg)),
        (3, 2, (0, 1), (pos, neu, neg)),
        (4, 1, (0, 1, 2), (pos, neg)),
        (5, 1, (0, 1), (pos, neg)),
    ]
    for n_docs, n_terms, values, pool in slices:
        rows = list(itertools.product(values, repeat=n_terms))
        for count_rows in itertools.product(rows, repeat=n_docs):
            for labels in _label_combinations(n_docs, pool):
                yield count_rows, labels


class TestBruteForceOracle:
    def test_posteriors_match_exact_bayes_arithmetic(self):
        """Model posteriors equal rational Bayes results within 1e-9."""
        n_cases = 0
        n_checks = 0
        for count_rows, labels in _grid_cases():
            ts = _training_set(count_rows, labels)
            model = train_naive_bayes(ts)
            n_cases += 1
            for query in set(count_rows):
                classes, expected = _oracle_posteriors(count_rows, labels, query)
                cols = np.array([j for j, c in enumerate(query) if c], dtype=np.int64)
                weights = np.array([c for c in query if c], dtype=np.float64)
                got = model.predict(one_row(model, cols, weights)).scores
                for cls, exact in zip(classes, expected):
                    assert got[cls] == pytest.approx(float(exact), abs=1e-9)
                    n_checks += 1
        assert n_cases >= 200, f"grid shrank to {n_cases} cases"
        assert n_checks >= 3 * n_cases

    def test_empty_query_posterior_is_the_prior(self):
        ts = _training_set(((1, 0), (0, 1), (1, 1)),
                           (SentimentLabel.POSITIVE, SentimentLabel.POSITIVE,
                            SentimentLabel.NEGATIVE))
        model = train_naive_bayes(ts)
        empty = one_row(model, [], [])
        scores = model.predict(empty).scores
        assert scores[SentimentLabel.POSITIVE] == pytest.approx(2 / 3, abs=1e-12)
        assert scores[SentimentLabel.NEGATIVE] == pytest.approx(1 / 3, abs=1e-12)


class TestModelBehaviour:
    def test_posterior_sums_to_one(self):
        ts = _training_set(((2, 0), (0, 2)),
                           (SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE))
        model = train_naive_bayes(ts)
        vec = one_row(model, [0], [3.0])
        assert sum(model.predict(vec).scores.values()) == pytest.approx(1.0, abs=1e-12)

    def test_exact_tie_predicts_canonical_first_class(self):
        """Symmetric data gives equal posteriors; Positive wins the tie."""
        ts = _training_set(((1,), (1,)),
                           (SentimentLabel.NEGATIVE, SentimentLabel.POSITIVE))
        model = train_naive_bayes(ts)
        vec = one_row(model, [0], [1.0])
        prediction = model.predict(vec)
        assert prediction.scores[SentimentLabel.POSITIVE] == pytest.approx(
            prediction.scores[SentimentLabel.NEGATIVE]
        )
        assert prediction.label is SentimentLabel.POSITIVE

    def test_likelihoods_normalise_over_vocabulary(self):
        ts = _training_set(((1, 2, 0), (0, 1, 1)),
                           (SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE))
        model = train_naive_bayes(ts, alpha=0.5)
        sums = np.exp(model.weights).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_documents_without_terms_fit_the_prior(self):
        """No counts: every term is equally likely, and the prior decides."""
        ts = _training_set(((0, 0), (0, 0), (0, 0)),
                           (SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE,
                            SentimentLabel.NEGATIVE))
        model = train_naive_bayes(ts)
        np.testing.assert_allclose(np.exp(model.weights), 0.5, rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.exp(model.bias), [1 / 3, 2 / 3], rtol=1e-15)

    def test_classes_cannot_be_given(self):
        """A training set's classes are derived from its labels, so no
        caller can reorder them and move the tie-break."""
        ts = _training_set(((1,), (2,)),
                           (SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE))
        with pytest.raises(TypeError, match="classes"):
            TrainingSet(
                matrix=ts.matrix,
                labels=ts.labels,
                classes=(SentimentLabel.NEGATIVE, SentimentLabel.POSITIVE),
            )

    @pytest.mark.parametrize("labels", list(itertools.permutations(CANONICAL_LABELS)))
    def test_classes_are_canonical_whatever_the_label_order(self, labels):
        ts = _training_set(((1,), (2,), (3,)), labels)
        assert ts.classes == CANONICAL_LABELS
        kept = {labels[2], labels[0]}
        assert ts.take([2, 0]).classes == tuple(c for c in CANONICAL_LABELS if c in kept)

    def test_alpha_must_be_positive(self):
        ts = _training_set(((1,), (2,)),
                           (SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE))
        with pytest.raises(ValueError, match="alpha"):
            train_naive_bayes(ts, alpha=0.0)
