"""Linear classifiers: gradient correctness, descent behaviour, SVM schedule.

The logistic-regression objective is differentiated by hand inside the
package, so the central suite here re-derives the gradient numerically
with central differences at randomly drawn parameter points and demands
near machine-precision agreement.  The SVM suite checks behavioural
contracts (fit quality, seeding, class requirements) and pins the fit bit
for bit to the earlier array-per-step Pegasos loop, kept here as an oracle.
"""

import numpy as np
import pytest

from tweetsent.datagen import make_toy_training_set
from tweetsent.exceptions import TrainingError
from tweetsent.features import (
    DocTermMatrix,
    SparseVector,
    build_count_matrix,
    build_vocabulary,
    tfidf_transform,
)
from tweetsent.lexicon import SentimentLabel
from tweetsent.models import TrainingSet, train_linear_svm, train_maxent
from tweetsent.models.linear import LinearModel, maxent_loss_and_grad


def _max_relative_gradient_error(x_dense, y, weights, bias, lam, h=1e-5):
    """Worst-coordinate gap between analytic and central-difference gradients.

    The gap is scaled by ``max(1, |analytic|, |numeric|)`` so coordinates
    near zero do not inflate the ratio.
    """
    _, grad_w, grad_b = maxent_loss_and_grad(weights, bias, x_dense, y, lam)
    worst = 0.0

    def loss_at(w, b):
        return maxent_loss_and_grad(w, b, x_dense, y, lam)[0]

    for idx in np.ndindex(weights.shape):
        bumped = weights.copy()
        bumped[idx] += h
        up = loss_at(bumped, bias)
        bumped[idx] -= 2 * h
        down = loss_at(bumped, bias)
        numeric = (up - down) / (2 * h)
        analytic = grad_w[idx]
        gap = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        worst = max(worst, gap)

    for j in range(bias.shape[0]):
        bumped = bias.copy()
        bumped[j] += h
        up = loss_at(weights, bumped)
        bumped[j] -= 2 * h
        down = loss_at(weights, bumped)
        numeric = (up - down) / (2 * h)
        analytic = grad_b[j]
        gap = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        worst = max(worst, gap)

    return worst


class TestMaxentGradient:
    """The hand-derived gradient must match finite differences exactly."""

    def test_analytic_gradient_matches_central_differences(self):
        """Twenty random parameter points, every coordinate within 1e-4."""
        training = make_toy_training_set()
        x_dense = training.matrix.toarray()
        y = training.y()
        n_classes = len(training.classes)
        n_terms = training.matrix.n_terms

        rng = np.random.default_rng(20240501)
        lams = (0.0, 1e-3, 0.1)
        worst = 0.0
        for point in range(20):
            weights = rng.normal(scale=0.7, size=(n_classes, n_terms))
            bias = rng.normal(scale=0.7, size=n_classes)
            lam = lams[point % len(lams)]
            worst = max(
                worst,
                _max_relative_gradient_error(x_dense, y, weights, bias, lam),
            )
        assert worst < 1e-4

    def test_ridge_penalty_enters_the_loss(self):
        """loss(lam) - loss(0) equals lam/2 times the squared weight norm."""
        training = make_toy_training_set()
        x_dense = training.matrix.toarray()
        y = training.y()
        rng = np.random.default_rng(7)
        weights = rng.normal(size=(3, training.matrix.n_terms))
        bias = rng.normal(size=3)

        plain, _, _ = maxent_loss_and_grad(weights, bias, x_dense, y, 0.0)
        ridged, _, _ = maxent_loss_and_grad(weights, bias, x_dense, y, 0.25)
        np.testing.assert_allclose(
            ridged - plain, 0.5 * 0.25 * (weights**2).sum(), rtol=1e-12
        )


class TestMaxentTraining:
    """Full-batch gradient descent from zero-initialized parameters."""

    def test_loss_trace_records_start_and_every_epoch(self):
        """The trace holds the initial loss plus one value per epoch."""
        model = train_maxent(make_toy_training_set(), epochs=25)
        assert len(model.loss_trace) == 26

    def test_initial_loss_is_log_of_class_count(self):
        """At zero weights every class is equally likely, so loss is ln(3)."""
        model = train_maxent(make_toy_training_set(), epochs=0)
        assert model.loss_trace[0] == pytest.approx(np.log(3.0), rel=1e-12)
        assert not model.weights.any()

    def test_loss_trace_non_increasing_at_default_step(self):
        """With eta=0.1 the objective never rises across 200 epochs."""
        model = train_maxent(make_toy_training_set(), eta=0.1, epochs=200)
        trace = np.array(model.loss_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_fits_the_toy_corpus(self):
        """All ten toy documents are classified correctly after training."""
        training = make_toy_training_set()
        model = train_maxent(training, eta=0.1, epochs=200)
        predicted = [
            model.predict(training.matrix.row(i)).label
            for i in range(training.n_docs)
        ]
        assert predicted == list(training.labels)

    def test_seed_does_not_change_the_fit(self):
        """Training is deterministic, so the seed argument is inert."""
        a = train_maxent(make_toy_training_set(), epochs=30, seed=0)
        b = train_maxent(make_toy_training_set(), epochs=30, seed=999)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.bias, b.bias)

    def test_divergence_is_reported(self):
        """An absurd step size drives the loss to infinity, which raises,
        with no numpy overflow warning on the way."""
        with pytest.raises(TrainingError, match="diverged"):
            train_maxent(make_toy_training_set(), eta=1e6, epochs=300)

    @pytest.mark.parametrize(
        "kwargs",
        [{"eta": 0.0}, {"eta": -0.1}, {"lam": -1e-3}, {"epochs": -1}],
    )
    def test_rejects_bad_hyperparameters(self, kwargs):
        """Non-positive step, negative ridge, or negative epochs are errors."""
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            train_maxent(make_toy_training_set(), **kwargs)


def reference_train_linear_svm(training, *, lam, epochs, seed):
    """The earlier Pegasos loop, kept verbatim in its arithmetic: numpy
    arrays for the margins, signs and bias of every step, and an ``np.ix_``
    update of the active classes.  Returns ``(weights, bias)``."""
    matrix = training.matrix
    y = training.y()
    n_docs = matrix.n_docs
    n_classes = len(training.classes)
    n_terms = matrix.n_terms

    signs = np.full((n_classes, n_docs), -1.0)
    signs[y, np.arange(n_docs)] = 1.0

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    scale = 1.0
    accum = np.zeros((n_classes, n_terms), dtype=np.float64)
    bias = np.zeros(n_classes, dtype=np.float64)

    t = 0
    for _ in range(epochs):
        order = rng.permutation(n_docs)
        for i in order:
            t += 1
            eta = 1.0 / (lam * t)
            start, stop = matrix.indptr[i], matrix.indptr[i + 1]
            cols = matrix.indices[start:stop]
            wts = matrix.data[start:stop]

            if cols.size:
                margins = scale * (accum[:, cols] @ wts) + bias
            else:
                margins = bias.copy()
            active = signs[:, i] * margins < 1.0

            if t == 1:
                accum[:] = 0.0
                scale = 1.0
            else:
                scale *= 1.0 - 1.0 / t

            if active.any():
                step = eta * signs[active, i]
                if cols.size:
                    accum[np.ix_(active, cols)] += (step / scale)[:, None] * wts
                bias[active] += step

    return scale * accum, bias


def random_training_set(seed, n_docs, n_classes, weighting):
    """Seeded documents over a 40-word vocabulary, one in eight of them
    empty (a row with no terms), labelled with ``n_classes`` classes."""
    rng = np.random.default_rng(seed)
    words = [f"w{j}" for j in range(40)]
    docs = [
        tuple(rng.choice(words, size=rng.integers(1, 12)))
        if rng.random() >= 0.125
        else ()
        for _ in range(n_docs)
    ]
    matrix = build_count_matrix(build_vocabulary(docs), docs)
    if weighting == "tfidf":
        matrix = tfidf_transform(matrix)
    classes = list(SentimentLabel)[:n_classes]
    labels = [classes[i % n_classes] for i in range(n_docs)]
    labels = tuple(labels[i] for i in rng.permutation(n_docs))
    assert any(stop == start for start, stop in zip(matrix.indptr, matrix.indptr[1:]))
    return TrainingSet(matrix=matrix, labels=labels)


class TestSvmMatchesReferenceLoop:
    """The list-per-document Pegasos loop reproduces the array-per-step one
    to the last bit."""

    @pytest.mark.parametrize("weighting", ["counts", "tfidf"])
    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("lam", [0.1, 1e-3])
    def test_identical_weights_and_bias(self, weighting, n_classes, lam):
        for seed in range(3):
            training = random_training_set(seed, 60, n_classes, weighting)
            model = train_linear_svm(training, lam=lam, epochs=8, seed=seed)
            weights, bias = reference_train_linear_svm(
                training, lam=lam, epochs=8, seed=seed
            )
            assert np.array_equal(model.weights, weights)
            assert np.array_equal(model.bias, bias)

    @pytest.mark.parametrize("weighting", ["counts", "tfidf"])
    def test_identical_when_every_class_is_active_every_step(self, weighting):
        """With a large lam no margin reaches 1, so each step updates every
        class: the branch where all rows of the update are active."""
        training = random_training_set(5, 40, 3, weighting)
        model = train_linear_svm(training, lam=1e3, epochs=4, seed=5)
        weights, bias = reference_train_linear_svm(training, lam=1e3, epochs=4, seed=5)
        x = training.matrix.toarray()
        assert (np.abs(x @ weights.T + bias) < 1.0).all()
        assert np.array_equal(model.weights, weights)
        assert np.array_equal(model.bias, bias)


class TestSvmTraining:
    """One-vs-rest Pegasos with a shared pass schedule."""

    def test_fits_the_toy_corpus(self):
        """All ten toy documents are classified correctly after training."""
        training = make_toy_training_set()
        model = train_linear_svm(training, seed=0)
        predicted = [
            model.predict(training.matrix.row(i)).label
            for i in range(training.n_docs)
        ]
        assert predicted == list(training.labels)

    def test_same_seed_reproduces_the_model(self):
        """Two runs with one seed agree to the last bit."""
        a = train_linear_svm(make_toy_training_set(), seed=3)
        b = train_linear_svm(make_toy_training_set(), seed=3)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.bias, b.bias)

    def test_different_seed_changes_the_pass_order(self):
        """Another seed shuffles documents differently, moving the weights."""
        a = train_linear_svm(make_toy_training_set(), seed=0)
        b = train_linear_svm(make_toy_training_set(), seed=7)
        assert not np.array_equal(a.weights, b.weights)

    def test_rejects_a_single_class(self):
        """One-vs-rest needs a rest: a one-class corpus cannot be fit."""
        docs = [("good",), ("fun",)]
        vocab = build_vocabulary(docs)
        training = TrainingSet(
            matrix=build_count_matrix(vocab, docs),
            labels=(SentimentLabel.POSITIVE, SentimentLabel.POSITIVE),
        )
        with pytest.raises(TrainingError, match="two classes"):
            train_linear_svm(training)

    def test_divergence_is_reported(self):
        """A lam so small that the first step is infinite leaves non-finite
        weights, which raise, with no numpy warning on the way."""
        with pytest.raises(TrainingError, match="diverged.*lam=5e-324"):
            train_linear_svm(make_toy_training_set(), lam=5e-324)

    @pytest.mark.parametrize("kwargs", [{"lam": 0.0}, {"lam": -1.0}, {"epochs": 0}])
    def test_rejects_bad_hyperparameters(self, kwargs):
        """Pegasos requires a positive regularizer and at least one epoch."""
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            train_linear_svm(make_toy_training_set(), **kwargs)


class TestLinearModelContract:
    """Scoring behaviour shared by both linear kinds."""

    @staticmethod
    def _model(kind):
        rng = np.random.default_rng(11)
        return LinearModel(
            kind=kind,
            classes=(
                SentimentLabel.POSITIVE,
                SentimentLabel.NEUTRAL,
                SentimentLabel.NEGATIVE,
            ),
            terms=("a", "b", "c", "d"),
            weights=rng.normal(size=(3, 4)),
            bias=rng.normal(size=3),
        )

    def test_decision_values_match_the_dense_formula(self):
        """Batch margins equal W @ x + b on the dense rows."""
        model = self._model("svm")
        matrix = DocTermMatrix(
            vocab=build_vocabulary([list(model.terms)]),
            indptr=np.array([0, 2, 2, 3]),
            indices=np.array([1, 3, 0]),
            data=np.array([2.0, -1.5, 0.5]),
            weighting="tfidf",
        )
        label_idx, scores = model.predict_batch(matrix)
        dense = matrix.toarray()
        np.testing.assert_allclose(scores, dense @ model.weights.T + model.bias)
        np.testing.assert_array_equal(label_idx, np.argmax(scores, axis=1))

    def test_maxent_scores_form_a_distribution(self):
        """Softmax scores are positive and sum to one."""
        model = self._model("maxent")
        vec = SparseVector(
            cols=np.array([0], dtype=np.int64), weights=np.array([1.0])
        )
        scores = model.predict(vec).scores
        assert all(s > 0.0 for s in scores.values())
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-12)

    def test_svm_scores_are_raw_margins(self):
        """SVM predictions expose decision values, not normalized scores."""
        model = self._model("svm")
        vec = SparseVector(
            cols=np.array([2], dtype=np.int64), weights=np.array([4.0])
        )
        dense = np.zeros(4)
        dense[vec.cols] = vec.weights
        margins = model.weights @ dense + model.bias
        scores = model.predict(vec).scores
        np.testing.assert_allclose(
            [scores[c] for c in model.classes], margins
        )

    def test_out_of_range_column_is_rejected(self):
        """A vector indexing past the vocabulary raises immediately."""
        model = self._model("svm")
        vec = SparseVector(
            cols=np.array([4], dtype=np.int64), weights=np.array([1.0])
        )
        with pytest.raises(ValueError, match="out of range"):
            model.predict(vec)
