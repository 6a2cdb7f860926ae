"""Linear classifiers: gradient correctness, descent behaviour, SVM schedule.

The logistic-regression objective is differentiated by hand inside the
package, so the central suite here re-derives the gradient numerically
with central differences at randomly drawn parameter points and demands
near machine-precision agreement.  The SVM suite checks behavioural
contracts (fit quality, seeding, class requirements) and pins the fit bit
for bit to the earlier array-per-step Pegasos loop, kept here as an oracle.
Both fits are also pinned to the earlier array forms of their arithmetic:
"bit for bit" means equal bytes, since ``np.array_equal`` counts
``-0.0 == 0.0``.  The SVM's margin product is pinned to its definition, a
left-to-right sum on Python floats, by an input on which a fused
(exactly rounded) product would make another hinge decision.
"""

from fractions import Fraction

import numpy as np
import pytest

from tweetsent.datagen import make_toy_training_set
from tweetsent.evaluation import k_fold_split
from tweetsent.exceptions import TrainingError
from tweetsent.features import (
    DocTermMatrix,
    build_count_matrix,
    build_vocabulary,
    tfidf_transform,
)
from tweetsent.lexicon import SentimentLabel
from tweetsent.models import TrainingSet, train_linear_svm, train_maxent
from tweetsent.models.linear import LinearModel, maxent_loss_and_grad

from conftest import one_row


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


def reference_maxent_loss_and_grad(weights, bias, x_dense, y, lam):
    """The earlier loss and gradient, kept verbatim in its arithmetic: a
    fresh array for every intermediate and ``.mean()`` for the averages."""
    n_docs = x_dense.shape[0]
    gold = (np.arange(n_docs), y)
    one_hot = np.zeros((n_docs, weights.shape[0]))
    one_hot[gold] = 1.0
    margins = x_dense @ weights.T + bias
    shifted = margins - margins.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    loss = -float(log_probs[gold].mean())
    loss += 0.5 * lam * float((weights * weights).sum())

    probs = np.exp(log_probs)
    delta = probs - one_hot
    grad_w = delta.T @ x_dense / n_docs + lam * weights
    grad_b = delta.mean(axis=0)
    return loss, grad_w, grad_b


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

    def test_divergence_is_reported(self):
        """An absurd step size drives the loss to infinity, which raises,
        with no numpy overflow warning on the way."""
        with pytest.raises(TrainingError, match="diverged"):
            train_maxent(make_toy_training_set(), eta=1e6, epochs=300)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_matches_the_per_epoch_reference_loop(self, n_classes):
        """A fit builds its targets once; descending with the public
        ``maxent_loss_and_grad``, which rebuilds them on every call, gives
        the same weights, bias and loss trace bit for bit."""
        training = random_training_set(7 + n_classes, 60, n_classes, "tfidf")
        eta, lam, epochs = 0.5, 1e-3, 40
        x_dense, y = training.matrix.toarray(), training.y()
        weights = np.zeros((n_classes, training.matrix.n_terms))
        bias = np.zeros(n_classes)
        loss, grad_w, grad_b = maxent_loss_and_grad(weights, bias, x_dense, y, lam)
        trace = [loss]
        for _ in range(epochs):
            weights, bias = weights - eta * grad_w, bias - eta * grad_b
            loss, grad_w, grad_b = maxent_loss_and_grad(weights, bias, x_dense, y, lam)
            trace.append(loss)
        model = train_maxent(training, eta=eta, lam=lam, epochs=epochs)
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias.tobytes() == bias.tobytes()
        assert model.loss_trace == tuple(trace)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_loss_and_grad_match_the_earlier_array_formula(self, n_classes):
        """The public loss and gradient equal, to the byte, the formula
        with fresh arrays and ``.mean()`` that the in-place one replaced,
        at random points with and without the ridge penalty."""
        training = random_training_set(20 + n_classes, 60, n_classes, "tfidf")
        x_dense, y = training.matrix.toarray(), training.y()
        rng = np.random.default_rng(n_classes)
        for lam in (0.0, 1e-3, 0.3):
            weights = rng.normal(scale=2.0, size=(n_classes, training.matrix.n_terms))
            bias = rng.normal(size=n_classes)
            got = maxent_loss_and_grad(weights, bias, x_dense, y, lam)
            want = reference_maxent_loss_and_grad(weights, bias, x_dense, y, lam)
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2].tobytes() == want[2].tobytes()

    def test_divergence_is_reported_at_the_reference_epoch(self):
        """The fit raises at the first epoch whose loss the per-epoch
        reference loop finds not finite."""
        training = make_toy_training_set()
        eta, lam = 1e6, 1e-3
        x_dense, y = training.matrix.toarray(), training.y()
        weights = np.zeros((len(training.classes), training.matrix.n_terms))
        bias = np.zeros(len(training.classes))
        with np.errstate(over="ignore", invalid="ignore"):
            _, grad_w, grad_b = maxent_loss_and_grad(weights, bias, x_dense, y, lam)
            for epoch in range(1, 301):
                weights, bias = weights - eta * grad_w, bias - eta * grad_b
                loss, grad_w, grad_b = maxent_loss_and_grad(
                    weights, bias, x_dense, y, lam
                )
                if not np.isfinite(loss):
                    break
        assert epoch < 300
        with pytest.raises(TrainingError, match=f"diverged at epoch {epoch} "):
            train_maxent(training, eta=eta, lam=lam, epochs=300)

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
    update of the active classes.  Returns ``(weights, bias)``.  Its margin
    product is a BLAS one, so the fit equals it wherever the two make the
    same hinge decisions, as on every input below."""
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


def random_training_set(seed, n_docs, n_classes, weighting, n_words=40, max_terms=11):
    """Seeded documents of 1 to ``max_terms`` word draws over an
    ``n_words``-word vocabulary, one in eight of them empty (a row with no
    terms), labelled with ``n_classes`` classes.  Among them are documents
    with a single term."""
    rng = np.random.default_rng(seed)
    words = [f"w{j}" for j in range(n_words)]
    docs = [
        tuple(rng.choice(words, size=rng.integers(1, max_terms + 1)))
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
    lengths = np.diff(matrix.indptr).tolist()
    assert 0 in lengths and 1 in lengths
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
            assert model.weights.tobytes() == weights.tobytes()
            assert model.bias.tobytes() == bias.tobytes()

    @pytest.mark.parametrize("weighting", ["counts", "tfidf"])
    def test_identical_when_every_class_is_active_every_step(self, weighting):
        """With a large lam no margin reaches 1, so each step updates every
        class: the branch where all rows of the update are active."""
        training = random_training_set(5, 40, 3, weighting)
        model = train_linear_svm(training, lam=1e3, epochs=4, seed=5)
        weights, bias = reference_train_linear_svm(training, lam=1e3, epochs=4, seed=5)
        x = training.matrix.toarray()
        assert (np.abs(x @ weights.T + bias) < 1.0).all()
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias.tobytes() == bias.tobytes()

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_identical_over_a_wide_vocabulary(self, n_classes):
        """Over 1500 terms, each class's block of the flat weight vector
        starts more than 1500 entries after the previous one."""
        training = random_training_set(
            30 + n_classes, 150, n_classes, "tfidf", n_words=4000, max_terms=40
        )
        assert training.matrix.n_terms >= 1500
        model = train_linear_svm(training, lam=1e-3, epochs=5, seed=n_classes)
        weights, bias = reference_train_linear_svm(
            training, lam=1e-3, epochs=5, seed=n_classes
        )
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias.tobytes() == bias.tobytes()

    @pytest.mark.parametrize("weighting", ["counts", "tfidf"])
    def test_identical_on_cross_validation_folds(self, weighting):
        """A fold's training rows, taken from the full set as
        cross-validation takes them, fit the same as in the reference."""
        training = random_training_set(11, 80, 3, weighting)
        for fold, (train_rows, _) in enumerate(k_fold_split(training.n_docs, 4)):
            sub = training.take(train_rows)
            model = train_linear_svm(sub, lam=0.01, epochs=6, seed=fold)
            weights, bias = reference_train_linear_svm(
                sub, lam=0.01, epochs=6, seed=fold
            )
            assert model.weights.tobytes() == weights.tobytes()
            assert model.bias.tobytes() == bias.tobytes()

    @pytest.mark.parametrize("weighting", ["counts", "tfidf"])
    def test_identical_when_documents_have_one_term_or_none(self, weighting):
        """Every document has one term or none, so every product is a
        single multiply by a one-entry weight vector."""
        training = random_training_set(13, 60, 3, weighting, max_terms=1)
        lengths = np.diff(training.matrix.indptr)
        assert set(lengths.tolist()) == {0, 1}
        for lam in (0.1, 1e-3):
            model = train_linear_svm(training, lam=lam, epochs=8, seed=13)
            weights, bias = reference_train_linear_svm(
                training, lam=lam, epochs=8, seed=13
            )
            assert model.weights.tobytes() == weights.tobytes()
            assert model.bias.tobytes() == bias.tobytes()


def left_to_right_product(row, terms):
    """The SVM's margin product: each ``row[j] * w`` rounded, then added
    left to right from 0.0."""
    p = 0.0
    for j, w in terms:
        p += row[j] * w
    return p


def exactly_rounded_product(row, terms):
    """The product as an ideal fused dot gives it: every product and
    partial sum exact, one rounding at the end."""
    return float(sum((Fraction(row[j]) * Fraction(w) for j, w in terms), Fraction(0)))


def fused_product(row, terms):
    """The product as a loop of fused multiply-adds gives it: each
    ``row[j] * w + acc`` exact, then rounded once."""
    acc = 0.0
    for j, w in terms:
        acc = float(Fraction(row[j]) * Fraction(w) + Fraction(acc))
    return acc


def fused_backward_product(row, terms):
    return fused_product(row, terms[::-1])


def python_float_svm(training, *, lam, epochs, seed, product):
    """The Pegasos loop on Python floats, one class at a time, with the
    margin product ``product(row, terms)`` given.  Returns ``(weights,
    bias, decisions)``, where ``decisions`` lists each step's active
    classes."""
    matrix = training.matrix
    indptr = matrix.indptr.tolist()
    docs = [
        list(zip(matrix.indices[a:b].tolist(), matrix.data[a:b].tolist()))
        for a, b in zip(indptr, indptr[1:])
    ]
    y = training.y().tolist()
    n_classes = len(training.classes)

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    scale = 1.0
    rows = [[0.0] * matrix.n_terms for _ in range(n_classes)]
    bias = [0.0] * n_classes
    decisions = []

    t = 0
    for _ in range(epochs):
        for i in rng.permutation(matrix.n_docs).tolist():
            t += 1
            signs = [1.0 if c == y[i] else -1.0 for c in range(n_classes)]
            active = [
                c
                for c in range(n_classes)
                if signs[c] * (scale * product(rows[c], docs[i]) + bias[c]) < 1.0
            ]
            decisions.append(active)
            if t > 1:
                scale *= 1.0 - 1.0 / t
            eta = 1.0 / (lam * t)
            for c in active:
                step = eta * signs[c]
                for j, w in docs[i]:
                    rows[c][j] += (step / scale) * w
                bias[c] += step

    return scale * np.array(rows), np.array(bias), decisions


class TestSvmMarginProduct:
    """The margin product is the left-to-right sum of rounded products on
    Python floats: no BLAS call, so no fused multiply-add, and the same
    bytes on every machine."""

    # The first pass of seed 1 visits three documents in their own order.
    SEED = 1

    @staticmethod
    def straddling_training_set():
        """Three documents over two terms, visited in order with lam = 1:
        (a, 0) positive, (0, c) negative, then (x0, x) positive.  The first
        two steps update both classes and leave class 0 at row (a, -c),
        bias 0.5 and scale 0.5.  At the third step class 0's product is
        a * x0 - c * x.  Left to right it is round(a * x0) - round(c * x),
        exactly 1, so the margin is exactly 1 and nothing updates.  But
        a * x0 rounds up and c * x rounds down, each by more than 3/4 of a
        half ulp, so every fused sum (either order, or rounded once) stays
        more than 3/2 * 2**-53 below 1, and its margin falls below 1.
        Class 1 is the mirror image."""
        a, x0 = 1.717, 1.941302853814793
        c, x = 1.597, 1.461
        return TrainingSet(
            matrix=DocTermMatrix(
                vocab=build_vocabulary([["a", "b"]]),
                indptr=np.array([0, 1, 2, 4]),
                indices=np.array([0, 1, 0, 1]),
                data=np.array([a, c, x0, x]),
                weighting="tfidf",
            ),
            labels=(
                SentimentLabel.POSITIVE,
                SentimentLabel.NEGATIVE,
                SentimentLabel.POSITIVE,
            ),
        )

    @pytest.mark.parametrize(
        "fused", [exactly_rounded_product, fused_product, fused_backward_product]
    )
    def test_fused_products_straddle_the_hinge(self, fused):
        """Left to right, the third step's margins are exactly 1; fused,
        they fall below 1 and both classes update."""
        rng = np.random.default_rng(np.random.SeedSequence([self.SEED]))
        assert rng.permutation(3).tolist() == [0, 1, 2]
        training = self.straddling_training_set()
        w_ltr, b_ltr, ltr = python_float_svm(
            training, lam=1.0, epochs=1, seed=self.SEED, product=left_to_right_product
        )
        w_fused, b_fused, decisions = python_float_svm(
            training, lam=1.0, epochs=1, seed=self.SEED, product=fused
        )
        assert ltr == [[0, 1], [0, 1], []]
        assert decisions == [[0, 1], [0, 1], [0, 1]]
        assert w_ltr.tobytes() != w_fused.tobytes()
        assert b_ltr.tobytes() != b_fused.tobytes()

    @pytest.mark.parametrize("epochs", [1, 4])
    def test_fit_is_the_left_to_right_loop(self, epochs):
        """The fit equals the Python-float loop with the left-to-right
        product, before and after further passes."""
        training = self.straddling_training_set()
        model = train_linear_svm(training, lam=1.0, epochs=epochs, seed=self.SEED)
        weights, bias, _ = python_float_svm(
            training, lam=1.0, epochs=epochs, seed=self.SEED, product=left_to_right_product
        )
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias.tobytes() == bias.tobytes()

    @pytest.mark.parametrize("weighting", ["counts", "tfidf"])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_fit_is_the_left_to_right_loop_on_random_documents(self, weighting, n_classes):
        """Empty, one-term and many-term documents fit as in that loop."""
        training = random_training_set(21 + n_classes, 60, n_classes, weighting)
        model = train_linear_svm(training, lam=1e-3, epochs=6, seed=n_classes)
        weights, bias, _ = python_float_svm(
            training, lam=1e-3, epochs=6, seed=n_classes, product=left_to_right_product
        )
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias.tobytes() == bias.tobytes()


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


class TestErrorStateIsRestored:
    """A fit turns numpy's overflow and invalid-value warnings off for its
    own loop only: the caller's error state is back after it returns and
    after it raises."""

    FITS = {
        "maxent": (train_maxent, {"eta": 1e6, "epochs": 300}),
        "svm": (train_linear_svm, {"lam": 5e-324}),
    }

    @pytest.mark.parametrize("kind", ["maxent", "svm"])
    @pytest.mark.parametrize("diverges", [False, True])
    def test_caller_error_state_survives_the_fit(self, kind, diverges):
        trainer, diverging = self.FITS[kind]
        with np.errstate(over="raise", invalid="print", divide="ignore"):
            before = np.geterr()
            if diverges:
                with pytest.raises(TrainingError, match="diverged"):
                    trainer(make_toy_training_set(), **diverging)
            else:
                trainer(make_toy_training_set())
            assert np.geterr() == before


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
            weighting="tfidf",
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
        vec = one_row(model, [0], [1.0])
        scores = model.predict(vec).scores
        assert all(s > 0.0 for s in scores.values())
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-12)

    def test_svm_scores_are_raw_margins(self):
        """SVM predictions expose decision values, not normalized scores."""
        model = self._model("svm")
        vec = one_row(model, [2], [4.0])
        dense = np.zeros(4)
        dense[vec.indices] = vec.data
        margins = model.weights @ dense + model.bias
        scores = model.predict(vec).scores
        np.testing.assert_allclose(
            [scores[c] for c in model.classes], margins
        )

    def test_out_of_range_column_is_rejected(self):
        """A vector indexing past the vocabulary raises immediately."""
        model = self._model("svm")
        vec = one_row(model, [4], [1.0])
        with pytest.raises(ValueError, match="out of range"):
            model.predict(vec)
