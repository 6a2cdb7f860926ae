"""The batch prediction path against the per-document arithmetic it replaced.

Each model used to score one document at a time from its sparse columns.
That arithmetic is kept here as the reference: ``predict_batch`` must give
the same labels and the same scores within 1e-12.  The reference takes
its products from BLAS, which may sum in another order than
``DocTermMatrix.dot``, so scores may differ in the last bit; a label may
not.  A document's own batch row, as ``predict`` gives it, must match to
the byte: no row's scores depend on the other rows.  And no model densifies
a whole batch to score it: the memory a prediction takes grows with the
matrix's entries, plus a bounded chunk of dense rows for the tree walk.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tweetsent.evaluation import accuracy, confusion_matrix, cross_validate, k_fold_split
from tweetsent.exceptions import DataError
from tweetsent.features import (
    COUNTS, DocTermMatrix, build_count_matrix, build_vocabulary, tfidf_transform,
)
from tweetsent.lexicon import SentimentLabel
from tweetsent.models import (
    DECISION_TREE,
    MAXENT,
    NAIVE_BAYES,
    LinearModel,
    TrainingSet,
    train_bagging,
    train_decision_tree,
    train_linear_svm,
    train_maxent,
    train_naive_bayes,
    train_random_forest,
)
from tweetsent.models.tree import LEAF, WALK_CHUNK

LABELS = (SentimentLabel.POSITIVE, SentimentLabel.NEUTRAL, SentimentLabel.NEGATIVE)

TRAINERS = {
    "naive_bayes": train_naive_bayes,
    "maxent": lambda ts: train_maxent(ts, epochs=30),
    "svm": lambda ts: train_linear_svm(ts, epochs=5, seed=3),
    "decision_tree": train_decision_tree,
    "random_forest": lambda ts: train_random_forest(ts, n_members=7, seed=3),
    "bagging": lambda ts: train_bagging(ts, n_members=5, seed=3),
}


def reference_naive_bayes(model, vec):
    joint = model.bias.copy()
    if vec.nnz:
        joint = joint + model.weights[:, vec.indices] @ vec.data
    m = float(np.max(joint))
    log_norm = m + float(np.log(np.sum(np.exp(joint - m))))
    posterior = np.exp(joint - log_norm)
    return posterior / posterior.sum()


def reference_linear(model, vec):
    margins = model.bias.copy()
    if vec.nnz:
        margins += model.weights[:, vec.indices] @ vec.data
    if model.kind != MAXENT:
        return margins
    expd = np.exp(margins - margins.max())
    return expd / expd.sum()


def reference_tree_walk(tree, vec):
    """Leaf class shares, walking one node at a time from the root."""
    node = 0
    while tree.column[node] != LEAF:
        column = tree.column[node]
        pos = np.searchsorted(vec.indices, column)
        value = (
            float(vec.data[pos])
            if pos < vec.indices.size and vec.indices[pos] == column
            else 0.0
        )
        node = node + 1 if value <= tree.threshold[node] else tree.right[node]
    return tree.counts[node] / tree.counts[node].sum()


def reference_votes(model, vec):
    counts = np.zeros(len(model.classes))
    for member in model.trees:
        counts[int(np.argmax(reference_tree_walk(member, vec)))] += 1.0
    return counts / len(model.trees)


def reference_scores(model, vec):
    if model.kind == NAIVE_BAYES:
        return reference_naive_bayes(model, vec)
    if isinstance(model, LinearModel):
        return reference_linear(model, vec)
    if model.kind == DECISION_TREE:
        return reference_tree_walk(model.trees[0], vec)
    return reference_votes(model, vec)


def assert_matches_reference(model, matrix):
    label_idx, scores = model.predict_batch(matrix)
    assert scores.shape == (matrix.n_docs, len(model.classes))
    for i in range(matrix.n_docs):
        expected = reference_scores(model, matrix.row(i))
        np.testing.assert_allclose(scores[i], expected, rtol=0, atol=1e-12)
        assert label_idx[i] == int(np.argmax(expected)), f"row {i}"


def random_training_set(rng, n_docs, n_terms, labels, weighting):
    """Random counts over ``n_terms`` terms, about a fifth of rows empty."""
    terms = [f"t{j}" for j in range(n_terms)]
    counts = rng.integers(0, 3, size=(n_docs, n_terms)) * (
        rng.random((n_docs, n_terms)) < 0.3
    )
    counts[rng.random(n_docs) < 0.2] = 0
    docs = [[t for j, t in enumerate(terms) for _ in range(row[j])] for row in counts]
    matrix = build_count_matrix(build_vocabulary(docs), docs)
    if weighting == "tfidf":
        matrix = tfidf_transform(matrix)
    return TrainingSet(matrix=matrix, labels=labels)


@pytest.mark.parametrize("weighting", ["counts", "tfidf"])
@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_seeded_matrices_with_empty_rows(kind, weighting):
    rng = np.random.default_rng(314)
    for _ in range(5):
        n_docs = int(rng.integers(20, 50))
        labels = tuple(LABELS[i] for i in rng.integers(0, 3, size=n_docs))
        training = random_training_set(
            rng, n_docs, int(rng.integers(3, 15)), labels, weighting
        )
        assert (np.diff(training.matrix.indptr) == 0).any()
        model = TRAINERS[kind](training)
        assert_matches_reference(model, training.matrix)


def test_naive_bayes_exact_tie_goes_to_positive():
    """Symmetric data gives bit-equal posteriors; Positive comes first."""
    terms = ["w"]
    matrix = build_count_matrix(build_vocabulary([terms]), [terms, terms, []])
    model = train_naive_bayes(
        TrainingSet(
            matrix=matrix.take([0, 1]),
            labels=(SentimentLabel.NEGATIVE, SentimentLabel.POSITIVE),
        )
    )
    label_idx, scores = model.predict_batch(matrix)
    assert model.classes[0] is SentimentLabel.POSITIVE
    assert (scores[:, 0] == scores[:, 1]).all()
    assert label_idx.tolist() == [0, 0, 0]
    assert_matches_reference(model, matrix)


@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_fold_model_that_lost_a_class(kind):
    """A model trained without Neutral scores rows of every class, its
    labels index its own two classes, and cross-validation counts the
    same hits as the per-document reference."""
    rng = np.random.default_rng(2718)
    labels = [LABELS[0], LABELS[2]] * 8
    labels[5] = SentimentLabel.NEUTRAL
    training = random_training_set(rng, len(labels), 8, tuple(labels), "counts")
    keep = [i for i, label in enumerate(labels) if label is not SentimentLabel.NEUTRAL]
    model = TRAINERS[kind](training.take(keep))
    assert len(model.classes) == 2
    assert_matches_reference(model, training.matrix)

    result = cross_validate(TRAINERS[kind], training, k=4, seed=1)
    assert any("lost class" in w for w in result.warnings)
    for fold, (train_rows, test_rows) in enumerate(k_fold_split(len(labels), 4, seed=1)):
        fold_model = TRAINERS[kind](training.take(train_rows))
        predicted = [
            fold_model.classes[
                int(np.argmax(reference_scores(fold_model, training.matrix.row(i))))
            ]
            for i in test_rows
        ]
        gold = [labels[i] for i in test_rows]
        cm = confusion_matrix(gold, predicted, classes=training.classes)
        assert result.folds[fold].accuracy == accuracy(cm)


def small_fit(kind):
    """A model of ``kind`` fitted on 30 random count rows over 6 terms, and
    its training set."""
    rng = np.random.default_rng(99)
    labels = tuple(LABELS[i] for i in rng.integers(0, 3, size=30))
    training = random_training_set(rng, len(labels), 6, labels, "counts")
    return TRAINERS[kind](training), training


@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_predict_is_a_one_row_batch(kind):
    """``predict(matrix.row(i))`` gives row i's batch label and scores,
    byte for byte; a matrix of any other number of rows, or over a
    narrower vocabulary than the model's, is refused."""
    model, training = small_fit(kind)
    label_idx, scores = model.predict_batch(training.matrix)
    for i in range(training.n_docs):
        prediction = model.predict(training.matrix.row(i))
        assert prediction.label is model.classes[label_idx[i]]
        assert list(prediction.scores) == list(model.classes)
        assert np.array(list(prediction.scores.values())).tobytes() == scores[i].tobytes()
    for rows in ([], [0, 1]):
        with pytest.raises(ValueError, match=f"one-row matrix, got {len(rows)} rows"):
            model.predict(training.matrix.take(rows))
    narrow = build_count_matrix(build_vocabulary([model.terms[:2]]), [[model.terms[1]]])
    wording = rf"\({len(model.terms)} terms\) is not that of the features given \(2 terms\)"
    with pytest.raises(DataError, match=wording):
        model.predict(narrow)


@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_a_same_width_matrix_over_other_terms_is_refused(kind):
    """The width is not enough: a matrix over the model's terms in another
    order has the model's width, but its columns name other terms."""
    model, training = small_fit(kind)
    vocab = build_vocabulary([list(reversed(model.terms))])
    assert len(vocab) == len(model.terms) and vocab.terms != model.terms
    with pytest.raises(DataError, match="model vocabulary .* is not that of the features given"):
        model.predict_batch(replace(training.matrix, vocab=vocab))


@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_a_matrix_of_another_weighting_is_refused(kind):
    """The same rows and terms under another weighting hold other values."""
    model, training = small_fit(kind)
    with pytest.raises(
        DataError, match="trained on 'counts' features, not on the 'tfidf' features given"
    ):
        model.predict_batch(tfidf_transform(training.matrix))


def wide_matrix(rng, n_docs, n_terms, per_row):
    """``n_docs`` rows of ``per_row`` random counts over ``n_terms`` terms."""
    columns = np.sort(
        np.stack([rng.choice(n_terms, size=per_row, replace=False) for _ in range(n_docs)]),
        axis=1,
    )
    return DocTermMatrix(
        vocab=build_vocabulary([[f"t{j}" for j in range(n_terms)]]),
        indptr=np.arange(n_docs + 1, dtype=np.int64) * per_row,
        indices=columns.ravel(),
        data=rng.integers(1, 4, size=n_docs * per_row).astype(np.float64),
        weighting=COUNTS,
    )


@pytest.fixture(scope="module")
def wide():
    """A matrix of 8 walk chunks over 2000 terms, whose dense form (32 MB)
    is 8 times a chunk's, and the six models, plus a 200-member random
    forest, fitted on its first 300 rows, labelled by whether they hold the
    term t0 to t99."""
    matrix = wide_matrix(np.random.default_rng(77), 8 * WALK_CHUNK, 2000, 8)
    training = matrix.take(np.arange(300))
    first = training.indices[training.indptr[:-1]]
    labels = tuple(LABELS[min(2, int(c) // 100)] for c in first)
    training_set = TrainingSet(matrix=training, labels=labels)
    models = {kind: trainer(training_set) for kind, trainer in TRAINERS.items()}
    models["random_forest_200"] = train_random_forest(training_set, n_members=200, seed=3)
    return matrix, models


def traced_peak(model, matrix) -> int:
    """Peak bytes that tracemalloc sees while ``model`` scores ``matrix``."""
    tracemalloc.start()
    try:
        model.predict_batch(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_prediction_memory_follows_the_entries(wide, kind):
    """``predict_batch`` on a wide matrix peaks, under tracemalloc, below
    8 float64s per (entry, class) plus 2 dense chunks of WALK_CHUNK rows:
    the linear products take a few arrays of nnz x n_classes, and the
    tree walk densifies one chunk at a time, never all n x V."""
    matrix, models = wide
    model = models[kind]
    n_classes = len(model.classes)
    bound = 8 * 8 * matrix.nnz * n_classes + 2 * 8 * WALK_CHUNK * matrix.n_terms
    assert bound < 8 * matrix.n_docs * matrix.n_terms / 2
    peak = traced_peak(model, matrix)
    assert peak < bound, f"{kind}: peak {peak} bytes, bound {bound}"


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest", "random_forest_200"])
def test_tree_walk_memory_does_not_grow_with_the_batch(wide, kind):
    """A tree model scoring all 8 walk chunks of the wide matrix peaks less
    than a quarter of one dense chunk above its peak on the first chunk
    alone: the walk holds one chunk's dense rows and per-row arrays at a
    time, and releases each chunk before it densifies the next."""
    matrix, models = wide
    model = models[kind]
    first = matrix.take(np.arange(WALK_CHUNK))
    model.predict_batch(first)  # builds what the model caches on first use
    growth = traced_peak(model, matrix) - traced_peak(model, first)
    quarter_chunk = 8 * WALK_CHUNK * matrix.n_terms // 4
    assert growth < quarter_chunk, f"{kind}: peak grew by {growth} bytes"
