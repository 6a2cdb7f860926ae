"""Golden fits at realistic width: about 300 documents and 950 terms a topic.

Every other golden fits on ``datagen``'s vocabulary of at most 63 terms.
Here each ``datagen`` tweet also gets seeded Zipf-drawn filler words, so a
node's rows touch few of the topic's columns and most sampled columns hold
only their zero bin, the case that sparse split search and a chunked tree
walk must get right.  On each topic's full data and on one fold it pins:

- every decision tree, random-forest member and bagging member, and the
  SVM's weights and bias, by SHA-256 (no BLAS call reaches these fits);
- the bytes of the tree models' ``predict_batch`` labels and scores on the
  topic's whole matrix, held-out rows included.

Maxent's fit runs BLAS products and ``np.exp``, whose last bits depend on
the CPU kernel, so on the full data its training-set labels are pinned
exactly and its weights, bias and ``loss_trace`` to :data:`MAXENT_RTOL`.

The expected data lives in ``golden/wide.json``.  Regenerate it only for a
deliberate behaviour change, and say so in the change log:

    PYTHONPATH=src python tests/test_golden_wide.py
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from test_golden_svm import model_hash
from test_golden_trees import tree_hash
from tweetsent import datagen
from tweetsent.corpus import load_corpus, save_corpus
from tweetsent.features import COUNTS, TFIDF
from tweetsent.models import (
    train_bagging,
    train_decision_tree,
    train_linear_svm,
    train_maxent,
    train_random_forest,
)
from tweetsent.pipeline import load_config, load_topic_data

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "wide.json"

SEED = 5
DOCS_PER_TOPIC = 300
# Filler words appended to each tweet, drawn with probability proportional
# to rank ** -ZIPF_S from FILLER_VOCAB made-up words.
FILLER_VOCAB = 2000
FILLER_PER_DOC = 12
ZIPF_S = 1.0

# A maxent weight, bias or loss may move by this much relative to the
# largest magnitude among its golden values.
MAXENT_RTOL = 1e-9

TREE_FITS = {
    "decision_tree": train_decision_tree,
    "random_forest": train_random_forest,
    "bagging": train_bagging,
}


def filler_words(n: int) -> list[str]:
    """``n`` made-up consonant-vowel words that are no lexicon, stopword or
    datagen word, so appending them leaves every weak label unchanged."""
    taken = set(
        datagen.POSITIVE_WORDS + datagen.NEGATIVE_WORDS + datagen.EXTRA_POSITIVE
        + datagen.EXTRA_NEGATIVE + datagen.NEUTRAL_FILLERS + datagen.STOPWORDS
    )
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    words, i = [], 0
    while len(words) < n:
        word = "".join(syllables[(i // len(syllables) ** k) % len(syllables)] for k in range(3))
        if word not in taken:
            words.append(word)
        i += 1
    return words


def wide_topics():
    """The topic data of a seeded datagen corpus widened by filler words."""
    words = np.array(filler_words(FILLER_VOCAB))
    p = np.arange(1, FILLER_VOCAB + 1, dtype=np.float64) ** -ZIPF_S
    p /= p.sum()
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 0x5EED]))
    with tempfile.TemporaryDirectory() as scratch:
        files = datagen.write_demo_data(scratch, seed=SEED, docs_per_topic=DOCS_PER_TOPIC)
        for path in files.corpora:
            tweets = [
                replace(t, text=t.text + " " + " ".join(rng.choice(words, size=FILLER_PER_DOC, p=p)))
                for t in load_corpus(path)
            ]
            save_corpus(tweets, path)
        return load_topic_data(load_config(files.config))


def bytes_hash(*arrays: np.ndarray) -> str:
    """SHA-256 over each array's dtype, shape and little-endian bytes."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
        digest.update(f"{array.dtype.str}:{array.shape};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def collect_wide() -> dict:
    """Everything pinned, keyed ``topic/subset/fit``; maxent by topic."""
    pinned = {"trees": {}, "svm": {}, "predictions": {}, "maxent": {}}
    for data in wide_topics():
        full = data.training_set(COUNTS)
        subsets = {"all": full, "fold": full.take(np.arange(full.n_docs // 4, full.n_docs))}
        for subset, training in subsets.items():
            for name, trainer in TREE_FITS.items():
                hyper = {} if trainer is train_decision_tree else {"seed": SEED}
                model = trainer(training, **hyper)
                trees = model.trees
                key = f"{data.topic}/{subset}/{name}"
                pinned["trees"][key] = [tree_hash(tree) for tree in trees]
                pinned["predictions"][key] = bytes_hash(*model.predict_batch(full.matrix))
            svm = train_linear_svm(training)
            pinned["svm"][f"{data.topic}/{subset}/svm"] = model_hash(svm)
        tfidf = data.training_set(TFIDF)
        maxent = train_maxent(tfidf)
        labels, _ = maxent.predict_batch(tfidf.matrix)
        pinned["maxent"][data.topic] = {
            "labels": "".join(str(label) for label in labels),
            "weights": maxent.weights.tolist(),
            "bias": maxent.bias.tolist(),
            "loss_trace": list(maxent.loss_trace),
        }
    return pinned


@pytest.fixture(scope="module")
def observed():
    return collect_wide()


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_fit_is_pinned(observed, expected):
    for section in ("trees", "svm", "predictions", "maxent"):
        assert sorted(observed[section]) == sorted(expected[section]), section


def test_the_corpus_is_wide(observed):
    """Each topic's vocabulary is the realistic width the file promises."""
    for topic in observed["maxent"].values():
        assert 900 <= len(topic["weights"][0]) <= 1100


def test_every_tree_is_bit_identical(observed, expected):
    for key, hashes in expected["trees"].items():
        got = observed["trees"][key]
        assert len(got) == len(hashes), key
        changed = [m for m, (a, b) in enumerate(zip(got, hashes)) if a != b]
        assert not changed, f"{key}: trees {changed} changed"


def test_every_svm_is_bit_identical(observed, expected):
    changed = [k for k, digest in expected["svm"].items() if observed["svm"][k] != digest]
    assert not changed, f"fits changed: {changed}"


def test_tree_predictions_are_bit_identical(observed, expected):
    changed = [
        k for k, digest in expected["predictions"].items() if observed["predictions"][k] != digest
    ]
    assert not changed, f"labels or scores changed: {changed}"


@pytest.mark.parametrize("field", ["weights", "bias", "loss_trace"])
def test_maxent_parameters_hold_to_the_tolerance(observed, expected, field):
    for topic, golden in expected["maxent"].items():
        want = np.array(golden[field])
        got = np.array(observed["maxent"][topic][field])
        assert got.shape == want.shape, topic
        np.testing.assert_allclose(got, want, rtol=0, atol=MAXENT_RTOL * np.abs(want).max())


def test_maxent_training_labels_are_exact(observed, expected):
    for topic, golden in expected["maxent"].items():
        assert observed["maxent"][topic]["labels"] == golden["labels"], topic


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(collect_wide(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
