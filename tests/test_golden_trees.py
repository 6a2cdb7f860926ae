"""Golden trees: every node array of every fitted tree, pinned by hash.

Each decision tree, random-forest member and bagging member fitted on
seeded ``datagen`` corpora is recorded as the SHA-256 of its four arrays
and its implied left children (column, threshold, left, right, counts).
Tree growth uses no BLAS, only integer counts and elementwise float
arithmetic, so the hashes hold on any machine; the bundle golden test sees
trees only through two-decimal metrics, this one sees every split.

The expected hashes live in ``golden/trees.json``.  Regenerate them only
for a deliberate behaviour change, and say so in the change log:

    PYTHONPATH=src python tests/test_golden_trees.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tweetsent.datagen import write_demo_data
from tweetsent.features import COUNTS
from tweetsent.models import train_bagging, train_decision_tree, train_random_forest
from tweetsent.models.tree import LEAF, Tree
from tweetsent.pipeline import load_config, load_topic_data

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "trees.json"

# (datagen seed, documents per topic).
CORPORA = ((3, 40), (42, 150))

# name -> (trainer, hyperparameters); ensembles also get the corpus seed.
FITS = {
    "decision_tree": (train_decision_tree, {}),
    "decision_tree_shallow": (
        train_decision_tree, {"max_depth": 3, "min_samples_split": 5}
    ),
    "random_forest": (train_random_forest, {}),
    "random_forest_no_bootstrap": (
        train_random_forest, {"n_members": 6, "bootstrap": False, "n_features_per_split": 3}
    ),
    "bagging": (train_bagging, {}),
    "bagging_shallow": (train_bagging, {"n_members": 6, "max_depth": 2}),
}


def tree_hash(tree: Tree) -> str:
    """SHA-256 over each array's dtype, shape and little-endian bytes.

    A tree stores no left children, but they are hashed in their old place
    (an internal node's is the next node), so the hashes recorded when
    trees stored them still pin every tree."""
    left = np.where(tree.column == LEAF, LEAF, np.arange(tree.n_nodes) + 1)
    arrays = {
        "column": tree.column, "threshold": tree.threshold, "left": left,
        "right": tree.right, "counts": tree.counts,
    }
    digest = hashlib.sha256()
    for name, array in arrays.items():
        array = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
        digest.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def collect_tree_hashes() -> dict:
    """Hashes of every tree, keyed ``seed-docs/topic/subset/fit``.

    Each topic's count matrix is fitted whole and, as a cross-validation
    fold would be, without its first quarter of documents.
    """
    hashes: dict[str, list[str]] = {}
    for seed, docs in CORPORA:
        with tempfile.TemporaryDirectory() as scratch:
            files = write_demo_data(scratch, seed=seed, docs_per_topic=docs)
            topics = load_topic_data(load_config(files.config))
        for data in topics:
            full = data.training_set(COUNTS)
            subsets = {"all": full, "fold": full.take(np.arange(full.n_docs // 4, full.n_docs))}
            for subset, training in subsets.items():
                for name, (trainer, hyper) in FITS.items():
                    if trainer is not train_decision_tree:
                        hyper = {"seed": seed, **hyper}
                    model = trainer(training, **hyper)
                    trees = model.trees
                    key = f"{seed}-{docs}/{data.topic}/{subset}/{name}"
                    hashes[key] = [tree_hash(tree) for tree in trees]
    return hashes


@pytest.fixture(scope="module")
def observed():
    return collect_tree_hashes()


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_fit_is_pinned(observed, expected):
    assert sorted(observed) == sorted(expected)


def test_every_tree_is_bit_identical(observed, expected):
    for key, hashes in expected.items():
        got = observed[key]
        assert len(got) == len(hashes), key
        changed = [m for m, (a, b) in enumerate(zip(got, hashes)) if a != b]
        assert not changed, f"{key}: trees {changed} changed"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(collect_tree_hashes(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
