"""Golden SVM fits: the weights and bias of every fitted model, pinned by hash.

Pegasos SVMs fitted on seeded ``datagen`` corpora are recorded as the
SHA-256 of their weights and bias.  The fit runs on Python floats, whose
arithmetic is IEEE double on every machine, and its margin product is a
left-to-right sum with no BLAS call, so the hashes hold on any CPU.  The
features are counts: TF-IDF goes through ``np.log``, whose last bit may
differ between CPUs.

The expected hashes live in ``golden/svm.json``.  Regenerate them only for
a deliberate behaviour change, and say so in the change log:

    PYTHONPATH=src python tests/test_golden_svm.py
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
from tweetsent.models import train_linear_svm
from tweetsent.pipeline import load_config, load_topic_data

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "svm.json"

# (datagen seed, documents per topic).
CORPORA = ((3, 40), (42, 150))

# name -> hyperparameters.
FITS = {
    "default": {},
    "small_lam": {"lam": 0.01, "epochs": 20, "seed": 5},
    "large_lam": {"lam": 1.0, "epochs": 7, "seed": 11},
}


def model_hash(model) -> str:
    """SHA-256 over the weights' and bias's dtype, shape and little-endian bytes."""
    digest = hashlib.sha256()
    for name in ("weights", "bias"):
        array = getattr(model, name)
        array = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
        digest.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def collect_svm_hashes() -> dict:
    """Hashes of every fit, keyed ``seed-docs/topic/subset/fit``.

    Each topic's count matrix is fitted whole and, as a cross-validation
    fold would be, without its first quarter of documents.
    """
    hashes: dict[str, str] = {}
    for seed, docs in CORPORA:
        with tempfile.TemporaryDirectory() as scratch:
            files = write_demo_data(scratch, seed=seed, docs_per_topic=docs)
            topics = load_topic_data(load_config(files.config))
        for data in topics:
            full = data.training_set(COUNTS)
            subsets = {"all": full, "fold": full.take(np.arange(full.n_docs // 4, full.n_docs))}
            for subset, training in subsets.items():
                for name, hyper in FITS.items():
                    key = f"{seed}-{docs}/{data.topic}/{subset}/{name}"
                    hashes[key] = model_hash(train_linear_svm(training, **hyper))
    return hashes


@pytest.fixture(scope="module")
def observed():
    return collect_svm_hashes()


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_fit_is_pinned(observed, expected):
    assert sorted(observed) == sorted(expected)


def test_every_fit_is_bit_identical(observed, expected):
    changed = [key for key, digest in expected.items() if observed[key] != digest]
    assert not changed, f"fits changed: {changed}"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(collect_svm_hashes(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
