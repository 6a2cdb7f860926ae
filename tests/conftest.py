"""Shared fixtures: paths to the bundled demo data and small corpora, the
``one_row`` builder for hand-made documents, and a too deeply nested JSON
value."""

from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from tweetsent.corpus import RawTweet, save_corpus
from tweetsent.datagen import make_toy_training_set
from tweetsent.features import DocTermMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = REPO_ROOT / "data" / "demo"

# JSON text of an array nested deeper than the JSON parser's recursion
# limit.  A thousand levels are past it on Python 3.11; later versions may
# bound the parser's recursion otherwise, so this nests far deeper.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def one_row(model, cols, weights) -> DocTermMatrix:
    """A hand-built document for ``model``: the one-row matrix over its
    ``terms`` and of its ``weighting`` holding ``weights`` at the increasing
    columns ``cols``."""
    return DocTermMatrix(
        terms=model.terms,
        indptr=np.array([0, len(cols)], dtype=np.int64),
        indices=np.array(cols, dtype=np.int64),
        data=np.array(weights, dtype=np.float64),
        weighting=model.weighting,
    )


@pytest.fixture(scope="session")
def demo_dir() -> Path:
    assert DEMO_DIR.is_dir(), "bundled demo data is missing; run python -m tweetsent.datagen"
    return DEMO_DIR


@pytest.fixture()
def toy_training_set():
    return make_toy_training_set()


@pytest.fixture()
def tiny_lexicon(tmp_path: Path) -> Path:
    path = tmp_path / "lexicon.tsv"
    path.write_text(
        "# test lexicon\n"
        "good\t1.0\n"
        "great\t2.0\n"
        "bad\t-1.0\n"
        "awful\t-2.0\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture()
def tiny_corpus(tmp_path: Path) -> Path:
    tweets = [
        RawTweet(
            id="t-001",
            text="Good stuff, really good! http://t.co/abc #demo",
            created_at=datetime(2024, 1, 1, 9, 30, tzinfo=timezone.utc),
            topic="demo",
        ),
        RawTweet(
            id="t-002",
            text="@somebody this was awful...",
            created_at=datetime(2024, 1, 1, 21, 5, tzinfo=timezone.utc),
            topic="demo",
        ),
        RawTweet(
            id="t-003",
            text="just a plain update",
            created_at=datetime(2024, 1, 2, 9, 45, tzinfo=timezone.utc),
            topic="demo",
        ),
    ]
    path = tmp_path / "corpus.jsonl"
    save_corpus(tweets, path)
    return path
