"""Generate the bundled demonstration data: two seeded corpora of synthetic
tweets (one per topic), a small polarity lexicon, and a stopword list.

Each corpus is built from disjoint positive and negative vocabularies plus
neutral filler nouns, so the weak labels are unambiguous and the learning
task is separable — useful for demos and for end-to-end tests that need
every classifier to do well.  Everything is driven by one seed; rerunning
with the same seed reproduces the files byte for byte.

Run ``python -m tweetsent.datagen --out DIR`` to (re)write the files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .corpus import RawTweet, save_corpus
from .features import build_count_matrix, build_vocabulary
from .lexicon import SentimentLabel
from .models import TrainingSet, seeded_rng

TOPICS = ("burgerhouse", "espressobar")

# Positive/negative/neutral fractions per demo topic, so the two corpora
# tell different stories in the comparison report.
TOPIC_POLARITY_MIX = {
    "burgerhouse": (0.40, 0.27, 0.33),
    "espressobar": (0.28, 0.40, 0.32),
}
_DEFAULT_MIX = (1 / 3, 1 / 3, 1 / 3)

POSITIVE_WORDS = (
    "love", "great", "awesome", "tasty", "delicious", "fresh", "friendly",
    "amazing", "excellent", "wonderful", "fantastic", "perfect", "crispy",
    "juicy", "superb", "delightful",
)

NEGATIVE_WORDS = (
    "hate", "awful", "terrible", "stale", "soggy", "rude", "horrible",
    "disgusting", "gross", "bland", "dirty", "slow", "overpriced", "cold",
    "burnt", "worst",
)

# Extra lexicon entries that never occur in the generated corpus; they make
# the lexicon look like a general-purpose word list rather than one tuned
# to this corpus.
EXTRA_POSITIVE = (
    "happy", "glad", "joyful", "pleasant", "charming", "lovely", "brilliant",
    "splendid", "enjoyable", "satisfying", "generous", "welcoming", "cheerful",
    "impressive", "refreshing", "outstanding", "spotless", "prompt", "courteous",
    "heavenly", "divine", "scrumptious", "yummy", "stellar",
)

EXTRA_NEGATIVE = (
    "angry", "upset", "sad", "annoying", "dreadful", "nasty", "filthy",
    "mediocre", "disappointing", "tasteless", "greasy", "rotten", "smelly",
    "chaotic", "cramped", "noisy", "unfriendly", "careless", "sloppy",
    "revolting", "abysmal", "dismal", "lousy", "pathetic",
)

NEUTRAL_FILLERS = (
    "lunch", "dinner", "breakfast", "order", "meal", "menu", "queue",
    "parking", "location", "branch", "visit", "coffee", "burger", "fries",
    "chicken", "sandwich", "salad", "wrap", "combo", "receipt", "counter",
    "drive", "window", "coupon", "weekend", "morning", "afternoon",
    "evening", "staff", "table",
)

STOPWORDS = (
    "a", "an", "and", "are", "as", "at", "be", "been", "but", "by", "for",
    "from", "had", "has", "have", "i", "in", "is", "it", "its", "my", "of",
    "on", "or", "our", "so", "that", "the", "their", "them", "then", "there",
    "these", "they", "this", "to", "was", "we", "were", "with", "you",
)

# Relative frequency of tweets per UTC hour: quiet overnight, a lunchtime
# peak, and a second bump in the evening.
HOUR_WEIGHTS = (
    1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 6, 8,
    9, 9, 7, 5, 4, 5, 7, 8, 6, 4, 3, 2,
)

_PUNCTUATION = ("", ".", "!", "!!", "...", "?!", "!?")

LEXICON_FILENAME = "lexicon.tsv"
STOPWORDS_FILENAME = "stopwords.txt"
CONFIG_FILENAME = "config.json"


def corpus_filename(topic: str) -> str:
    return f"corpus_{topic}.jsonl"


@dataclass(frozen=True)
class DemoFiles:
    """Paths of the files written by :func:`write_demo_data`."""

    corpora: tuple[Path, ...]
    lexicon: Path
    stopwords: Path
    config: Path


def _decorate(word: str, rng: np.random.Generator) -> str:
    roll = rng.random()
    if roll < 0.06:
        return word.upper()
    if roll < 0.16:
        return word.capitalize()
    return word


def _compose_text(
    rng: np.random.Generator, topic: str, polarity: SentimentLabel
) -> str:
    words = list(rng.choice(NEUTRAL_FILLERS, size=int(rng.integers(3, 7))))
    if polarity is SentimentLabel.POSITIVE:
        pool = POSITIVE_WORDS
    elif polarity is SentimentLabel.NEGATIVE:
        pool = NEGATIVE_WORDS
    else:
        pool = None
    if pool is not None:
        words.extend(rng.choice(pool, size=int(rng.integers(2, 4)), replace=False))
    order = rng.permutation(len(words))
    parts = [_decorate(str(words[i]), rng) for i in order]

    if rng.random() < 0.30:
        parts.insert(0, f"@user{int(rng.integers(10, 9999))}")
    if rng.random() < 0.55:
        parts.append("#" + topic)
    if rng.random() < 0.25:
        suffix = "".join(
            rng.choice(list("abcdefghijklmnopqrstuvwxyz0123456789"), size=8)
        )
        parts.append(f"http://t.co/{suffix}")
    text = " ".join(parts) + str(rng.choice(_PUNCTUATION))
    if rng.random() < 0.10:
        text = text.replace(" ", "  ", 1)
    return text


def _timestamp(rng: np.random.Generator) -> datetime:
    weights = np.asarray(HOUR_WEIGHTS, dtype=np.float64)
    hour = int(rng.choice(24, p=weights / weights.sum()))
    return datetime(
        2024, 6, 3, hour, int(rng.integers(60)), int(rng.integers(60)),
        tzinfo=timezone.utc,
    )


def _polarity_plan(
    topic: str, n_docs: int, rng: np.random.Generator
) -> list[SentimentLabel]:
    """Exact per-topic polarity counts, shuffled into a document order."""
    pos_frac, neg_frac, _ = TOPIC_POLARITY_MIX.get(topic, _DEFAULT_MIX)
    n_pos = round(pos_frac * n_docs)
    n_neg = round(neg_frac * n_docs)
    plan = (
        [SentimentLabel.POSITIVE] * n_pos
        + [SentimentLabel.NEGATIVE] * n_neg
        + [SentimentLabel.NEUTRAL] * (n_docs - n_pos - n_neg)
    )
    return [plan[i] for i in rng.permutation(n_docs)]


def generate_corpus(
    topic: str, seed: int = 42, n_docs: int = 500
) -> list[RawTweet]:
    """Synthesise one topic's corpus of ``n_docs`` tweets.

    Polarity counts follow the topic's mix in ``TOPIC_POLARITY_MIX``
    exactly; every non-neutral tweet carries two or three words from one
    polarity vocabulary and none from the other.  The stream is seeded per
    topic, so the two demo corpora differ in content, not just in tag.
    """
    rng = seeded_rng(seed, _topic_key(topic))
    polarities = _polarity_plan(topic, n_docs, rng)
    return [
        RawTweet(
            id=f"{topic}-{i:04d}",
            text=_compose_text(rng, topic, polarities[i]),
            created_at=_timestamp(rng),
            topic=topic,
        )
        for i in range(n_docs)
    ]


def _topic_key(topic: str) -> int:
    """A small deterministic integer derived from the topic name."""
    return sum(topic.encode("utf-8")) % 9973


def lexicon_lines() -> list[str]:
    """The demo lexicon as TSV lines (strong words ±2, mild words ±1)."""
    lines = [
        "# Demonstration polarity lexicon for the bundled synthetic corpus.",
        "# token<TAB>weight; positive weights mark positive words.",
    ]
    strong_pos = set(POSITIVE_WORDS[:8])
    strong_neg = set(NEGATIVE_WORDS[:8])
    for word in POSITIVE_WORDS + EXTRA_POSITIVE:
        lines.append(f"{word}\t{2.0 if word in strong_pos else 1.0}")
    for word in NEGATIVE_WORDS + EXTRA_NEGATIVE:
        lines.append(f"{word}\t{-2.0 if word in strong_neg else -1.0}")
    return lines


def write_demo_data(
    out_dir: str | Path, seed: int = 42, docs_per_topic: int = 500
) -> DemoFiles:
    """Write one corpus per topic, a lexicon, stopwords, and a pipeline config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    corpora = []
    for topic in TOPICS:
        path = out / corpus_filename(topic)
        save_corpus(generate_corpus(topic, seed=seed, n_docs=docs_per_topic), path)
        corpora.append(path)

    lexicon_path = out / LEXICON_FILENAME
    lexicon_path.write_text("\n".join(lexicon_lines()) + "\n", encoding="utf-8")

    stopwords_path = out / STOPWORDS_FILENAME
    stopwords_path.write_text(
        "# Common function words removed during tokenization.\n"
        + "\n".join(STOPWORDS)
        + "\n",
        encoding="utf-8",
    )

    config_path = out / CONFIG_FILENAME
    config = {
        "topics": {topic: corpus_filename(topic) for topic in TOPICS},
        "lexicon": LEXICON_FILENAME,
        "stopwords": STOPWORDS_FILENAME,
        "seed": seed,
        "folds": 4,
        "min_df": 1,
        "out_dir": "report",
    }
    config_path.write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return DemoFiles(
        corpora=tuple(corpora),
        lexicon=lexicon_path,
        stopwords=stopwords_path,
        config=config_path,
    )


def make_toy_training_set() -> TrainingSet:
    """A fixed ten-document, three-class training set for quick experiments.

    Small enough to reason about by hand: three clearly positive documents,
    three negative, three neutral, and one document whose positive and
    negative words cancel.
    """
    docs = [
        ("good", "good", "fun"),
        ("good", "nice"),
        ("fun", "nice", "good"),
        ("bad", "sad"),
        ("bad", "bad", "gloomy"),
        ("sad", "gloomy"),
        ("table", "chair"),
        ("chair", "lamp", "table"),
        ("lamp", "table"),
        ("good", "bad"),
    ]
    labels = (
        SentimentLabel.POSITIVE, SentimentLabel.POSITIVE, SentimentLabel.POSITIVE,
        SentimentLabel.NEGATIVE, SentimentLabel.NEGATIVE, SentimentLabel.NEGATIVE,
        SentimentLabel.NEUTRAL, SentimentLabel.NEUTRAL, SentimentLabel.NEUTRAL,
        SentimentLabel.NEUTRAL,
    )
    return TrainingSet(matrix=build_count_matrix(build_vocabulary(docs), docs), labels=labels)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tweetsent.datagen",
        description="Write the bundled demonstration corpus, lexicon, and stopwords.",
    )
    parser.add_argument("--out", required=True, help="directory to write into")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--docs-per-topic", type=int, default=500)
    args = parser.parse_args(argv)
    files = write_demo_data(args.out, seed=args.seed, docs_per_topic=args.docs_per_topic)
    for path in files.corpora + (files.lexicon, files.stopwords, files.config):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
