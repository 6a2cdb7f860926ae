"""
Loading and cleaning a tweet corpus
===================================

Every pipeline starts from raw tweets: JSONL (or CSV) records with an id,
text, UTC timestamp, and topic.  This script walks the ingestion and
cleaning stages on the bundled demo corpus and shows what the normalizer
does to noisy text.
"""

from pathlib import Path

from tweetsent.corpus import (
    clean_corpus,
    clean_text,
    hourly_histogram,
    load_corpus,
    load_stopwords,
    tokenize,
)

DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"

# ---------------------------------------------------------------------------
# 1. Load the raw corpus. Each record is validated (missing fields, bad
#    timestamps, and malformed lines raise DataError with the line number).
tweets = load_corpus(DEMO / "corpus_burgerhouse.jsonl")
print(f"loaded {len(tweets)} tweets on topic {tweets[0].topic!r}")
print("first record:", tweets[0])
print()

# ---------------------------------------------------------------------------
# 2. Cleaning normalizes one string at a time: lowercase, strip URLs and
#    @mentions, drop the '#' of hashtags but keep the word, remove
#    punctuation and emoji, and collapse whitespace.  It is idempotent:
#    cleaning clean text changes nothing.
noisy = "LOVED the new #CheeseBurger!! 😋 order at http://t.co/xyz @Big_Burger"
print("raw:    ", noisy)
print("cleaned:", clean_text(noisy))
assert clean_text(clean_text(noisy)) == clean_text(noisy)
print()

# ---------------------------------------------------------------------------
# 3. Tokenization splits on spaces and drops stopwords. The bundled
#    stopword list is a plain text file, one word per line.
stopwords = load_stopwords(DEMO / "stopwords.txt")
print(f"{len(stopwords)} stopwords, e.g. {sorted(stopwords)[:6]}")
print("tokens: ", tokenize(clean_text(noisy), stopwords))
print()

# ---------------------------------------------------------------------------
# 4. clean_corpus applies both steps to every tweet: a cleaned tweet is
#    its token tuple, in tweet order, so its id, timestamp and topic stay
#    on the raw tweet at the same position.
documents = clean_corpus(tweets, stopwords)
print(f"first cleaned tweet {tweets[0].id!r}:", documents[0])
total_tokens = sum(len(tokens) for tokens in documents)
print(f"{len(documents)} documents, {total_tokens} tokens after cleaning")
print()

# ---------------------------------------------------------------------------
# 5. Timestamps feed a 24-bin activity histogram — when does this topic
#    get talked about?  The demo corpus is weighted toward lunch hours.
histogram = hourly_histogram(tweets)
peak = max(range(24), key=lambda h: histogram[h])
print("tweets per hour (UTC):")
for hour, count in enumerate(histogram):
    bar = "#" * (count // 2)
    print(f"  {hour:02d}h {count:3d} {bar}")
print(f"peak activity at {peak:02d}h")
