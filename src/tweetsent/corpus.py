"""Tweet corpus ingestion, text normalization, and time-of-day exploration.

Corpora are flat files, one record per tweet, in either of two formats,
chosen by the file's suffix when it is loaded and when it is saved:

* CSV, for a ``.csv`` suffix in any case: RFC-4180 with a header row
  carrying the column names ``id``, ``text``, ``created_at`` (ISO-8601
  UTC) and ``topic``.
* JSONL, for any other suffix: one object per line with exactly the same
  four fields.

Text normalization is a fixed rule sequence (lowercase, URL removal,
mention removal, "#" stripping, punctuation/emoji removal, whitespace
collapse) so that cleaning is deterministic and idempotent.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .exceptions import CorpusError, errors_of, located, parse_json, read_input

__all__ = [
    "RawTweet",
    "CleanDocument",
    "load_corpus",
    "save_corpus",
    "load_stopwords",
    "clean_text",
    "tokenize",
    "clean_corpus",
    "hourly_histogram",
]

CORPUS_FIELDS = ("id", "text", "created_at", "topic")


@dataclass(frozen=True)
class RawTweet:
    """One social-media post as found in the input file."""

    id: str
    text: str
    created_at: datetime  # always timezone-aware, UTC
    topic: str


@dataclass(frozen=True)
class CleanDocument:
    """A tweet after normalization and tokenization."""

    id: str
    tokens: tuple[str, ...]
    topic: str
    created_at: datetime


def _parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 instant and normalize it to UTC.

    Accepts a trailing "Z" as well as explicit offsets; a naive timestamp
    is taken to already be UTC.
    """
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def _format_timestamp(dt: datetime) -> str:
    out = dt.astimezone(timezone.utc).isoformat()
    return out.replace("+00:00", "Z")


def _validate_record(raw: dict) -> RawTweet:
    missing = [f for f in CORPUS_FIELDS if f not in raw]
    if missing:
        raise CorpusError(f"missing field '{missing[0]}'")
    extra = [k for k in raw if k not in CORPUS_FIELDS]
    if extra:
        raise CorpusError(f"unexpected field(s) {extra}")
    for field in CORPUS_FIELDS:
        if not isinstance(raw[field], str):
            raise CorpusError(f"field '{field}' must be a string")
    if not raw["id"]:
        raise CorpusError("field 'id' must be non-empty")
    # OverflowError: an offset time whose UTC instant leaves years 1-9999.
    try:
        created = _parse_timestamp(raw["created_at"])
    except (ValueError, OverflowError) as exc:
        raise CorpusError(f"invalid created_at {raw['created_at']!r} ({exc})") from exc
    return RawTweet(**{**raw, "created_at": created})


def _jsonl_record(line: str) -> dict:
    stripped = line.strip()
    if not stripped:
        raise CorpusError("blank line in JSONL corpus")
    record = parse_json(stripped, CorpusError)
    if not isinstance(record, dict):
        raise CorpusError("record is not an object")
    return record


def _csv_records(text: str) -> Iterator[dict]:
    """The rows of a CSV corpus, after checking its header row."""
    # newline="" on the read and on the StringIO: the csv module splits the
    # lines itself, so a quoted newline stays part of its field.
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        header = reader.fieldnames
    except csv.Error as exc:  # such as a field past the csv module's size limit
        raise located("header", CorpusError(str(exc))) from exc
    if header is None:
        return iter(())  # zero-byte file: empty corpus
    if sorted(header) != sorted(CORPUS_FIELDS):
        raise CorpusError(f"header: expected columns {list(CORPUS_FIELDS)}, got {list(header)}")
    return map(_csv_record, reader)


def _csv_record(row: dict) -> dict:
    if None in row or any(v is None for v in row.values()):
        raise CorpusError("wrong number of columns")
    return row


def _is_csv(path: Path) -> bool:
    """The one format rule, for loading and saving alike: a ``.csv`` suffix
    (any case) means CSV, any other means JSONL."""
    return path.suffix.lower() == ".csv"


def load_corpus(path: str | Path) -> list[RawTweet]:
    """Load a tweet corpus file, in the format its suffix names.

    Returns:
        Tweets in file order. An empty file yields an empty list.

    Raises:
        CorpusError: unreadable or non-UTF-8 file, malformed record,
            missing or unexpected field, or duplicate tweet id; the message
            names the file, and a record's JSONL line or CSV row.
    """
    path = Path(path)
    is_csv = _is_csv(path)
    text = read_input(path, CorpusError, "corpus file", newline="" if is_csv else None)
    tweets: dict[str, RawTweet] = {}  # by id
    with errors_of(path):
        if is_csv:
            unit, records = "row", _csv_records(text)
        else:  # every line is a record, so record n is line n
            unit, records = "line", map(_jsonl_record, io.StringIO(text))
        try:
            for record in records:
                tweet = _validate_record(record)
                if tweet.id in tweets:
                    raise CorpusError(f"duplicate tweet id {tweet.id!r}")
                tweets[tweet.id] = tweet
        except csv.Error as exc:
            raise located(f"row {len(tweets) + 1}", CorpusError(str(exc))) from exc
        except CorpusError as exc:
            raise located(f"{unit} {len(tweets) + 1}", exc) from exc
    return list(tweets.values())


def save_corpus(tweets: Sequence[RawTweet], path: str | Path) -> None:
    """Write tweets out in the format the suffix of ``path`` names.

    A corpus round-trips: loading a saved file yields an equal tweet
    sequence (timestamps are normalized to UTC "Z" notation).
    """
    path = Path(path)
    if _is_csv(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CORPUS_FIELDS)
            for t in tweets:
                writer.writerow(
                    [t.id, t.text, _format_timestamp(t.created_at), t.topic]
                )
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for t in tweets:
                record = {
                    "id": t.id,
                    "text": t.text,
                    "created_at": _format_timestamp(t.created_at),
                    "topic": t.topic,
                }
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_stopwords(path: str | Path | None) -> frozenset[str]:
    """Read a stopword file (one token per line, "#" lines are comments).

    None yields the empty default set.
    """
    if path is None:
        return frozenset()
    text = read_input(path, CorpusError, "stopword file")
    words = set()
    for line in text.split("\n"):
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(word.lower())
    return frozenset(words)


# Cleaning rule order is fixed; see clean_text.
_URL_RE = re.compile(r"https?://\S+|www\.\S+|\bt\.co/\S+")
_MENTION_RE = re.compile(r"@\w+")
_NONWORD_RE = re.compile(r"[^\w\s]|_")
_WS_RE = re.compile(r"\s+")


def clean_text(raw: str) -> str:
    """Normalize raw tweet text.

    Applies, in order: lowercasing, URL removal (http/https, www.,
    t.co), @mention removal, "#" stripping (the hashtag word itself is
    kept), punctuation and emoji removal, whitespace collapse and trim.
    Total and idempotent: cleaning already-clean text is a no-op.
    """
    s = raw.lower()
    s = _URL_RE.sub(" ", s)
    s = _MENTION_RE.sub(" ", s)
    s = s.replace("#", "")
    s = _NONWORD_RE.sub(" ", s)
    s = _WS_RE.sub(" ", s)
    return s.strip()


def tokenize(clean: str, stopwords: frozenset[str] | set[str] = frozenset()) -> list[str]:
    """Split cleaned text on spaces and drop stopwords.

    Order and multiplicity of the surviving tokens are preserved. The
    input is expected to have passed through clean_text already.
    """
    return [tok for tok in clean.split() if tok not in stopwords]


def clean_corpus(
    tweets: Iterable[RawTweet], stopwords: frozenset[str] | set[str] = frozenset()
) -> list[CleanDocument]:
    """Normalize and tokenize every tweet, preserving ids and metadata."""
    return [
        CleanDocument(
            id=t.id,
            tokens=tuple(tokenize(clean_text(t.text), stopwords)),
            topic=t.topic,
            created_at=t.created_at,
        )
        for t in tweets
    ]


def hourly_histogram(docs: Iterable[CleanDocument | RawTweet]) -> tuple[int, ...]:
    """Document counts per UTC hour of day: 24 bins, hour 0 first.

    The bin sum always equals the number of documents histogrammed.
    """
    bins = [0] * 24
    for doc in docs:
        bins[doc.created_at.astimezone(timezone.utc).hour] += 1
    return tuple(bins)
