"""Corpus loading, validation, text cleaning, and the hourly histogram."""

import csv
import json
from datetime import datetime, timezone

import pytest

from tweetsent.corpus import (
    CleanDocument,
    RawTweet,
    clean_corpus,
    clean_text,
    hourly_histogram,
    load_corpus,
    load_stopwords,
    save_corpus,
    tokenize,
)
from tweetsent.exceptions import CorpusError

# Valid local times whose UTC instants fall outside years 1-9999.
OUT_OF_RANGE_STAMPS = ["9999-12-31T23:30:00-01:00", "0001-01-01T00:30:00+01:00"]


def _tweet(i: int, text: str = "hello world", hour: int = 12, topic: str = "demo") -> RawTweet:
    return RawTweet(
        id=f"t-{i:03d}",
        text=text,
        created_at=datetime(2024, 5, 1, hour, 0, tzinfo=timezone.utc),
        topic=topic,
    )


class TestLoadJsonl:
    def test_round_trip(self, tmp_path):
        tweets = [_tweet(1), _tweet(2, text="second one", hour=3)]
        path = tmp_path / "c.jsonl"
        save_corpus(tweets, path)
        loaded = load_corpus(path)
        assert loaded == tweets

    def test_timestamps_normalised_to_utc(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [
            {"id": "a", "text": "x", "created_at": "2024-05-01T10:00:00Z", "topic": "t"},
            {"id": "b", "text": "x", "created_at": "2024-05-01T12:00:00+02:00", "topic": "t"},
            {"id": "c", "text": "x", "created_at": "2024-05-01T10:00:00", "topic": "t"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        loaded = load_corpus(path)
        expected = datetime(2024, 5, 1, 10, 0, tzinfo=timezone.utc)
        assert all(t.created_at == expected for t in loaded)

    def test_missing_field_names_field_and_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "x", "topic": "t"}\n', encoding="utf-8")
        with pytest.raises(CorpusError, match="line 1") as err:
            load_corpus(path)
        assert "created_at" in str(err.value)

    def test_extra_field_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {"id": "a", "text": "x", "created_at": "2024-05-01T10:00:00Z",
                  "topic": "t", "retweets": 3}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="retweets"):
            load_corpus(path)

    def test_blank_line_is_an_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {"id": "a", "text": "x", "created_at": "2024-05-01T10:00:00Z", "topic": "t"}
        path.write_text(json.dumps(record) + "\n\n" + json.dumps({**record, "id": "b"}) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {"id": "a", "text": "x", "created_at": "2024-05-01T10:00:00Z", "topic": "t"}
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="'a'"):
            load_corpus(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a"\n', encoding="utf-8")
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(path)

    @pytest.mark.parametrize("stamp", OUT_OF_RANGE_STAMPS)
    def test_instant_outside_utc_years_names_line(self, tmp_path, stamp):
        path = tmp_path / "c.jsonl"
        records = [
            {"id": "a", "text": "x", "created_at": "2024-05-01T10:00:00Z", "topic": "t"},
            {"id": "b", "text": "x", "created_at": stamp, "topic": "t"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        assert str(err.value) == f"{path}: line 2: invalid created_at {stamp!r} (date value out of range)"


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        tweets = [_tweet(1, text='with, comma and "quote"'), _tweet(2)]
        path = tmp_path / "c.csv"
        save_corpus(tweets, path)
        assert load_corpus(path) == tweets

    def test_column_order_is_free(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "topic,created_at,text,id\n"
            "t,2024-05-01T10:00:00Z,hello,a\n",
            encoding="utf-8",
        )
        [tweet] = load_corpus(path)
        assert tweet.id == "a" and tweet.topic == "t"

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,text,topic\na,hello,t\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="created_at"):
            load_corpus(path)

    @pytest.mark.parametrize("stamp", OUT_OF_RANGE_STAMPS)
    def test_instant_outside_utc_years_names_row(self, tmp_path, stamp):
        path = tmp_path / "c.csv"
        path.write_text(
            f"id,text,created_at,topic\na,x,2024-05-01T10:00:00Z,t\nb,x,{stamp},t\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        assert str(err.value) == f"{path}: row 2: invalid created_at {stamp!r} (date value out of range)"

    @pytest.mark.parametrize("where", ["header", "row 2"])
    def test_a_field_past_the_csv_size_limit_is_a_corpus_error(self, tmp_path, where):
        """The csv module refuses a field of more than ``csv.field_size_limit()``
        characters; that is the file's fault, so its loader's error."""
        limit = csv.field_size_limit()
        huge = "x" * (limit + 1)
        header, row = "id,text,created_at,topic", f"b,{huge},2024-05-01T10:00:00Z,t"
        if where == "header":
            header, row = f"id,text,created_at,topic{huge}", "b,x,2024-05-01T10:00:00Z,t"
        path = tmp_path / "c.csv"
        path.write_text(f"{header}\na,x,2024-05-01T10:00:00Z,t\n{row}\n", encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        assert str(err.value) == f"{path}: {where}: field larger than field limit ({limit})"

    @pytest.mark.parametrize(
        "name, first_line",
        [
            ("corpus.csv", "id,text,created_at,topic"),
            ("CORPUS.CSV", "id,text,created_at,topic"),
            ("corpus.dat", '{"id": "t-001"'),
        ],
    )
    def test_suffix_names_the_format_for_saving_and_loading(self, tmp_path, name, first_line):
        """A ``.csv`` suffix, in any case, is CSV both ways; any other is JSONL."""
        tweets = [_tweet(1, text='with, comma and "quote"'), _tweet(2)]
        path = tmp_path / name
        save_corpus(tweets, path)
        assert path.read_text(encoding="utf-8").startswith(first_line)
        assert load_corpus(path) == tweets


class TestCleanText:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Check http://t.co/x @user #KFC!!", "check kfc"),
            ("LOUD noises", "loud noises"),
            ("tabs\tand\nnewlines", "tabs and newlines"),
            ("under_score stays? no_", "under score stays no"),
            ("unicode caffè ok", "unicode caffè ok"),
            ("", ""),
            ("   ", ""),
            ("@only_mention", ""),
            ("www.example.com trailing", "trailing"),
            ("100% of #deals!", "100 of deals"),
        ],
    )
    def test_examples(self, raw, expected):
        assert clean_text(raw) == expected

    def test_idempotent_on_examples(self):
        for raw in ["Check http://t.co/x @user #KFC!!", "a   b", "#tag @m", "plain"]:
            once = clean_text(raw)
            assert clean_text(once) == once


class TestTokenize:
    def test_splits_and_filters_stopwords(self):
        assert tokenize("the quick fox", {"the"}) == ["quick", "fox"]

    def test_empty_string_gives_no_tokens(self):
        assert tokenize("", {"the"}) == []

    def test_default_keeps_everything(self):
        assert tokenize("a b a") == ["a", "b", "a"]


class TestStopwords:
    def test_loads_lowercased_ignoring_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nThe\nand\n\n  OR \n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"the", "and", "or"})

    def test_none_means_empty(self):
        assert load_stopwords(None) == frozenset()


class TestCleanCorpus:
    def test_preserves_ids_and_order(self, tmp_path):
        tweets = [_tweet(1, "First! #one"), _tweet(2, "second @user")]
        docs = clean_corpus(tweets, frozenset())
        assert [d.id for d in docs] == ["t-001", "t-002"]
        assert docs[0].tokens == ("first", "one")
        assert docs[1].tokens == ("second",)


class TestHourlyHistogram:
    def test_counts_by_utc_hour(self):
        docs = [
            CleanDocument(id=str(i), tokens=(), topic="t",
                          created_at=datetime(2024, 5, 1, h, 0, tzinfo=timezone.utc))
            for i, h in enumerate([0, 0, 13, 23])
        ]
        hist = hourly_histogram(docs)
        assert len(hist) == 24
        assert hist[0] == 2 and hist[13] == 1 and hist[23] == 1
        assert sum(hist) == 4

    def test_offset_timestamps_bucket_by_utc(self):
        tweet = RawTweet(
            id="a", text="x", topic="t",
            created_at=datetime(2024, 5, 1, 23, 30, tzinfo=timezone.utc),
        )
        assert hourly_histogram([tweet])[23] == 1
