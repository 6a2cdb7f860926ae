"""Lexicon parsing, document scoring, and the sign-rule labeler."""

from datetime import datetime, timezone

import pytest

from tweetsent.corpus import CleanDocument
from tweetsent.exceptions import LexiconError
from tweetsent.lexicon import (
    CANONICAL_LABELS,
    SentimentLabel,
    label_corpus,
    label_document,
    label_for_score,
    load_lexicon,
    score_document,
)


def _doc(i: int, tokens: tuple[str, ...]) -> CleanDocument:
    return CleanDocument(
        id=f"d-{i}", tokens=tokens, topic="t",
        created_at=datetime(2024, 1, 1, tzinfo=timezone.utc),
    )


class TestLoadLexicon:
    def test_parses_entries_ignoring_comments_and_blanks(self, tiny_lexicon):
        lex = load_lexicon(tiny_lexicon)
        assert len(lex) == 4
        assert lex.weight("great") == 2.0
        assert lex.weight("awful") == -2.0
        assert lex.weight("unknown") == 0.0

    def test_tokens_are_lowercased(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("GOOD\t1.5\n")
        assert load_lexicon(path).weight("good") == 1.5

    def test_later_duplicate_wins(self, tmp_path, caplog):
        path = tmp_path / "lex.tsv"
        path.write_text("good\t1.0\ngood\t3.0\n")
        with caplog.at_level("WARNING"):
            lex = load_lexicon(path)
        assert lex.weight("good") == 3.0
        assert any("good" in rec.message for rec in caplog.records)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\t1.0\nbad 1.0\n")
        with pytest.raises(LexiconError, match="line 2"):
            load_lexicon(path)

    def test_unparseable_weight_names_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\tnot-a-number\n")
        with pytest.raises(LexiconError, match="line 1"):
            load_lexicon(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_weight_names_line(self, weight, tmp_path):
        """float() parses these, but a NaN weight labels every document it
        touches Neutral, and infinite weights of both signs sum to NaN."""
        path = tmp_path / "lex.tsv"
        path.write_text(f"good\t1.0\nbad\t{weight}\n")
        with pytest.raises(LexiconError, match="line 2: .* is not finite"):
            load_lexicon(path)

    def test_empty_lexicon_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# nothing here\n")
        with pytest.raises(LexiconError):
            load_lexicon(path)

    def test_one_sided_lexicon_warns(self, tmp_path, caplog):
        path = tmp_path / "lex.tsv"
        path.write_text("good\t1.0\nnice\t0.5\n")
        with caplog.at_level("WARNING"):
            load_lexicon(path)
        assert any("negative" in rec.message for rec in caplog.records)


class TestScoring:
    def test_score_sums_weights_with_multiplicity(self, tiny_lexicon):
        lex = load_lexicon(tiny_lexicon)
        assert score_document(lex, ["good", "good", "bad"]) == 1.0

    def test_unknown_tokens_score_zero(self, tiny_lexicon):
        lex = load_lexicon(tiny_lexicon)
        assert score_document(lex, ["mystery", "words"]) == 0.0

    @pytest.mark.parametrize(
        "score,expected",
        [
            (0.5, SentimentLabel.POSITIVE),
            (-0.5, SentimentLabel.NEGATIVE),
            (0.0, SentimentLabel.NEUTRAL),
            (1e-12, SentimentLabel.POSITIVE),
            (-1e-12, SentimentLabel.NEGATIVE),
        ],
    )
    def test_sign_rule(self, score, expected):
        assert label_for_score(score) is expected

    def test_label_document_returns_label_and_score(self, tiny_lexicon):
        lex = load_lexicon(tiny_lexicon)
        label, score = label_document(lex, ["awful", "good"])
        assert label is SentimentLabel.NEGATIVE
        assert score == -1.0


class TestLabelCorpus:
    def test_counts_cover_all_labels(self, tiny_lexicon):
        lex = load_lexicon(tiny_lexicon)
        docs = [
            _doc(0, ("good",)),
            _doc(1, ("bad",)),
            _doc(2, ("nothing", "here")),
            _doc(3, ("great", "bad")),
        ]
        labeled, counts = label_corpus(lex, docs)
        assert [item.label for item in labeled] == [
            SentimentLabel.POSITIVE,
            SentimentLabel.NEGATIVE,
            SentimentLabel.NEUTRAL,
            SentimentLabel.POSITIVE,
        ]
        assert counts == {
            SentimentLabel.POSITIVE: 2,
            SentimentLabel.NEUTRAL: 1,
            SentimentLabel.NEGATIVE: 1,
        }
        assert sum(counts.values()) == len(docs)

    def test_canonical_order_is_positive_neutral_negative(self):
        assert CANONICAL_LABELS == (
            SentimentLabel.POSITIVE, SentimentLabel.NEUTRAL, SentimentLabel.NEGATIVE
        )
        assert [int(label) for label in CANONICAL_LABELS] == [0, 1, 2]
