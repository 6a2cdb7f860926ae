"""Lexicon parsing, document scoring, and the sign-rule labeler."""

import pytest

from tweetsent.exceptions import LexiconError
from tweetsent.lexicon import (
    CANONICAL_LABELS,
    SentimentLabel,
    label_corpus,
    load_lexicon,
)


class TestLoadLexicon:
    def test_parses_entries_ignoring_comments_and_blanks(self, tiny_lexicon):
        lex = load_lexicon(tiny_lexicon)
        assert len(lex) == 4
        assert lex["great"] == 2.0
        assert lex["awful"] == -2.0
        assert "unknown" not in lex

    def test_tokens_are_lowercased(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("GOOD\t1.5\n")
        assert load_lexicon(path) == {"good": 1.5}

    def test_later_duplicate_wins(self, tmp_path, caplog):
        path = tmp_path / "lex.tsv"
        path.write_text("good\t1.0\ngood\t3.0\n")
        with caplog.at_level("WARNING"):
            lex = load_lexicon(path)
        assert lex["good"] == 3.0
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
        assert label_corpus(lex, [["good", "good", "bad"]])[1] == (1.0,)

    def test_unknown_tokens_score_zero(self, tiny_lexicon):
        lex = load_lexicon(tiny_lexicon)
        assert label_corpus(lex, [["mystery", "words"]])[1] == (0.0,)

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
        labels, scores = label_corpus({"w": score}, [["w"]])
        assert scores == (score,)
        assert labels[0] is expected

    def test_returns_labels_and_scores(self, tiny_lexicon):
        lex = load_lexicon(tiny_lexicon)
        labels, scores = label_corpus(lex, [["awful", "good"]])
        assert labels[0] is SentimentLabel.NEGATIVE
        assert scores == (-1.0,)

    @pytest.mark.parametrize(
        "weights, score, label",
        [
            ([0.7, -0.1, -0.6], 0.0, SentimentLabel.NEUTRAL),
            ([0.1, 0.2, -0.1, -0.1, -0.1], 2.7755575615628914e-17, SentimentLabel.POSITIVE),
        ],
    )
    def test_scores_add_left_to_right_on_every_python(self, weights, score, label):
        """A score is the plain left-to-right sum from 0.0, the result of
        built-in ``sum`` before Python 3.12.  Python 3.12's compensated
        ``sum`` gives -2.78e-17 (Negative) and 0.0 (Neutral) here."""
        tokens = [f"w{i}" for i in range(len(weights))]
        lex = dict(zip(tokens, weights))
        labels, scores = label_corpus(lex, [tokens])
        assert repr(scores[0]) == repr(score)
        assert labels == (label,)


class TestLabelCorpus:
    def test_counts_cover_all_labels(self, tiny_lexicon):
        lex = load_lexicon(tiny_lexicon)
        docs = [("good",), ("bad",), ("nothing", "here"), ("great", "bad")]
        labels, scores = label_corpus(lex, docs)
        assert labels == (
            SentimentLabel.POSITIVE,
            SentimentLabel.NEGATIVE,
            SentimentLabel.NEUTRAL,
            SentimentLabel.POSITIVE,
        )
        assert scores == (1.0, -1.0, 0.0, 1.0)
        counts = {label: labels.count(label) for label in CANONICAL_LABELS}
        assert counts == {
            SentimentLabel.POSITIVE: 2,
            SentimentLabel.NEUTRAL: 1,
            SentimentLabel.NEGATIVE: 1,
        }
        assert sum(counts.values()) == len(docs)

    def test_score_that_overflows_names_the_document(self):
        """good good bad bad bad sums exactly to -1e308, but the left-to-right
        float sum reaches inf at the second token and stays there."""
        lex = {"good": 1e308, "bad": -1e308}
        docs = [("good", "bad"), ("good", "good", "bad", "bad", "bad")]
        with pytest.raises(LexiconError, match=r"document 1 \(0-based\) is inf: the lexicon weights overflow"):
            label_corpus(lex, docs)

    def test_empty_corpus_gives_empty_tuples(self, tiny_lexicon):
        assert label_corpus(load_lexicon(tiny_lexicon), []) == ((), ())

    def test_canonical_order_is_positive_neutral_negative(self):
        assert CANONICAL_LABELS == (
            SentimentLabel.POSITIVE, SentimentLabel.NEUTRAL, SentimentLabel.NEGATIVE
        )
        assert [int(label) for label in CANONICAL_LABELS] == [0, 1, 2]
