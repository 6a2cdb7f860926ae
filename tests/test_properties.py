"""Property suites: invariants that must hold across whole input families.

Four families: sign-rule labels are invariant under positive rescaling of
the lexicon, k-fold splits partition any corpus into near-equal hands,
inverse document frequency strictly falls as a term spreads through the
corpus, and text cleaning is idempotent under a large fuzz corpus.
"""

import numpy as np
import pytest

from tweetsent.corpus import clean_text, tokenize
from tweetsent.evaluation import k_fold_split
from tweetsent.features import idf
from tweetsent.lexicon import label_corpus


def random_lexicon_case(rng, n_documents=300):
    """A random half-integer-weight lexicon plus random token documents.

    Weights live on a half-integer grid, so document scores and their
    positively rescaled counterparts are computed exactly in floating
    point; scale-invariance can then be checked with strict equality.
    """
    tokens = [f"w{i}" for i in range(12)]
    grid = np.array([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])
    entries = {tok: float(rng.choice(grid)) for tok in tokens}
    vocabulary = tokens + ["absent1", "absent2", "absent3"]
    documents = [
        [vocabulary[j] for j in rng.integers(0, len(vocabulary), size=length)]
        for length in rng.integers(0, 9, size=n_documents)
    ]
    return entries, documents


FUZZ_PIECES = [
    "Hello", "WORLD", "café", "naïve", "test123", "42",
    "http://t.co/Ab1", "https://example.com/a?b=c&d=e", "www.news.site/x",
    "@someone", "@a", "#Hashtag", "#a_b", "#", "@",
    "!!!", "?!?", "...", "—", "..", ",,,", "::", ";;",
    "😀", "🔥🔥", "½", "©", "™", "​", "\t", "\n", "\r\n",
    "'quoted'", '"double"', "(parens)", "[brackets]", "{braces}",
    "don't", "it's", "a-b", "x_y", "5%", "$9.99", "C++", "a/b\\c",
    "", " ", "   ",
]
FUZZ_SEPARATORS = ["", " ", "  ", "\t", "\n"]


def fuzz_strings(count, seed=31415):
    """``count`` deterministic adversarial strings for the text cleaner."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_pieces = int(rng.integers(0, 12))
        sep = FUZZ_SEPARATORS[int(rng.integers(0, len(FUZZ_SEPARATORS)))]
        yield sep.join(
            FUZZ_PIECES[int(rng.integers(0, len(FUZZ_PIECES)))]
            for _ in range(n_pieces)
        )


def kfold_grid():
    """Every (corpus size, fold count) pair with n <= 30 and k in 2..5."""
    for n_docs in range(2, 31):
        for k in (2, 3, 4, 5):
            if k <= n_docs:
                yield n_docs, k


class TestLexiconScaleInvariance:
    """Scaling every weight by a positive constant cannot change a label."""

    @pytest.mark.parametrize("factor", [0.5, 2.0, 10.0])
    def test_labels_survive_rescaling(self, factor):
        rng = np.random.default_rng(2718)
        lexicon, documents = random_lexicon_case(rng)
        scaled = {tok: factor * w for tok, w in lexicon.items()}
        labels, scores = label_corpus(lexicon, documents)
        scaled_labels, scaled_scores = label_corpus(scaled, documents)
        for label, score, scaled_label, scaled_score in zip(
            labels, scores, scaled_labels, scaled_scores, strict=True
        ):
            assert scaled_label is label
            assert scaled_score == factor * score

    def test_zero_scores_stay_exactly_zero(self):
        """Cancelling tokens stay Neutral at every scale."""
        lexicon = {"up": 1.5, "down": -1.5}
        for factor in (0.5, 2.0, 10.0):
            scaled = {tok: factor * w for tok, w in lexicon.items()}
            (label,), (score,) = label_corpus(scaled, [["up", "down", "up", "down"]])
            assert score == 0.0
            assert label.tag == "neutral"


class TestKFoldLaws:
    """Split laws over every corpus size up to 30 and k from 2 to 5."""

    def test_test_folds_partition_the_corpus(self):
        """Concatenated test folds hit every row exactly once."""
        for n_docs, k in kfold_grid():
            splits = k_fold_split(n_docs, k, seed=n_docs * 10 + k)
            all_test = np.concatenate([test for _, test in splits])
            np.testing.assert_array_equal(
                np.sort(all_test), np.arange(n_docs),
                err_msg=f"n={n_docs} k={k}",
            )

    def test_train_and_test_are_disjoint_complements(self):
        for n_docs, k in kfold_grid():
            for train, test in k_fold_split(n_docs, k, seed=n_docs * 10 + k):
                assert np.intersect1d(train, test).size == 0, f"n={n_docs} k={k}"
                assert train.size + test.size == n_docs, f"n={n_docs} k={k}"

    def test_fold_sizes_differ_by_at_most_one(self):
        for n_docs, k in kfold_grid():
            sizes = [
                test.size for _, test in k_fold_split(n_docs, k, seed=n_docs * 10 + k)
            ]
            assert max(sizes) - min(sizes) <= 1, f"n={n_docs} k={k}"
            assert sum(sizes) == n_docs, f"n={n_docs} k={k}"


class TestIdfMonotonicity:
    """A term in more documents is never more informative."""

    def test_idf_strictly_falls_as_document_frequency_rises(self):
        for n_docs in range(1, 41):
            values = [idf(n_docs, df) for df in range(1, n_docs + 1)]
            assert all(a > b for a, b in zip(values, values[1:])), f"n={n_docs}"

    def test_everywhere_terms_carry_zero_weight(self):
        for n_docs in range(1, 41):
            assert idf(n_docs, n_docs) == 0.0

    def test_idf_is_positive_below_full_spread(self):
        for n_docs in range(2, 41):
            assert idf(n_docs, n_docs - 1) > 0.0

    @pytest.mark.parametrize("n_docs, df", [(0, 1), (5, 0), (5, 6), (3, -1)])
    def test_out_of_range_frequencies_are_rejected(self, n_docs, df):
        with pytest.raises(ValueError):
            idf(n_docs, df)


class TestCleanTextIdempotence:
    """clean(clean(s)) == clean(s) over a large adversarial fuzz corpus."""

    def test_cleaning_is_idempotent_on_1000_fuzzed_strings(self):
        checked = 0
        for raw in fuzz_strings(1000):
            once = clean_text(raw)
            assert clean_text(once) == once, repr(raw)
            checked += 1
        assert checked == 1000

    def test_cleaned_output_is_canonical(self):
        """Cleaned text never carries leading, trailing, or doubled spaces."""
        for raw in fuzz_strings(200):
            once = clean_text(raw)
            assert once == once.strip()
            assert "  " not in once

    def test_tokenize_round_trips_cleaned_text(self):
        """Joining the tokens of cleaned text reproduces it exactly."""
        for raw in fuzz_strings(200):
            once = clean_text(raw)
            assert " ".join(tokenize(once)) == once
