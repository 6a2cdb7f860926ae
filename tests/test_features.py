"""Vocabulary construction, sparse count matrices, and TF-IDF weighting."""

import math

import numpy as np
import pytest

from tweetsent.exceptions import DataError
from tweetsent.features import (
    COUNTS,
    TFIDF,
    build_count_matrix,
    build_vocabulary,
    idf,
    index_ranges,
    tfidf_transform,
)

DOCS = [
    ["apple", "banana", "apple"],
    ["banana", "cherry"],
    ["cherry", "cherry", "date"],
]


def reference_vectorize(terms, tokens):
    """The per-document vectorizer ``build_count_matrix`` replaced, kept
    as its reference; it returns a document's (columns, weights)."""
    counts: dict[int, int] = {}
    for tok in tokens:
        col = terms.index(tok) if tok in terms else None
        if col is not None:
            counts[col] = counts.get(col, 0) + 1
    cols = np.array(sorted(counts), dtype=np.int64)
    weights = np.array([counts[c] for c in cols], dtype=np.float64)
    return cols, weights


def reference_count_arrays(terms, docs):
    """``indptr``, ``indices`` and ``data`` as the concatenation of
    :func:`reference_vectorize`'s per-document arrays."""
    indptr = np.zeros(len(docs) + 1, dtype=np.int64)
    all_cols = []
    all_weights = []
    for i, tokens in enumerate(docs):
        cols, weights = reference_vectorize(terms, tokens)
        all_cols.append(cols)
        all_weights.append(weights)
        indptr[i + 1] = indptr[i] + len(cols)
    indices = np.concatenate(all_cols) if all_cols else np.empty(0, dtype=np.int64)
    data = np.concatenate(all_weights) if all_weights else np.empty(0, dtype=np.float64)
    return indptr, indices.astype(np.int64), data.astype(np.float64)


class TestVocabulary:
    def test_terms_in_first_appearance_order(self):
        assert build_vocabulary(DOCS) == ("apple", "banana", "cherry", "date")

    def test_min_df_counts_documents_not_occurrences(self):
        """"a" occurs three times, but in one document; "cherry" three
        times, in two."""
        assert build_vocabulary([["a", "a", "a"], ["b"], ["b"]], min_df=2) == ("b",)
        assert build_vocabulary(DOCS, min_df=3) == ()

    def test_min_df_prunes_rare_terms(self):
        assert build_vocabulary(DOCS, min_df=2) == ("banana", "cherry")

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocabulary([])

    def test_min_df_below_one_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary(DOCS, min_df=0)


class TestCountMatrix:
    def test_csr_layout(self):
        vocab = build_vocabulary(DOCS)
        m = build_count_matrix(vocab, DOCS)
        assert m.n_docs == 3 and m.n_terms == 4
        assert m.indptr.tolist() == [0, 2, 4, 6]
        assert m.weighting == COUNTS

    def test_dense_view(self):
        vocab = build_vocabulary(DOCS)
        dense = build_count_matrix(vocab, DOCS).toarray()
        expected = np.array(
            [[2, 1, 0, 0],
             [0, 1, 1, 0],
             [0, 0, 2, 1]], dtype=np.float64)
        np.testing.assert_array_equal(dense, expected)

    def test_entry_rows_name_each_entry_s_row(self):
        """Empty rows hold no entry; no rows give no entries."""
        vocab = build_vocabulary(DOCS)
        m = build_count_matrix(vocab, [[], DOCS[0], [], DOCS[2]])
        rows = m.entry_rows()
        assert rows.tolist() == [1, 1, 3, 3] and rows.dtype == np.int64
        assert m.take([]).entry_rows().shape == (0,)

    def test_dot_adds_each_row_left_to_right_alone(self):
        """Row i's product with weight row c is its entries' products added
        in column order from 0.0, whatever other rows the batch holds."""
        rng = np.random.default_rng(5)
        docs = [[f"t{j}" for j in rng.integers(0, 12, size=n)] for n in rng.integers(0, 9, 30)]
        m = build_count_matrix(build_vocabulary(docs), docs)
        # Magnitudes 1e-8..1e7, so that another summation order rounds apart.
        scale = 10.0 ** rng.integers(-8, 8, size=(3, m.n_terms))
        weights = rng.normal(size=(3, m.n_terms)) * scale
        products = m.dot(weights)
        assert products.shape == (m.n_docs, 3) and products.dtype == np.float64
        for i in range(m.n_docs):
            row = m.row(i)
            for c in range(3):
                expected = 0.0
                for j, w in zip(row.indices.tolist(), row.data.tolist()):
                    expected += w * float(weights[c, j])
                assert products[i, c] == expected
            assert row.dot(weights).tobytes() == products[[i]].tobytes()
        assert m.take([]).dot(weights).shape == (0, 3)

    def test_row_returns_a_sorted_one_row_matrix(self):
        counts = build_count_matrix(build_vocabulary(DOCS), DOCS)
        for m in (counts, tfidf_transform(counts)):
            row = m.row(2)
            assert row.n_docs == 1 and row.indptr.tolist() == [0, row.nnz]
            assert row.terms is m.terms and row.weighting == m.weighting
            np.testing.assert_array_equal(row.toarray(), m.toarray()[[2]])
        row = counts.row(0)
        assert row.indices.tolist() == [0, 1]
        assert row.data.tolist() == [2.0, 1.0]
        assert (row.indptr.dtype, row.indices.dtype, row.data.dtype) == (
            np.int64, np.int64, np.float64
        )

    def test_out_of_vocabulary_tokens_dropped(self):
        vocab = build_vocabulary(DOCS)
        vec = build_count_matrix(vocab, [["apple", "zebra"]])
        assert vec.indices.tolist() == [0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_document_reference(self, seed):
        """Out-of-vocabulary, repeated and empty documents give the bytes
        and dtypes of the per-document vectorizer's concatenation, and so
        does a corpus of no documents."""
        rng = np.random.default_rng(seed)
        pool = [f"w{j}" for j in range(30)] + [f"oov{j}" for j in range(10)]
        docs = [
            [pool[j] for j in rng.integers(0, len(pool), size=rng.integers(0, 9))]
            for _ in range(60)
        ]
        docs += [[], ["w1"] * 5, ["oov1", "oov2"]]
        vocab = build_vocabulary([d for d in docs if not any(t.startswith("oov") for t in d)])
        assert any(not d for d in docs) and any(len(set(d)) < len(d) for d in docs)
        for corpus in (docs, []):
            m = build_count_matrix(vocab, corpus)
            expected = reference_count_arrays(vocab, corpus)
            for got, want in zip((m.indptr, m.indices, m.data), expected):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_empty_document_is_a_zero_row(self):
        vocab = build_vocabulary(DOCS)
        m = build_count_matrix(vocab, [["apple"], [], ["date"]])
        assert m.row(1).nnz == 0
        np.testing.assert_array_equal(m.toarray()[1], np.zeros(4))

    @pytest.mark.parametrize(
        "starts, lengths",
        [([4, 0, 9], [2, 0, 3]), ([7], [0]), ([], [])],
        ids=["ranges", "one-empty", "none"],
    )
    def test_index_ranges_list_each_range_in_turn(self, starts, lengths):
        """The positions of the ranges one after another, and where each
        begins among them; no ranges, as an empty fold takes, give none."""
        positions, offsets = index_ranges(
            np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64)
        )
        assert positions.tolist() == [s + j for s, n in zip(starts, lengths) for j in range(n)]
        assert offsets.tolist() == np.cumsum([0, *lengths]).tolist()

    def test_take_reorders_rows(self):
        vocab = build_vocabulary(DOCS)
        m = build_count_matrix(vocab, DOCS)
        sub = m.take(np.array([2, 0]))
        np.testing.assert_array_equal(sub.toarray(), m.toarray()[[2, 0]])

    def test_take_matches_a_row_by_row_copy(self):
        """Repeated, reordered and empty rows; no rows at all."""
        rng = np.random.default_rng(5)
        docs = [
            [f"w{rng.integers(0, 25)}" for _ in range(rng.integers(0, 7))]
            for _ in range(40)
        ]
        m = build_count_matrix(build_vocabulary(docs), docs)
        for rows in (rng.integers(0, 40, size=60), np.arange(40)[::-1], []):
            sub = m.take(rows)
            picked = [m.row(i) for i in rows]
            assert sub.indptr.tolist() == np.cumsum([0] + [v.nnz for v in picked]).tolist()
            expected_cols = [c for v in picked for c in v.indices.tolist()]
            expected_weights = [w for v in picked for w in v.data.tolist()]
            assert sub.indices.tolist() == expected_cols
            assert sub.data.tolist() == expected_weights
            assert (sub.indices.dtype, sub.data.dtype) == (np.int64, np.float64)


class TestIdf:
    def test_formula_is_natural_log_of_inverse_fraction(self):
        assert idf(10, 2) == pytest.approx(math.log(5.0))
        assert idf(3, 3) == 0.0

    def test_array_of_frequencies_is_elementwise(self):
        df = np.array([1, 2, 4])
        assert idf(4, df).tolist() == [idf(4, 1), idf(4, 2), idf(4, 4)]
        with pytest.raises(ValueError, match="df must be in 1..4"):
            idf(4, np.array([1, 5, 2]))

    def test_rejects_out_of_range_df(self):
        with pytest.raises(ValueError):
            idf(3, 0)
        with pytest.raises(ValueError):
            idf(3, 4)


class TestTfidf:
    def test_weights_are_count_times_idf(self):
        vocab = build_vocabulary(DOCS)
        counts = build_count_matrix(vocab, DOCS)
        weighted = tfidf_transform(counts)
        assert weighted.weighting == TFIDF
        dense = weighted.toarray()
        assert dense[0, 0] == pytest.approx(2 * math.log(3 / 1))
        assert dense[0, 1] == pytest.approx(1 * math.log(3 / 2))

    def test_ubiquitous_term_drops_out(self):
        docs = [["common", "rare"], ["common"], ["common", "other"]]
        vocab = build_vocabulary(docs)
        weighted = tfidf_transform(build_count_matrix(vocab, docs))
        dense = weighted.toarray()
        np.testing.assert_array_equal(dense[:, 0], np.zeros(3))
        # the zero weights are removed from the sparse structure entirely
        assert weighted.nnz == 2

    def test_matrix_without_entries(self):
        """A min_df that keeps no term leaves nothing to reweight."""
        docs = [["a"], ["b"]]
        counts = build_count_matrix(build_vocabulary(docs, min_df=2), docs)
        weighted = tfidf_transform(counts)
        assert weighted.weighting == TFIDF and weighted.nnz == 0
        assert weighted.indptr.tolist() == [0, 0, 0]
        assert weighted.data.dtype == np.float64 and weighted.indices.dtype == np.int64

    def test_document_frequencies_are_the_rows_own(self):
        """Rows 0 and 3 hold every term, each in one of them, so each idf
        there is ln(2/1). By its df over all four rows, 3, "b" would get
        ln(2/3) < 0."""
        docs = [["a", "b", "b"], ["b"], ["b"], ["c"]]
        rows = build_count_matrix(build_vocabulary(docs), docs).take([0, 3])
        weighted = tfidf_transform(rows)
        assert weighted.toarray().tolist() == (rows.toarray() * idf(2, 1)).tolist()
        assert (weighted.data > 0).all()

    @pytest.mark.parametrize("rows", [[0], []])
    def test_refuses_rows_in_which_a_term_has_no_document(self, rows):
        """Over the first row alone "cherry" and "date" occur in no row, and
        over no rows every term: ln(n_docs / 0) has no value."""
        counts = build_count_matrix(build_vocabulary(DOCS), DOCS)
        with pytest.raises(ValueError, match=f"df must be in 1..{len(rows)}, got"):
            tfidf_transform(counts.take(rows))

    def test_requires_count_input(self):
        vocab = build_vocabulary(DOCS)
        weighted = tfidf_transform(build_count_matrix(vocab, DOCS))
        with pytest.raises(ValueError):
            tfidf_transform(weighted)
