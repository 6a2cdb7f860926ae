"""Vocabulary construction and sparse document-term matrices.

The vocabulary is frozen on the training corpus (first-appearance term
order, optional min_df pruning) and documents are vectorized against it;
unseen terms are dropped. Matrices carry either raw counts or TF-IDF
weights, where TF is the in-document count and IDF is ln(n_docs / df)
with no smoothing. A single document is a one-row matrix: vectorize it
with ``build_count_matrix(vocab, [tokens])`` or take ``matrix.row(i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import DataError

__all__ = [
    "COUNTS",
    "TFIDF",
    "Vocabulary",
    "DocTermMatrix",
    "build_vocabulary",
    "build_count_matrix",
    "idf",
    "tfidf_transform",
]

COUNTS = "counts"
TFIDF = "tfidf"


@dataclass(frozen=True)
class Vocabulary:
    """Frozen term set with column positions and document frequencies."""

    terms: tuple[str, ...]
    index: dict[str, int]
    doc_freq: np.ndarray  # int64, per term

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class DocTermMatrix:
    """Sparse document-by-term matrix in CSR layout.

    ``indptr`` has length n_docs + 1; row i occupies the half-open slice
    [indptr[i], indptr[i+1]) of ``indices``/``data``. Column indices are
    strictly increasing within each row.
    """

    vocab: Vocabulary
    indptr: np.ndarray  # int64, len n_docs + 1
    indices: np.ndarray  # int64
    data: np.ndarray  # float64
    weighting: str  # COUNTS or TFIDF

    @property
    def n_docs(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_terms(self) -> int:
        return len(self.vocab)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def row(self, i: int) -> "DocTermMatrix":
        """Row ``i`` as a one-row matrix (same vocabulary and weighting)."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return DocTermMatrix(
            vocab=self.vocab, indptr=self.indptr[i:i + 2] - lo,
            indices=self.indices[lo:hi], data=self.data[lo:hi], weighting=self.weighting,
        )

    def toarray(self) -> np.ndarray:
        """Densify to an (n_docs, n_terms) float64 array."""
        dense = np.zeros((self.n_docs, self.n_terms), dtype=np.float64)
        row_ids = np.repeat(np.arange(self.n_docs), np.diff(self.indptr))
        dense[row_ids, self.indices] = self.data
        return dense

    def take(self, rows: Sequence[int] | np.ndarray) -> "DocTermMatrix":
        """Row subset (same vocabulary and weighting)."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # Each output entry's source position: its row's start in this
        # matrix plus its offset within the row.
        source = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return DocTermMatrix(
            vocab=self.vocab, indptr=indptr, indices=self.indices[source],
            data=self.data[source], weighting=self.weighting,
        )


def build_vocabulary(
    docs: Sequence[Sequence[str]], min_df: int = 1
) -> Vocabulary:
    """Scan token sequences and freeze the vocabulary.

    Keeps exactly the terms appearing in at least ``min_df`` distinct
    documents. Term order is first appearance across the corpus scan, so
    the result is deterministic.

    Raises:
        DataError: when the corpus has no documents.
        ValueError: when min_df < 1.
    """
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    if len(docs) == 0:
        raise DataError("cannot build a vocabulary from an empty corpus")

    order: dict[str, int] = {}
    df: dict[str, int] = {}
    for tokens in docs:
        seen = set()
        for tok in tokens:
            if tok not in order:
                order[tok] = len(order)
            if tok not in seen:
                df[tok] = df.get(tok, 0) + 1
                seen.add(tok)

    terms = tuple(t for t in order if df[t] >= min_df)
    index = {t: i for i, t in enumerate(terms)}
    doc_freq = np.array([df[t] for t in terms], dtype=np.int64)
    return Vocabulary(terms=terms, index=index, doc_freq=doc_freq)


def build_count_matrix(
    vocab: Vocabulary, docs: Sequence[Sequence[str]]
) -> DocTermMatrix:
    """Vectorize a whole corpus against a frozen vocabulary.

    Each row holds the in-vocabulary token counts of one document, in
    increasing column order; out-of-vocabulary tokens are dropped.
    """
    index = vocab.index
    indptr = [0]
    indices: list[int] = []
    data: list[int] = []
    for tokens in docs:
        counts: dict[int, int] = {}
        for tok in tokens:
            col = index.get(tok)
            if col is not None:
                counts[col] = counts.get(col, 0) + 1
        cols = sorted(counts)
        indices.extend(cols)
        data.extend(counts[c] for c in cols)
        indptr.append(len(indices))
    return DocTermMatrix(
        vocab=vocab,
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        data=np.array(data, dtype=np.float64),
        weighting=COUNTS,
    )


def idf(n_docs: int, df: int) -> float:
    """Inverse document frequency, ln(n_docs / df).

    Requires 1 <= df <= n_docs; a term present in every document gets 0.
    """
    if n_docs < 1:
        raise ValueError(f"n_docs must be positive, got {n_docs}")
    if df < 1 or df > n_docs:
        raise ValueError(f"df must be in 1..{n_docs}, got {df}")
    return float(np.log(n_docs / df))


def tfidf_transform(m: DocTermMatrix) -> DocTermMatrix:
    """Reweight a counts matrix to TF-IDF.

    Each stored count becomes count * ln(n_docs / doc_freq[term]), using
    the document frequencies of the matrix's own fit corpus. Weights that
    become exactly zero (terms present in every document) are dropped, so
    the sparsity pattern can only shrink.
    """
    if m.weighting != COUNTS:
        raise ValueError(f"expected a counts matrix, got weighting={m.weighting!r}")
    idf_per_term = np.log(m.n_docs / m.vocab.doc_freq.astype(np.float64))
    new_data = m.data * idf_per_term[m.indices]
    keep = new_data != 0.0
    row_ids = np.repeat(np.arange(m.n_docs), np.diff(m.indptr))
    kept_per_row = np.bincount(row_ids[keep], minlength=m.n_docs)
    indptr = np.zeros(m.n_docs + 1, dtype=np.int64)
    np.cumsum(kept_per_row, out=indptr[1:])
    return DocTermMatrix(
        vocab=m.vocab,
        indptr=indptr,
        indices=m.indices[keep].copy(),
        data=new_data[keep],
        weighting=TFIDF,
    )

