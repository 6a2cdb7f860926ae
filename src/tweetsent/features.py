"""Vocabulary construction and sparse document-term matrices.

The vocabulary is frozen on the training corpus (first-appearance term
order, optional min_df pruning) and documents are vectorized against it;
unseen terms are dropped. Matrices carry either raw counts or TF-IDF
weights, where TF is the in-document count and IDF is ln(n_docs / df)
with no smoothing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .exceptions import DataError

__all__ = [
    "COUNTS",
    "TFIDF",
    "SparseVector",
    "Vocabulary",
    "DocTermMatrix",
    "build_vocabulary",
    "vectorize_counts",
    "build_count_matrix",
    "idf",
    "tfidf_transform",
    "dump_matrix_csv",
]

COUNTS = "counts"
TFIDF = "tfidf"


@dataclass(frozen=True)
class SparseVector:
    """One document as (column, weight) pairs with strictly increasing columns."""

    cols: np.ndarray  # int64
    weights: np.ndarray  # float64

    @property
    def nnz(self) -> int:
        return len(self.cols)


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

    def row(self, i: int) -> SparseVector:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return SparseVector(cols=self.indices[lo:hi], weights=self.data[lo:hi])

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


def vectorize_counts(vocab: Vocabulary, tokens: Sequence[str]) -> SparseVector:
    """Count in-vocabulary tokens; out-of-vocabulary tokens are dropped."""
    counts: dict[int, int] = {}
    for tok in tokens:
        col = vocab.index.get(tok)
        if col is not None:
            counts[col] = counts.get(col, 0) + 1
    cols = np.array(sorted(counts), dtype=np.int64)
    weights = np.array([counts[c] for c in cols], dtype=np.float64)
    return SparseVector(cols=cols, weights=weights)


def build_count_matrix(
    vocab: Vocabulary, docs: Sequence[Sequence[str]]
) -> DocTermMatrix:
    """Vectorize a whole corpus against a frozen vocabulary."""
    indptr = np.zeros(len(docs) + 1, dtype=np.int64)
    all_cols: list[np.ndarray] = []
    all_weights: list[np.ndarray] = []
    for i, tokens in enumerate(docs):
        vec = vectorize_counts(vocab, tokens)
        all_cols.append(vec.cols)
        all_weights.append(vec.weights)
        indptr[i + 1] = indptr[i] + vec.nnz
    indices = (
        np.concatenate(all_cols) if all_cols else np.empty(0, dtype=np.int64)
    )
    data = (
        np.concatenate(all_weights) if all_weights else np.empty(0, dtype=np.float64)
    )
    return DocTermMatrix(
        vocab=vocab,
        indptr=indptr,
        indices=indices.astype(np.int64),
        data=data.astype(np.float64),
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
    if m.nnz == 0:
        return DocTermMatrix(
            vocab=m.vocab, indptr=m.indptr.copy(), indices=m.indices.copy(),
            data=m.data.copy(), weighting=TFIDF,
        )
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


def dump_matrix_csv(
    m: DocTermMatrix, doc_ids: Sequence[str], path: str | Path
) -> None:
    """Write a matrix as doc_id,term,weight rows for inspection.

    Debug aid, not a performance path.
    """
    if len(doc_ids) != m.n_docs:
        raise ValueError(
            f"{len(doc_ids)} doc ids for a {m.n_docs}-row matrix"
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doc_id", "term", "weight"])
        for i, doc_id in enumerate(doc_ids):
            vec = m.row(i)
            for col, weight in zip(vec.cols, vec.weights):
                writer.writerow([doc_id, m.vocab.terms[col], repr(float(weight))])
