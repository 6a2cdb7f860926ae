"""Vocabulary construction and sparse document-term matrices.

A vocabulary is a tuple of terms, frozen on the training corpus
(first-appearance term order, optional min_df pruning), and documents are
vectorized against it; unseen terms are dropped. Matrices carry either raw
counts or TF-IDF weights, where TF is the in-document count and IDF is
ln(n_docs / df) with no smoothing, df being the number of the matrix's own
rows that hold the term. A single document is a one-row matrix: vectorize
it with ``build_count_matrix(terms, [tokens])``, for instance with a
loaded model's ``terms``, or take ``matrix.row(i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import DataError

__all__ = [
    "COUNTS",
    "TFIDF",
    "DocTermMatrix",
    "build_vocabulary",
    "build_count_matrix",
    "idf",
    "index_ranges",
    "tfidf_transform",
]

COUNTS = "counts"
TFIDF = "tfidf"


def index_ranges(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions ``starts[i] + j`` for ``j < lengths[i]``, range after
    range (none for no ranges), and where each range begins among them:
    the entries of some CSR rows, and the ``indptr`` of those rows alone."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    shifted = np.repeat(starts - indptr[:-1], lengths)
    return shifted + np.arange(shifted.shape[0]), indptr


@dataclass(frozen=True)
class DocTermMatrix:
    """Sparse document-by-term matrix in CSR layout.

    ``indptr`` has length n_docs + 1; row i occupies the half-open slice
    [indptr[i], indptr[i+1]) of ``indices``/``data``. Column indices are
    strictly increasing within each row, and column j is ``terms[j]``.
    """

    terms: tuple[str, ...]
    indptr: np.ndarray  # int64, len n_docs + 1
    indices: np.ndarray  # int64
    data: np.ndarray  # float64
    weighting: str  # COUNTS or TFIDF

    @property
    def n_docs(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def row(self, i: int) -> "DocTermMatrix":
        """Row ``i`` as a one-row matrix (same vocabulary and weighting)."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return DocTermMatrix(
            terms=self.terms, indptr=self.indptr[i:i + 2] - lo,
            indices=self.indices[lo:hi], data=self.data[lo:hi], weighting=self.weighting,
        )

    def entry_rows(self) -> np.ndarray:
        """The row of each stored entry, aligned with ``indices`` and ``data``."""
        return np.repeat(np.arange(self.n_docs), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        """Densify to an (n_docs, n_terms) float64 array."""
        dense = np.zeros((self.n_docs, self.n_terms), dtype=np.float64)
        dense[self.entry_rows(), self.indices] = self.data
        return dense

    def dot(self, weights: np.ndarray) -> np.ndarray:
        """The ``(n_docs, k)`` products of the rows with the ``k`` rows of
        ``weights``: one ``bincount`` adds each row's ``data * weights[c,
        indices]`` left to right from 0.0, so, unlike a BLAS product, a
        row's products are the same bytes in any batch."""
        k = weights.shape[0]
        codes = np.add.outer(self.entry_rows() * k, np.arange(k)).ravel()
        products = (self.data[:, None] * weights[:, self.indices].T).ravel()
        sums = np.bincount(codes, weights=products, minlength=self.n_docs * k)
        return sums.reshape(self.n_docs, k)

    def take(self, rows: Sequence[int] | np.ndarray) -> "DocTermMatrix":
        """Row subset (same vocabulary and weighting)."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        source, indptr = index_ranges(starts, lengths)
        return DocTermMatrix(
            terms=self.terms, indptr=indptr, indices=self.indices[source],
            data=self.data[source], weighting=self.weighting,
        )


def build_vocabulary(
    docs: Sequence[Sequence[str]], min_df: int = 1
) -> tuple[str, ...]:
    """Scan token sequences and freeze the vocabulary, a tuple of terms.

    Keeps exactly the terms appearing in at least ``min_df`` distinct
    documents (a term repeated within one document counts once). Term
    order is first appearance across the corpus scan, so the result is
    deterministic.

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

    return tuple(t for t in order if df[t] >= min_df)


def build_count_matrix(
    terms: Sequence[str], docs: Sequence[Sequence[str]]
) -> DocTermMatrix:
    """Vectorize a whole corpus against a frozen vocabulary, column j
    counting ``terms[j]``.

    Each row holds the in-vocabulary token counts of one document, in
    increasing column order; out-of-vocabulary tokens are dropped.
    """
    terms = tuple(terms)
    index = {t: i for i, t in enumerate(terms)}
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
        terms=terms,
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        data=np.array(data, dtype=np.float64),
        weighting=COUNTS,
    )


def idf(n_docs: int, df: int | np.ndarray) -> float | np.ndarray:
    """Inverse document frequency, ln(n_docs / df), of one document
    frequency or, elementwise, of an array of them.

    Requires 1 <= df <= n_docs; a term present in every document gets 0.
    """
    df = np.asarray(df)
    if ((df < 1) | (df > n_docs)).any() or n_docs < 1:
        raise ValueError(f"df must be in 1..{n_docs}, got {df}")
    return np.log(n_docs / df.astype(np.float64))


def tfidf_transform(m: DocTermMatrix) -> DocTermMatrix:
    """Reweight a counts matrix to TF-IDF.

    Each stored count becomes count * idf(n_docs, df[term]), where df is
    the number of the matrix's rows that hold the term, so every term must
    occur in some row (``idf`` raises ``ValueError`` otherwise). Weights
    that become exactly zero (terms present in every row) are dropped, so
    the sparsity pattern can only shrink.
    """
    if m.weighting != COUNTS:
        raise ValueError(f"expected a counts matrix, got weighting={m.weighting!r}")
    idf_per_term = idf(m.n_docs, np.bincount(m.indices, minlength=m.n_terms))
    new_data = m.data * idf_per_term[m.indices]
    keep = new_data != 0.0
    kept_per_row = np.bincount(m.entry_rows()[keep], minlength=m.n_docs)
    indptr = np.zeros(m.n_docs + 1, dtype=np.int64)
    np.cumsum(kept_per_row, out=indptr[1:])
    return DocTermMatrix(
        terms=m.terms,
        indptr=indptr,
        indices=m.indices[keep].copy(),
        data=new_data[keep],
        weighting=TFIDF,
    )

