"""
Bag-of-words features: counts and TF-IDF
========================================

Models consume documents as sparse term vectors.  This script builds the
vocabulary and document-term matrix for a tiny corpus by hand, shows the
compressed-sparse-row layout, and demonstrates how TF-IDF down-weights
ubiquitous words.
"""

import numpy as np

from tweetsent.features import (
    build_count_matrix,
    build_vocabulary,
    idf,
    tfidf_transform,
)

# ---------------------------------------------------------------------------
# 1. A corpus is just token lists. "burger" appears everywhere, "stale"
#    only once — TF-IDF should treat them very differently.
docs = [
    ["burger", "tasty", "tasty", "fries"],
    ["burger", "fries", "cold"],
    ["burger", "stale", "bun"],
    ["burger", "tasty", "love"],
]

# ---------------------------------------------------------------------------
# 2. The vocabulary is a tuple of terms; it fixes the column order
#    (first-appearance order).  min_df drops terms found in fewer
#    documents.
terms = build_vocabulary(docs)
print("terms:", terms)
print("terms with min_df=2:", build_vocabulary(docs, min_df=2))
print()

# ---------------------------------------------------------------------------
# 3. The count matrix is CSR: row pointers, column indices, and values.
#    Nothing is stored for absent terms.
counts = build_count_matrix(terms, docs)
print(f"count matrix: {counts.n_docs} docs x {counts.n_terms} terms, "
      f"{counts.nnz} stored entries")
print("dense view:\n", counts.toarray())
row0 = counts.row(0)
print("row 0, a one-row matrix: indices =", row0.indices, " data =", row0.data)
print()

# ---------------------------------------------------------------------------
# 4. idf(n_docs, df) = ln(n_docs / df): strictly decreasing in df and zero
#    for a term in every document.  A term's df is the number of rows of
#    the counts matrix that hold it.
print("doc frequencies:", dict(zip(terms, np.bincount(counts.indices).tolist())))
print("idf in a 4-document corpus:")
for df in range(1, 5):
    print(f"  df={df}: idf={idf(4, df):.4f}")
print()

# ---------------------------------------------------------------------------
# 5. tfidf_transform multiplies each stored count by its term's idf.
#    "burger" (df=4) gets weight 0 and is dropped from the matrix entirely,
#    shrinking the sparsity pattern; "stale" (df=1) keeps the largest weight.
tfidf = tfidf_transform(counts)
print(f"tf-idf matrix keeps {tfidf.nnz} of {counts.nnz} entries")
with np.printoptions(precision=3, suppress=True):
    print("dense view:\n", tfidf.toarray())
print()

# ---------------------------------------------------------------------------
# 6. New documents are vectorized against the fitted vocabulary, as a
#    one-row matrix; unseen words ("pizza") simply vanish rather than
#    crashing the model.
new_doc = ["tasty", "pizza", "tasty"]
new_row = build_count_matrix(terms, [new_doc])
print("new doc", new_doc, "-> indices =", new_row.indices, " data =", new_row.data)
