"""Multinomial naive Bayes over raw term counts, with Laplace smoothing."""

from __future__ import annotations

from typing import Annotated

import numpy as np

from .base import POSITIVE, TrainingSet, check_hyperparameters
from .linear import NAIVE_BAYES, LinearModel


def train_naive_bayes(ts: TrainingSet, *, alpha: Annotated[float, POSITIVE] = 1.0) -> LinearModel:
    """Fit multinomial naive Bayes from a counts-weighted training set.

    prior(c) is the fraction of documents in class c; likelihood(t | c)
    is (count(t, c) + alpha) / (total_count(c) + alpha * V). Both are
    stored as logs, the likelihoods as a :class:`LinearModel`'s
    ``weights`` and the priors as its ``bias``; ``alpha`` is kept as a float.

    Raises:
        HyperparameterError: alpha <= 0.
    """
    check_hyperparameters(train_naive_bayes, locals())
    m = ts.matrix
    y = ts.y()
    n_classes = len(ts.classes)
    n_terms = m.n_terms

    doc_counts = np.bincount(y, minlength=n_classes)
    term_counts = np.zeros((n_classes, n_terms), dtype=np.float64)
    row_ids = np.repeat(np.arange(m.n_docs), np.diff(m.indptr))
    np.add.at(term_counts, (y[row_ids], m.indices), m.data)

    if n_terms:
        totals = term_counts.sum(axis=1, keepdims=True)
        log_likelihood = np.log(term_counts + alpha) - np.log(totals + alpha * n_terms)
    else:
        log_likelihood = np.zeros((n_classes, 0), dtype=np.float64)
    log_prior = np.log(doc_counts / m.n_docs)
    return LinearModel(
        kind=NAIVE_BAYES,
        **ts.header(),
        weights=log_likelihood,
        bias=log_prior,
        hyper={"alpha": float(alpha)},
    )
