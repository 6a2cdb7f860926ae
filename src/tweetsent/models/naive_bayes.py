"""Multinomial naive Bayes over raw term counts, with Laplace smoothing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, ClassVar

import numpy as np

from .base import POSITIVE, Model, TrainingSet, check_hyperparameters

__all__ = ["NAIVE_BAYES", "NaiveBayesModel", "train_naive_bayes"]

NAIVE_BAYES = "naive_bayes"


@dataclass(frozen=True)
class NaiveBayesModel(Model):
    """Per-class log priors and Laplace-smoothed per-term log likelihoods.

    For every class the smoothed term likelihoods sum to one over the
    vocabulary by construction.
    """

    kind: ClassVar[str] = NAIVE_BAYES
    class_log_prior: np.ndarray  # (C,)
    term_log_likelihood: np.ndarray  # (C, V)
    alpha: float

    def _scores(self, x: np.ndarray) -> np.ndarray:
        """Posterior over classes for each count row (each row sums to 1)."""
        joint = self.class_log_prior + x @ self.term_log_likelihood.T
        top = joint.max(axis=1, keepdims=True)
        log_norm = top + np.log(np.exp(joint - top).sum(axis=1, keepdims=True))
        posterior = np.exp(joint - log_norm)
        return posterior / posterior.sum(axis=1, keepdims=True)


def train_naive_bayes(ts: TrainingSet, *, alpha: Annotated[float, POSITIVE] = 1.0) -> NaiveBayesModel:
    """Fit multinomial naive Bayes from a counts-weighted training set.

    prior(c) is the fraction of documents in class c; likelihood(t | c)
    is (count(t, c) + alpha) / (total_count(c) + alpha * V). Both are
    stored as logs.

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
    return NaiveBayesModel(
        **ts.header(),
        class_log_prior=log_prior,
        term_log_likelihood=log_likelihood,
        alpha=float(alpha),
    )
