"""Linear classifiers: multinomial logistic regression and one-vs-rest SVM.

Both models share the same parameter layout — a weight matrix with one row
per class and one column per vocabulary term, plus a per-class bias — and
differ only in how those parameters are fit and how raw margins are turned
into scores.

A fit that diverges (a step size that overflows the parameters) raises
:class:`TrainingError` from a finiteness check, not a numpy overflow
warning: the training loops run with overflow and invalid-value warnings
off, because the check right after reports the same fault.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import HyperparameterError, TrainingError
from ..lexicon import SentimentLabel
from .base import Classifier, TrainingSet

logger = logging.getLogger(__name__)

MAXENT = "maxent"
SVM = "svm"


@dataclass(frozen=True)
class LinearModel(Classifier):
    """A trained linear classifier.

    ``kind`` is either ``"maxent"`` (scores are softmax probabilities) or
    ``"svm"`` (scores are raw margins).  ``weights`` has shape
    ``(n_classes, n_terms)`` and ``bias`` has shape ``(n_classes,)``.
    """

    kind: str
    classes: tuple[SentimentLabel, ...]
    terms: tuple[str, ...]
    weights: np.ndarray
    bias: np.ndarray
    hyper: dict = field(default_factory=dict)
    loss_trace: tuple[float, ...] | None = None

    def _scores(self, x: np.ndarray) -> np.ndarray:
        """Margins ``x @ W.T + b`` per row; softmax probabilities for maxent."""
        margins = x @ self.weights.T + self.bias
        if self.kind != MAXENT:
            return margins
        expd = np.exp(margins - margins.max(axis=1, keepdims=True))
        return expd / expd.sum(axis=1, keepdims=True)


def _one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((y.shape[0], n_classes), dtype=np.float64)
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def maxent_loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    x_dense: np.ndarray,
    y: np.ndarray,
    lam: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Regularised cross-entropy loss and its exact gradient.

    Loss is the mean negative log-probability of the gold class plus an L2
    penalty ``lam/2 * ||W||^2`` on the weights (bias excluded).  Exposed at
    module level so the gradient can be checked against finite differences.
    """
    n_docs = x_dense.shape[0]
    n_classes = weights.shape[0]
    margins = x_dense @ weights.T + bias
    shifted = margins - margins.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    loss = -float(log_probs[np.arange(n_docs), y].mean())
    loss += 0.5 * lam * float((weights * weights).sum())

    probs = np.exp(log_probs)
    delta = probs - _one_hot(y, n_classes)
    grad_w = delta.T @ x_dense / n_docs + lam * weights
    grad_b = delta.mean(axis=0)
    return loss, grad_w, grad_b


def train_maxent(
    training: TrainingSet,
    *,
    eta: float = 0.1,
    lam: float = 1e-3,
    epochs: int = 500,
    seed: int = 0,
) -> LinearModel:
    """Fit multinomial logistic regression by full-batch gradient descent.

    Weights start at zero, so the fit is deterministic; ``seed`` is accepted
    for interface symmetry with the stochastic trainers but has no effect.
    The returned model's ``loss_trace`` holds the objective before training
    and after every epoch (``epochs + 1`` values) and is non-increasing for
    a reasonable step size.
    """
    del seed
    if eta <= 0:
        raise HyperparameterError(f"eta must be positive, got {eta}")
    if lam < 0:
        raise HyperparameterError(f"lam must be non-negative, got {lam}")
    if epochs < 0:
        raise HyperparameterError(f"epochs must be non-negative, got {epochs}")

    x_dense = training.matrix.toarray()
    y = training.y()
    n_classes = len(training.classes)
    n_terms = training.matrix.n_terms

    weights = np.zeros((n_classes, n_terms), dtype=np.float64)
    bias = np.zeros(n_classes, dtype=np.float64)

    loss, grad_w, grad_b = maxent_loss_and_grad(weights, bias, x_dense, y, lam)
    trace = [loss]
    for epoch in range(epochs):
        # A diverging fit overflows to inf and then NaN; the finite-loss
        # check reports it, so numpy need not warn on the way.
        with np.errstate(over="ignore", invalid="ignore"):
            weights = weights - eta * grad_w
            bias = bias - eta * grad_b
            loss, grad_w, grad_b = maxent_loss_and_grad(
                weights, bias, x_dense, y, lam
            )
        if not np.isfinite(loss):
            raise TrainingError(
                f"logistic regression diverged at epoch {epoch + 1} "
                f"(loss is not finite); lower eta={eta} or lam={lam}"
            )
        trace.append(loss)

    return LinearModel(
        kind=MAXENT,
        classes=training.classes,
        terms=training.matrix.vocab.terms,
        weights=weights,
        bias=bias,
        hyper={"eta": eta, "lam": lam, "epochs": epochs},
        loss_trace=tuple(trace),
    )


def train_linear_svm(
    training: TrainingSet,
    *,
    lam: float = 0.1,
    epochs: int = 50,
    seed: int = 0,
) -> LinearModel:
    """Fit a one-vs-rest linear SVM with the Pegasos subgradient method.

    Each class gets a binary hinge-loss problem (that class vs. the rest),
    and all problems share one pass schedule: a single RNG shuffles the
    document order each epoch, the global step count ``t`` drives the step
    size ``1/(lam*t)``, and the weight matrix is scaled by ``1 - 1/t``
    before each update.  The scaling is tracked as a scalar factor so each
    step touches only the active classes and the document's nonzero columns.

    Pegasos is sequential, so each step is kept small: one numpy product
    for the margins, ``accum[:, cols] @ wts``, and one vector update per
    active class.  The scalar work (margins from the product, the hinge
    test, the step size and the bias) is done on Python floats, which are
    the same IEEE doubles numpy would use, so the fit is bit-identical to
    the array-per-step form kept as the reference in the tests.  A ``lam``
    so small that the steps overflow leaves non-finite weights, which raise
    :class:`TrainingError` after the last step.
    """
    if lam <= 0:
        raise HyperparameterError(f"lam must be positive, got {lam}")
    if epochs < 1:
        raise HyperparameterError(f"epochs must be at least 1, got {epochs}")
    if seed < 0:
        raise HyperparameterError(f"seed must be non-negative, got {seed}")
    if len(training.classes) < 2:
        raise TrainingError(
            "SVM training needs at least two classes, got "
            f"{[str(c) for c in training.classes]}"
        )

    matrix = training.matrix
    n_docs = matrix.n_docs
    n_classes = len(training.classes)

    # Per document: its nonzero (columns, weights), or None when it has no
    # terms, and signs[c] = +1.0 when it belongs to class c, else -1.0.
    indptr = matrix.indptr.tolist()
    docs = []
    for i, label in enumerate(training.y().tolist()):
        start, stop = indptr[i], indptr[i + 1]
        terms = (
            (matrix.indices[start:stop], matrix.data[start:stop])
            if stop > start
            else None
        )
        signs = [-1.0] * n_classes
        signs[label] = 1.0
        docs.append((terms, signs))

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    # W is represented as scale * accum to keep the per-step shrink O(1).
    scale = 1.0
    accum = np.zeros((n_classes, matrix.n_terms), dtype=np.float64)
    rows = list(accum)  # views: rows[c][cols] += ... updates accum in place
    bias = [0.0] * n_classes

    t = 0
    # A diverging fit overflows to inf and then NaN; the check after the
    # loop reports it, so numpy need not warn on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            for i in rng.permutation(n_docs).tolist():
                t += 1
                eta = 1.0 / (lam * t)
                terms, signs = docs[i]
                if terms is None:
                    margins = bias
                else:
                    cols, wts = terms
                    products = (accum[:, cols] @ wts).tolist()
                    margins = [scale * p + b for p, b in zip(products, bias)]
                active = [c for c in range(n_classes) if signs[c] * margins[c] < 1.0]

                # At t == 1 the shrink factor 1 - 1/t is 0, which would wipe
                # W, but W is still zero then.
                if t > 1:
                    scale *= 1.0 - 1.0 / t

                for c in active:
                    step = eta * signs[c]
                    if terms is not None:
                        rows[c][cols] += (step / scale) * wts
                    bias[c] += step
        weights = scale * accum

    if not (np.isfinite(weights).all() and all(map(math.isfinite, bias))):
        raise TrainingError(
            f"linear SVM diverged (weights are not finite); raise lam={lam}"
        )
    return LinearModel(
        kind=SVM,
        classes=training.classes,
        terms=matrix.vocab.terms,
        weights=weights,
        bias=np.array(bias),
        hyper={"lam": lam, "epochs": epochs, "seed": seed},
        loss_trace=None,
    )
