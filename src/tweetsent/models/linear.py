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

import math
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from ..exceptions import TrainingError
from .base import (
    NON_NEGATIVE, POSITIVE, Model, Seed, TrainingSet, at_least, at_most, check_hyperparameters,
)

MAXENT = "maxent"
SVM = "svm"


@dataclass(frozen=True)
class LinearModel(Model):
    """A trained linear classifier.

    ``kind`` is either ``"maxent"`` (scores are softmax probabilities) or
    ``"svm"`` (scores are raw margins).  ``weights`` has shape
    ``(n_classes, n_terms)`` and ``bias`` has shape ``(n_classes,)``.
    """

    kind: str
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

    Each array returned is fresh, so a fit applies the updates in place.
    ``x.sum() / n`` stands for ``x.mean()``: numpy's mean is that same sum
    followed by that same divide, so every value is bit-identical.  The
    row reductions over the few class columns are one ``np.maximum`` or
    one add per column, which is cheaper than an ``axis=1`` reduction: a
    maximum is exact, and numpy sums a row of fewer than 8 values left to
    right, as the column adds do, so both are bit-identical too.
    """
    n_docs = x_dense.shape[0]
    # The flat position of each row's gold entry in the (n_docs, n_classes)
    # margins.
    gold = np.arange(n_docs) * weights.shape[0] + y
    margins = x_dense @ weights.T
    margins += bias
    columns = margins.T
    row_max = columns[0].copy()
    for column in columns[1:]:
        np.maximum(row_max, column, out=row_max)
    margins -= row_max[:, None]
    expd = np.exp(columns)
    z = expd[0].copy()
    for column in expd[1:]:
        z += column
    log_z = np.log(z)
    log_probs = margins
    log_probs -= log_z[:, None]
    loss = -float(log_probs.take(gold).sum() / n_docs)
    loss += 0.5 * lam * float((weights * weights).sum())

    # The probabilities minus the one-hot labels, whose zeros would leave
    # every other entry, an exp() >= +0.0, as it is.  put() indexes in C
    # order whatever the layout, as take() does.
    delta = np.exp(log_probs)
    np.put(delta, gold, delta.take(gold) - 1.0)
    grad_w = delta.T @ x_dense
    grad_w /= n_docs
    grad_w += lam * weights
    grad_b = delta.sum(axis=0)
    grad_b /= n_docs
    return loss, grad_w, grad_b


def train_maxent(
    training: TrainingSet,
    *,
    eta: Annotated[float, POSITIVE] = 0.1,
    lam: Annotated[float, NON_NEGATIVE] = 1e-3,
    epochs: Annotated[int, NON_NEGATIVE, at_most(10_000)] = 300,
) -> LinearModel:
    """Fit multinomial logistic regression by full-batch gradient descent.

    Weights start at zero, so the fit is deterministic and takes no seed.
    The returned model's ``loss_trace`` holds the objective before training
    and after every epoch (``epochs + 1`` values) and is non-increasing for
    a reasonable step size.
    """
    hyper = check_hyperparameters(train_maxent, locals())
    x_dense = training.matrix.toarray()
    y = training.y()
    n_classes = len(training.classes)
    n_terms = training.matrix.n_terms

    weights = np.zeros((n_classes, n_terms), dtype=np.float64)
    bias = np.zeros(n_classes, dtype=np.float64)

    # A diverging fit overflows to inf and then NaN; the finite-loss check
    # reports it, so numpy need not warn on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grad_w, grad_b = maxent_loss_and_grad(weights, bias, x_dense, y, lam)
        trace = [loss]
        for epoch in range(epochs):
            grad_w *= eta
            weights -= grad_w
            grad_b *= eta
            bias -= grad_b
            loss, grad_w, grad_b = maxent_loss_and_grad(weights, bias, x_dense, y, lam)
            if not math.isfinite(loss):
                raise TrainingError(
                    f"logistic regression diverged at epoch {epoch + 1} "
                    f"(loss is not finite); lower eta={eta} or lam={lam}"
                )
            trace.append(loss)

    return LinearModel(
        kind=MAXENT,
        **training.header(),
        weights=weights,
        bias=bias,
        hyper=hyper,
        loss_trace=tuple(trace),
    )


def train_linear_svm(
    training: TrainingSet,
    *,
    lam: Annotated[float, POSITIVE] = 0.1,
    epochs: Annotated[int, at_least(1), at_most(10_000)] = 50,
    seed: Seed = 0,
) -> LinearModel:
    """Fit a one-vs-rest linear SVM with the Pegasos subgradient method.

    Each class gets a binary hinge-loss problem (that class vs. the rest),
    and all problems share one pass schedule: a single RNG shuffles the
    document order each epoch, the global step count ``t`` drives the step
    size ``1/(lam*t)``, and the weight matrix is scaled by ``1 - 1/t``
    before each update.  The scaling is tracked as a scalar factor so each
    step touches only the active classes and the document's nonzero columns.

    Pegasos is sequential and a tweet has few terms, so the steps run on
    Python floats with no numpy call: W is one list of floats per class,
    and each document brings, built once per fit, its (column, weight)
    pairs and its (class, sign) pairs.  A class's margin product is the sum
    of ``row[j] * w`` over the document's terms, added left to right from
    0.0 in one explicit loop: the IEEE sum of the rounded products, the
    same on every machine and every Python (built-in ``sum`` is compensated
    from Python 3.12, and a BLAS dot may fuse the multiply-adds).  Only the
    hinge test reads the product.  The updates are the array-per-step
    form's arithmetic, value by value, so the fit is bit-identical to the
    reference kept in the tests whenever its BLAS product makes the same
    hinge decisions.  A ``lam`` so small that the steps overflow leaves
    non-finite weights, which raise :class:`TrainingError` after the last
    step.
    """
    hyper = check_hyperparameters(train_linear_svm, locals())
    if len(training.classes) < 2:
        raise TrainingError(
            "SVM training needs at least two classes, got "
            f"{[str(c) for c in training.classes]}"
        )

    matrix = training.matrix
    n_docs = matrix.n_docs
    n_classes = len(training.classes)

    # Per document: its terms as (column, weight) pairs, and its (class,
    # sign) pairs, where the sign is +1.0 for its own class and -1.0 for
    # every other.
    indptr = matrix.indptr.tolist()
    columns = matrix.indices.tolist()
    values = matrix.data.tolist()
    docs = []
    for i, label in enumerate(training.y().tolist()):
        start, stop = indptr[i], indptr[i + 1]
        terms = tuple(zip(columns[start:stop], values[start:stop]))
        pairs = tuple((c, 1.0 if c == label else -1.0) for c in range(n_classes))
        docs.append((terms, pairs))

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    # W is represented as scale * rows to keep the per-step shrink O(1).
    scale = 1.0
    rows = [[0.0] * matrix.n_terms for _ in range(n_classes)]
    bias = [0.0] * n_classes

    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n_docs).tolist():
            t += 1
            terms, pairs = docs[i]
            # The hinge tests read W at the old scale and the updates write
            # it at the shrunk one.  Each class's test reads only its own
            # row and bias, so it may follow the updates of the classes
            # before it.  At t == 1 the shrink factor 1 - 1/t is 0, which
            # would wipe W, but W is still zero then.
            shrunk = scale * (1.0 - 1.0 / t) if t > 1 else scale
            eta = 1.0 / (lam * t)
            for (c, s), row in zip(pairs, rows):
                p = 0.0
                for j, w in terms:
                    p += row[j] * w
                if s * (scale * p + bias[c]) < 1.0:
                    step = eta * s
                    g = step / shrunk
                    for j, w in terms:
                        row[j] += g * w
                    bias[c] += step
            scale = shrunk

    # A diverging fit overflows to inf and then NaN; the check below
    # reports it, so numpy need not warn on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        weights = scale * np.array(rows)

    if not (np.isfinite(weights).all() and all(map(math.isfinite, bias))):
        raise TrainingError(
            f"linear SVM diverged (weights are not finite); raise lam={lam}"
        )
    return LinearModel(
        kind=SVM,
        **training.header(),
        weights=weights,
        bias=np.array(bias),
        hyper=hyper,
        loss_trace=None,
    )
