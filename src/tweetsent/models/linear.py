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
    weighting: str
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


def _targets(y: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels ``y`` as one-hot rows, and the flat position in an
    ``(n_docs, n_classes)`` array of every row's gold entry."""
    gold = np.arange(y.shape[0]) * n_classes + y
    one_hot = np.zeros((y.shape[0], n_classes), dtype=np.float64)
    one_hot.reshape(-1)[gold] = 1.0
    return one_hot, gold


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
    return _maxent_step(weights, bias, x_dense, *_targets(y, weights.shape[0]), lam)


def _maxent_step(
    weights: np.ndarray,
    bias: np.ndarray,
    x_dense: np.ndarray,
    one_hot: np.ndarray,
    gold: np.ndarray,
    lam: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """:func:`maxent_loss_and_grad` with the labels as :func:`_targets`
    gives them, which a fit builds once, not once per epoch.

    Each array made here is fresh, so the updates are applied in place.
    ``x.sum() / n`` stands for ``x.mean()``: numpy's mean is that same sum
    followed by that same divide, so every value is bit-identical.
    """
    n_docs = x_dense.shape[0]
    margins = x_dense @ weights.T
    margins += bias
    margins -= margins.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(margins).sum(axis=1))
    log_probs = margins
    log_probs -= log_z[:, None]
    loss = -float(log_probs.take(gold).sum() / n_docs)
    loss += 0.5 * lam * float((weights * weights).sum())

    delta = np.exp(log_probs)
    delta -= one_hot
    grad_w = delta.T @ x_dense
    grad_w /= n_docs
    grad_w += lam * weights
    grad_b = delta.sum(axis=0)
    grad_b /= n_docs
    return loss, grad_w, grad_b


def train_maxent(
    training: TrainingSet,
    *,
    eta: float = 0.1,
    lam: float = 1e-3,
    epochs: int = 300,
) -> LinearModel:
    """Fit multinomial logistic regression by full-batch gradient descent.

    Weights start at zero, so the fit is deterministic and takes no seed.
    The returned model's ``loss_trace`` holds the objective before training
    and after every epoch (``epochs + 1`` values) and is non-increasing for
    a reasonable step size.
    """
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

    one_hot, gold = _targets(y, n_classes)
    # A diverging fit overflows to inf and then NaN; the finite-loss check
    # reports it, so numpy need not warn on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grad_w, grad_b = _maxent_step(weights, bias, x_dense, one_hot, gold, lam)
        trace = [loss]
        for epoch in range(epochs):
            grad_w *= eta
            weights -= grad_w
            grad_b *= eta
            bias -= grad_b
            loss, grad_w, grad_b = _maxent_step(
                weights, bias, x_dense, one_hot, gold, lam
            )
            if not math.isfinite(loss):
                raise TrainingError(
                    f"logistic regression diverged at epoch {epoch + 1} "
                    f"(loss is not finite); lower eta={eta} or lam={lam}"
                )
            trace.append(loss)

    return LinearModel(
        kind=MAXENT,
        classes=training.classes,
        terms=training.matrix.vocab.terms,
        weighting=training.matrix.weighting,
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

    Pegasos is sequential, so each step is kept to few numpy calls.  W is
    one flat vector ``accum`` of ``n_classes * n_terms`` values, and each
    document brings, built once per fit, the flat position of each of its
    terms in each class's row.  A step takes those entries with one
    ``take`` and multiplies them by the document's weights with one
    ``dot``, then adds one vector to each active class's entries.  The
    scalar work (margins from the product, the hinge test, the step size
    and the bias) is done on Python floats, which are the same IEEE doubles
    numpy would use, in the same order, so the fit is bit-identical to the
    array-per-step form kept as the reference in the tests.

    The product must stay one BLAS ``dot`` on the ``(n_classes, k)`` block,
    the same matrix-vector call as ``accum[:, cols] @ wts``.  OpenBLAS sums
    with fused multiply-adds, so a sum of products over Python floats
    rounds differently: 214 of 900 random two-term products (numpy 2.4,
    OpenBLAS, x86-64) differed in the last bit.  A product only enters the
    hinge test, so such a difference changes a model only when a margin
    falls within a rounding of 1; no fit in the tests or on the benchmark
    inputs hit one, but nothing rules it out.  A ``lam`` so small that the
    steps overflow leaves non-finite weights, which raise
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
    n_terms = matrix.n_terms

    # Per document: flat, its (n_classes, k) positions in accum, and
    # flat_rows, that array's rows (row c holds class c's positions for its
    # k terms); wts, its k term weights; all three None when it has no
    # terms; and its (class, sign) pairs, where the sign is +1.0 for its own
    # class and -1.0 for every other.
    offsets = np.arange(n_classes)[:, None] * n_terms
    indptr = matrix.indptr.tolist()
    docs = []
    for i, label in enumerate(training.y().tolist()):
        start, stop = indptr[i], indptr[i + 1]
        if stop > start:
            flat = offsets + matrix.indices[start:stop]
            flat_rows = list(flat)
            wts = matrix.data[start:stop]
        else:
            flat = flat_rows = wts = None
        pairs = [(c, 1.0 if c == label else -1.0) for c in range(n_classes)]
        docs.append((flat, flat_rows, wts, pairs))

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    # W is represented as scale * accum to keep the per-step shrink O(1).
    scale = 1.0
    accum = np.zeros(n_classes * n_terms, dtype=np.float64)
    take = accum.take
    bias = [0.0] * n_classes

    t = 0
    # A diverging fit overflows to inf and then NaN; the check after the
    # loop reports it, so numpy need not warn on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            for i in rng.permutation(n_docs).tolist():
                t += 1
                flat, flat_rows, wts, pairs = docs[i]
                if wts is None:
                    active = [(c, s) for (c, s), b in zip(pairs, bias) if s * b < 1.0]
                else:
                    products = take(flat).dot(wts).tolist()
                    active = [
                        (c, s)
                        for (c, s), p, b in zip(pairs, products, bias)
                        if s * (scale * p + b) < 1.0
                    ]

                # At t == 1 the shrink factor 1 - 1/t is 0, which would wipe
                # W, but W is still zero then.
                if t > 1:
                    scale *= 1.0 - 1.0 / t

                # About half the steps of a fit leave every class inactive.
                if active:
                    eta = 1.0 / (lam * t)
                    for c, s in active:
                        step = eta * s
                        if wts is not None:
                            accum[flat_rows[c]] += (step / scale) * wts
                        bias[c] += step
        weights = scale * accum.reshape(n_classes, n_terms)

    if not (np.isfinite(weights).all() and all(map(math.isfinite, bias))):
        raise TrainingError(
            f"linear SVM diverged (weights are not finite); raise lam={lam}"
        )
    return LinearModel(
        kind=SVM,
        classes=training.classes,
        terms=matrix.vocab.terms,
        weighting=matrix.weighting,
        weights=weights,
        bias=np.array(bias),
        hyper={"lam": lam, "epochs": epochs, "seed": seed},
        loss_trace=None,
    )
