"""Save and load trained models as a versioned JSON document.

Every file carries ``format_version``, ``model_kind``, the class list (as
lowercase tags in canonical order), the vocabulary, the ``weighting`` of
the features the model was trained on, and a ``params`` block laid out by
the model's family.  Floats are written with full ``repr`` precision, so a
load followed by a save reproduces the parameters bit for bit.  Loading
checks the recorded hyperparameters against the kind's trainer, as a
config's are checked.

* A linear model (naive Bayes, SVM, maxent) writes ``hyper``, ``weights``
  (one row per class), ``bias`` and ``loss_trace`` (null for naive Bayes
  and the SVM).
* A tree model (decision tree, random forest, bagging) writes ``hyper`` and
  ``trees``, one tree for a decision tree, each as the four flat lists of a
  :class:`~tweetsent.models.tree.Tree`.  A tree stores no left child: an
  internal node's left child is the next node in preorder.

Format 4 gave each family one layout and dropped the stored left child;
earlier formats (3, 2 without ``weighting``, and 1 with nested tree nodes)
are not read, so retrain to replace such files.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import numpy as np

from ..exceptions import ModelFormatError, errors_of, json_bytes, parse_json, read_input
from ..features import COUNTS, TFIDF
from ..lexicon import SentimentLabel
from .base import Model, validate_hyperparameters
from .linear import (
    MAXENT, NAIVE_BAYES, SVM, LinearModel, train_linear_svm, train_maxent, train_naive_bayes,
)
from .tree import (
    BAGGING, DECISION_TREE, LEAF, RANDOM_FOREST, Tree, TreeModel,
    train_bagging, train_decision_tree, train_random_forest,
)

FORMAT_VERSION = 4

# Each model kind's trainer, whose signature declares the hyperparameters
# a model of that kind records.
TRAINERS = {
    NAIVE_BAYES: train_naive_bayes, SVM: train_linear_svm, MAXENT: train_maxent,
    DECISION_TREE: train_decision_tree, RANDOM_FOREST: train_random_forest, BAGGING: train_bagging,
}
# The kinds a LinearModel holds; every other kind is a TreeModel.
LINEAR_KINDS = (NAIVE_BAYES, SVM, MAXENT)


def _encode_tree(tree: Tree) -> dict:
    return {f.name: getattr(tree, f.name).ravel().tolist() for f in fields(Tree)}


def _int_array(values, name: str) -> np.ndarray:
    array = np.asarray(values)
    if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
        raise ValueError(f"tree field {name!r} must be a list of integers")
    return array.astype(np.int64)


def _float_array(values, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A parameter array of exactly ``shape`` holding finite JSON numbers
    (no strings such as ``"NaN"``, which numpy would parse, no broadcasting)."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold numbers")
    array = array.astype(np.float64)
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} holds a NaN or infinite value")
    return array


def _decode_tree(data: dict, n_classes: int, n_terms: int) -> Tree:
    """Rebuild a tree, rejecting arrays that do not form one: an internal
    node's right child must come after its left child (the next node) and
    before the end, so :meth:`~.tree.Tree.walk` only moves forward and
    stops inside the tree; a column past the vocabulary would index outside
    the rows, and a node whose class counts are negative, sum to 0 (every
    node of a fitted tree holds a row) or overflow would give no class shares."""
    column, right = _int_array(data["column"], "column"), _int_array(data["right"], "right")
    n_nodes = column.size
    if n_nodes == 0 or right.shape != (n_nodes,):
        raise ValueError("tree arrays are empty or differ in length")
    threshold = _float_array(data["threshold"], "tree threshold", (n_nodes,))
    counts = _float_array(
        data["counts"], "tree counts", (n_nodes * n_classes,)
    ).reshape(n_nodes, n_classes)
    # Finite counts may still sum past the float range; the check reports it.
    with np.errstate(over="ignore"):
        totals = counts.sum(axis=1)
    if (counts < 0).any() or not ((totals > 0) & np.isfinite(totals)).all():
        raise ValueError("tree counts hold a negative value or a node summing to 0 or overflowing")
    if ((column < LEAF) | (column >= n_terms)).any():
        raise ValueError(f"tree column outside the {n_terms}-term vocabulary")
    leaf = column == LEAF
    if (right[leaf] != LEAF).any():
        raise ValueError("tree leaf has a right child")
    if ((right <= np.arange(n_nodes) + 1) | (right >= n_nodes))[~leaf].any():
        raise ValueError("tree right child is not a node after the left child")
    return Tree(column=column, threshold=threshold, right=right, counts=counts)


def _encode_params(model: Model) -> dict:
    if isinstance(model, LinearModel):
        return {
            "hyper": model.hyper,
            "weights": model.weights.tolist(),
            "bias": model.bias.tolist(),
            "loss_trace": list(model.loss_trace) if model.loss_trace is not None else None,
        }
    return {"hyper": model.hyper, "trees": [_encode_tree(tree) for tree in model.trees]}


def encode_model(model: Model) -> bytes:
    """The bytes of ``model``'s file: deterministic JSON."""
    if not isinstance(model, Model):
        raise TypeError(f"cannot serialise object of type {type(model).__name__}")
    return json_bytes({
        "format_version": FORMAT_VERSION,
        "model_kind": model.kind,
        "classes": [cls.tag for cls in model.classes],
        "vocabulary": list(model.terms),
        "weighting": model.weighting,
        "params": _encode_params(model),
    })


def save_model(model: Model, path: str | Path) -> None:
    """Write ``model`` to ``path`` as deterministic JSON."""
    Path(path).write_bytes(encode_model(model))


def load_model(path: str | Path) -> Model:
    """Read a model document written by :func:`save_model`."""
    text = read_input(path, ModelFormatError, "model file")
    with errors_of(path):
        document = parse_json(text, ModelFormatError)
        if not isinstance(document, dict):
            raise ModelFormatError("expected a JSON object at top level")
        try:
            return _decode_model(document)
        except KeyError as exc:
            raise ModelFormatError(f"model file is missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed model file: {exc}") from exc


def _decode_model(document: dict) -> Model:
    version = document["format_version"]
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r} "
            f"(this build reads version {FORMAT_VERSION}); retrain with 'tweetsent train'"
        )
    kind = document["model_kind"]
    tags = document["classes"]
    if not isinstance(tags, list) or not tags or not all(isinstance(t, str) for t in tags):
        raise ModelFormatError("'classes' must be a non-empty list of label tags")
    classes = tuple(SentimentLabel.from_tag(tag) for tag in tags)
    if classes != tuple(sorted(set(classes))):
        raise ModelFormatError(f"'classes' must be distinct labels in canonical order: {tags}")
    terms = document["vocabulary"]
    if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
        raise ModelFormatError("'vocabulary' must be a list of term strings")
    terms = tuple(terms)
    if len(set(terms)) != len(terms):
        raise ModelFormatError("'vocabulary' must list distinct terms")
    weighting = document["weighting"]
    if weighting not in (COUNTS, TFIDF):
        raise ModelFormatError(f"'weighting' must be '{COUNTS}' or '{TFIDF}', got {weighting!r}")
    params = document["params"]
    trainer = TRAINERS.get(kind) if isinstance(kind, str) else None
    if trainer is None:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    header = {"classes": classes, "terms": terms, "weighting": weighting}
    hyper = params["hyper"]
    if not isinstance(hyper, dict):
        raise ValueError(f"hyper must be an object, got {hyper!r}")
    hyper = validate_hyperparameters(trainer, hyper)
    if kind in LINEAR_KINDS:
        trace = params["loss_trace"]
        if trace is not None:
            trace = tuple(_float_array(trace, "loss_trace", (np.size(trace),)).tolist())
        return LinearModel(
            kind=kind,
            **header,
            weights=_float_array(params["weights"], "weights", (len(classes), len(terms))),
            bias=_float_array(params["bias"], "bias", (len(classes),)),
            hyper=hyper,
            loss_trace=trace,
        )
    trees = tuple(_decode_tree(t, len(classes), len(terms)) for t in params["trees"])
    # As many trees as the fit grows: n_members, or one for a decision tree.
    n_members = hyper.get("n_members", 1)
    if len(trees) != n_members:
        raise ValueError(f"{kind} holds {len(trees) or 'no'} trees, not n_members = {n_members}")
    return TreeModel(kind=kind, **header, trees=trees, hyper=hyper)
