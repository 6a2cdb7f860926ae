"""Save and load trained models as a versioned JSON document.

Every file carries ``format_version``, ``model_kind``, the class list (as
lowercase tags in canonical order), the vocabulary, the ``weighting`` of
the features the model was trained on, and a kind-specific ``params`` block.
Floats are written with full ``repr`` precision, so a load followed by a
save reproduces the parameters bit for bit.  Loading checks the recorded
hyperparameters against the kind's trainer, as a config's are checked.

Each tree is stored as the five flat lists of a
:class:`~tweetsent.models.tree.Tree`: a decision tree's one tree as
``params.tree``, an ensemble's members as the list ``params.trees``.
Format 3 added ``weighting``; earlier formats (2, without it, and 1, with
nested tree nodes) are not read, so retrain to replace such files.
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

FORMAT_VERSION = 3

# Each model kind's trainer, whose signature declares the hyperparameters
# a model of that kind records.
TRAINERS = {
    NAIVE_BAYES: train_naive_bayes, SVM: train_linear_svm, MAXENT: train_maxent,
    DECISION_TREE: train_decision_tree, RANDOM_FOREST: train_random_forest, BAGGING: train_bagging,
}


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
    """Rebuild a tree, rejecting arrays that do not form one: a cycle would
    never let :meth:`~.tree.Tree.walk` finish, a column past the vocabulary
    would index outside the rows, and a node whose class counts are
    negative or sum to 0 (every node of a fitted tree holds a row) would
    give no class shares."""
    column, left, right = (_int_array(data[name], name) for name in ("column", "left", "right"))
    n_nodes = column.size
    if n_nodes == 0 or any(a.shape != (n_nodes,) for a in (left, right)):
        raise ValueError("tree arrays are empty or differ in length")
    threshold = _float_array(data["threshold"], "tree threshold", (n_nodes,))
    counts = _float_array(
        data["counts"], "tree counts", (n_nodes * n_classes,)
    ).reshape(n_nodes, n_classes)
    if (counts < 0).any() or (counts.sum(axis=1) == 0).any():
        raise ValueError("tree counts hold a negative value or a node summing to 0")
    if ((column < LEAF) | (column >= n_terms)).any():
        raise ValueError(f"tree column outside the {n_terms}-term vocabulary")
    leaf = column == LEAF
    for name, child in (("left", left), ("right", right)):
        if (child[leaf] != LEAF).any():
            raise ValueError(f"tree leaf has a {name} child")
        if ((child <= np.arange(n_nodes)) | (child >= n_nodes))[~leaf].any():
            raise ValueError(f"tree {name} child is not a later node")
    return Tree(column=column, threshold=threshold, left=left, right=right, counts=counts)


def _encode_params(model: Model) -> dict:
    if model.kind == NAIVE_BAYES:
        return {
            "alpha": model.hyper["alpha"],
            "class_log_prior": model.bias.tolist(),
            "term_log_likelihood": model.weights.tolist(),
        }
    if isinstance(model, LinearModel):
        return {
            "weights": model.weights.tolist(),
            "bias": model.bias.tolist(),
            "hyper": model.hyper,
            "loss_trace": list(model.loss_trace) if model.loss_trace is not None else None,
        }
    trees = [_encode_tree(tree) for tree in model.trees]
    if model.kind == DECISION_TREE:
        return {"hyper": model.hyper, "tree": trees[0]}
    return {"hyper": model.hyper, "trees": trees}


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
            f"(this build reads version {FORMAT_VERSION})"
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
    if kind == NAIVE_BAYES:
        # Naive Bayes keeps its one hyperparameter among its parameters.
        hyper = {"alpha": float(_float_array(params["alpha"], "alpha", ()))}
    else:
        hyper = params["hyper"]
        if not isinstance(hyper, dict):
            raise ValueError(f"hyper must be an object, got {hyper!r}")
    hyper = validate_hyperparameters(trainer, hyper)
    if kind in (NAIVE_BAYES, MAXENT, SVM):
        weights, bias = (
            ("term_log_likelihood", "class_log_prior") if kind == NAIVE_BAYES else ("weights", "bias")
        )
        trace = None if kind == NAIVE_BAYES else params["loss_trace"]
        if trace is not None:
            trace = tuple(_float_array(trace, "loss_trace", (np.size(trace),)).tolist())
        return LinearModel(
            kind=kind,
            **header,
            weights=_float_array(params[weights], weights, (len(classes), len(terms))),
            bias=_float_array(params[bias], bias, (len(classes),)),
            hyper=hyper,
            loss_trace=trace,
        )
    listed = [params["tree"]] if kind == DECISION_TREE else params["trees"]
    trees = tuple(_decode_tree(t, len(classes), len(terms)) for t in listed)
    if not trees:
        raise ValueError("ensemble has no trees")
    return TreeModel(kind=kind, **header, trees=trees, hyper=hyper)


