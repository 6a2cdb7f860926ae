"""Save and load trained models as a versioned JSON document.

Every file carries ``format_version``, ``model_kind``, the class list (as
lowercase tags), the vocabulary, the ``weighting`` of the features the model
was trained on, and a kind-specific ``params`` block.
Floats are written with full ``repr`` precision, so a load followed by a
save reproduces the parameters bit for bit.

Each tree is stored as the five flat lists of a
:class:`~tweetsent.models.tree.Tree`.  Format 3 added ``weighting``; earlier
formats (2, without it, and 1, with nested tree nodes) are not read, so
retrain to replace such files.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from ..exceptions import ModelFormatError, read_input
from ..features import COUNTS, TFIDF
from ..lexicon import SentimentLabel
from .base import Model, check_hyperparameters
from .ensemble import BAGGING, RANDOM_FOREST, EnsembleModel
from .linear import MAXENT, SVM, LinearModel
from .naive_bayes import NAIVE_BAYES, NaiveBayesModel, train_naive_bayes
from .tree import DECISION_TREE, LEAF, DecisionTreeModel, Tree

FORMAT_VERSION = 3


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
    never let :meth:`Tree.apply` finish, a column past the vocabulary
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
    if isinstance(model, NaiveBayesModel):
        return {
            "alpha": model.alpha,
            "class_log_prior": model.class_log_prior.tolist(),
            "term_log_likelihood": model.term_log_likelihood.tolist(),
        }
    if isinstance(model, LinearModel):
        return {
            "weights": model.weights.tolist(),
            "bias": model.bias.tolist(),
            "hyper": model.hyper,
            "loss_trace": list(model.loss_trace) if model.loss_trace is not None else None,
        }
    if isinstance(model, DecisionTreeModel):
        return {"hyper": model.hyper, "tree": _encode_tree(model.tree)}
    return {
        "hyper": model.hyper,
        "trees": [_encode_tree(member) for member in model.members],
    }


def encode_model(model: Model) -> bytes:
    """The bytes of ``model``'s file: deterministic JSON."""
    if not isinstance(model, Model):
        raise TypeError(f"cannot serialise object of type {type(model).__name__}")
    document = {
        "format_version": FORMAT_VERSION,
        "model_kind": model.kind,
        "classes": [cls.tag for cls in model.classes],
        "vocabulary": list(model.terms),
        "weighting": model.weighting,
        "params": _encode_params(model),
    }
    text = json.dumps(document, ensure_ascii=False, sort_keys=True, indent=1)
    return (text + "\n").encode("utf-8")


def save_model(model: Model, path: str | Path) -> None:
    """Write ``model`` to ``path`` as deterministic JSON."""
    Path(path).write_bytes(encode_model(model))


def _decode_model(kind: str, classes, terms, weighting: str, params: dict) -> Model:
    header = {"classes": classes, "terms": terms, "weighting": weighting}
    if kind == NAIVE_BAYES:
        alpha = float(_float_array(params["alpha"], "alpha", ()))
        check_hyperparameters(train_naive_bayes, {"alpha": alpha})
        return NaiveBayesModel(
            **header,
            class_log_prior=_float_array(
                params["class_log_prior"], "class_log_prior", (len(classes),)
            ),
            term_log_likelihood=_float_array(
                params["term_log_likelihood"], "term_log_likelihood", (len(classes), len(terms))
            ),
            alpha=alpha,
        )
    if kind in (MAXENT, SVM):
        trace = params["loss_trace"]
        if trace is not None:
            trace = tuple(_float_array(trace, "loss_trace", (np.size(trace),)).tolist())
        return LinearModel(
            kind=kind,
            **header,
            weights=_float_array(params["weights"], "weights", (len(classes), len(terms))),
            bias=_float_array(params["bias"], "bias", (len(classes),)),
            hyper=dict(params["hyper"]),
            loss_trace=trace,
        )
    if kind == DECISION_TREE:
        return DecisionTreeModel(
            **header,
            tree=_decode_tree(params["tree"], len(classes), len(terms)),
            hyper=dict(params["hyper"]),
        )
    if kind in (BAGGING, RANDOM_FOREST):
        members = tuple(
            _decode_tree(t, len(classes), len(terms)) for t in params["trees"]
        )
        if not members:
            raise ValueError("ensemble has no trees")
        return EnsembleModel(
            kind=kind, **header, members=members, hyper=dict(params["hyper"])
        )
    raise ModelFormatError(f"unknown model kind {kind!r}")


def load_model(path: str | Path) -> Model:
    """Read a model document written by :func:`save_model`."""
    try:
        document = json.loads(read_input(path, ModelFormatError, "model file"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(document, dict):
        raise ModelFormatError(f"{path}: expected a JSON object at top level")

    try:
        version = document["format_version"]
        if version != FORMAT_VERSION:
            raise ModelFormatError(
                f"{path}: unsupported model format version {version!r} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        kind = document["model_kind"]
        tags = document["classes"]
        if not isinstance(tags, list) or not tags or not all(isinstance(t, str) for t in tags):
            raise ModelFormatError(f"{path}: 'classes' must be a non-empty list of label tags")
        classes = tuple(SentimentLabel.from_tag(tag) for tag in tags)
        if len(set(classes)) != len(classes):
            raise ModelFormatError(f"{path}: 'classes' lists a label twice: {tags}")
        terms = tuple(str(t) for t in document["vocabulary"])
        weighting = document["weighting"]
        if weighting not in (COUNTS, TFIDF):
            raise ModelFormatError(
                f"{path}: 'weighting' must be '{COUNTS}' or '{TFIDF}', got {weighting!r}"
            )
        return _decode_model(kind, classes, terms, weighting, document["params"])
    except KeyError as exc:
        raise ModelFormatError(f"{path}: model file is missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model file: {exc}") from exc
