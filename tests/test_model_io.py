"""Model serialization: exact round-trips and version/format validation.

Parameters are written with full float precision, so a save/load cycle
must reproduce every model bit for bit, and save(load(save(m))) must be
byte-identical to the first save.
"""

import json
import re

import numpy as np
import pytest

from tweetsent.datagen import make_toy_training_set
from tweetsent.exceptions import ModelFormatError
from tweetsent.features import COUNTS, TFIDF, build_count_matrix, build_vocabulary, tfidf_transform
from tweetsent.lexicon import SentimentLabel
from tweetsent.models import (
    TrainingSet,
    load_model,
    save_model,
    train_bagging,
    train_decision_tree,
    train_linear_svm,
    train_maxent,
    train_naive_bayes,
    train_random_forest,
)

from test_ensemble import same_tree

TRAINERS = {
    "naive_bayes": train_naive_bayes,
    "maxent": lambda ts: train_maxent(ts, epochs=20),
    "svm": lambda ts: train_linear_svm(ts, epochs=5),
    "decision_tree": train_decision_tree,
    "random_forest": lambda ts: train_random_forest(ts, n_members=3),
    "bagging": lambda ts: train_bagging(ts, n_members=3),
}


def saved_document(model, tmp_path):
    path = tmp_path / "model.json"
    save_model(model, path)
    return path, json.loads(path.read_text(encoding="utf-8"))


class TestRoundTrip:
    """load(save(model)) reproduces the model exactly."""

    @pytest.mark.parametrize("kind", sorted(TRAINERS))
    def test_predictions_survive_the_round_trip(self, kind, tmp_path):
        """Reloaded models score every toy document identically."""
        training = make_toy_training_set()
        model = TRAINERS[kind](training)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        reloaded = load_model(path)

        assert reloaded.kind == kind
        assert reloaded.classes == model.classes
        assert reloaded.terms == model.terms
        for i in range(training.n_docs):
            vec = training.matrix.row(i)
            before = model.predict(vec)
            after = reloaded.predict(vec)
            assert after.label is before.label
            assert after.scores == before.scores

    @pytest.mark.parametrize("kind", sorted(TRAINERS))
    def test_a_loaded_model_s_terms_vectorise_a_document(self, kind, tmp_path):
        """``build_count_matrix(model.terms, [tokens])`` is a row the loaded
        model scores: a toy document's tokens, plus an unseen one, which
        is dropped, score as its training row does, byte for byte."""
        training = make_toy_training_set()
        path, _ = saved_document(TRAINERS[kind](training), tmp_path)
        model = load_model(path)
        row = training.matrix.row(3)
        tokens = ["unseen"] + [
            model.terms[column] for column, count in zip(row.indices, row.data)
            for _ in range(int(count))
        ]
        matrix = build_count_matrix(model.terms, [tokens])
        assert matrix.terms == model.terms
        assert matrix.toarray().tobytes() == row.toarray().tobytes()
        for got, want in zip(model.predict_batch(matrix), model.predict_batch(row)):
            assert got.tobytes() == want.tobytes()

    def test_naive_bayes_parameters_survive_bit_for_bit(self, tmp_path):
        model = TRAINERS["naive_bayes"](make_toy_training_set())
        path = tmp_path / "nb.json"
        save_model(model, path)
        reloaded = load_model(path)
        assert reloaded.bias.tobytes() == model.bias.tobytes()
        assert reloaded.weights.tobytes() == model.weights.tobytes()
        assert reloaded.hyper == model.hyper == {"alpha": 1.0}

    def test_naive_bayes_alpha_is_stored_as_a_float(self, tmp_path):
        """An integer alpha is written as the float the fit used."""
        model = train_naive_bayes(make_toy_training_set(), alpha=2)
        path, _ = saved_document(model, tmp_path)
        assert b'"alpha": 2.0' in path.read_bytes()

    @pytest.mark.parametrize("kind", ["maxent", "svm"])
    def test_linear_parameters_and_trace_survive(self, kind, tmp_path):
        model = TRAINERS[kind](make_toy_training_set())
        path = tmp_path / "linear.json"
        save_model(model, path)
        reloaded = load_model(path)
        np.testing.assert_array_equal(reloaded.weights, model.weights)
        np.testing.assert_array_equal(reloaded.bias, model.bias)
        assert reloaded.hyper == model.hyper
        assert reloaded.loss_trace == model.loss_trace

    def test_tree_structure_survives(self, tmp_path):
        model = TRAINERS["decision_tree"](make_toy_training_set())
        path = tmp_path / "tree.json"
        save_model(model, path)
        reloaded = load_model(path)
        assert same_tree(reloaded.trees[0], model.trees[0])
        assert reloaded.hyper == model.hyper

    @pytest.mark.parametrize("kind", ["bagging", "random_forest"])
    def test_ensemble_members_survive(self, kind, tmp_path):
        model = TRAINERS[kind](make_toy_training_set())
        path = tmp_path / "ensemble.json"
        save_model(model, path)
        reloaded = load_model(path)
        assert len(reloaded.trees) == len(model.trees)
        for a, b in zip(reloaded.trees, model.trees):
            assert same_tree(a, b)
        assert reloaded.hyper == model.hyper

    def test_deep_tree_survives(self, tmp_path):
        """A 1500-row alternating-label column grows a tree 1499 levels
        deep: growing, saving, loading and predicting need no recursion."""
        n_docs = 1500
        docs = [["w"] * i for i in range(n_docs)]
        labels = [
            SentimentLabel.POSITIVE if i % 2 else SentimentLabel.NEGATIVE
            for i in range(n_docs)
        ]
        training = TrainingSet(
            matrix=build_count_matrix(build_vocabulary(docs), docs), labels=tuple(labels)
        )
        model = train_decision_tree(training)
        assert model.trees[0].depth == n_docs - 1
        path = tmp_path / "deep.json"
        save_model(model, path)
        reloaded = load_model(path)
        assert same_tree(reloaded.trees[0], model.trees[0])
        label_idx, _ = reloaded.predict_batch(training.matrix)
        assert [reloaded.classes[i] for i in label_idx] == labels

    @pytest.mark.parametrize("kind", sorted(TRAINERS))
    @pytest.mark.parametrize("weighting", [COUNTS, TFIDF])
    def test_weighting_survives(self, kind, weighting, tmp_path):
        """A model records the classes, vocabulary and weighting of its
        training matrix, and its file keeps the weighting."""
        training = make_toy_training_set()
        if weighting == TFIDF:
            training = TrainingSet(
                matrix=tfidf_transform(training.matrix), labels=training.labels
            )
        model = TRAINERS[kind](training)
        assert model.classes == training.classes
        assert model.terms == training.matrix.terms
        assert model.weighting == weighting
        path, document = saved_document(model, tmp_path)
        assert document["weighting"] == weighting
        assert load_model(path).weighting == weighting

    @pytest.mark.parametrize("kind", sorted(TRAINERS))
    def test_params_have_one_layout_per_family(self, kind, tmp_path):
        """Naive Bayes is laid out as the other linear models, and a
        decision tree as the committees, with its one tree in ``trees``."""
        model = TRAINERS[kind](make_toy_training_set())
        _, document = saved_document(model, tmp_path)
        params = document["params"]
        if kind in ("naive_bayes", "svm", "maxent"):
            assert sorted(params) == ["bias", "hyper", "loss_trace", "weights"]
            assert (params["loss_trace"] is None) == (kind != "maxent")
        else:
            assert sorted(params) == ["hyper", "trees"]
            assert len(params["trees"]) == len(model.trees)
            assert all(sorted(tree) == ["column", "counts", "right", "threshold"]
                       for tree in params["trees"])
        assert params["hyper"] == model.hyper

    @pytest.mark.parametrize("kind", sorted(TRAINERS))
    def test_save_load_save_is_byte_stable(self, kind, tmp_path):
        """Serialization is canonical: a second save changes nothing."""
        model = TRAINERS[kind](make_toy_training_set())
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestFormatValidation:
    """Every malformed file fails with a model-format error, never a crash."""

    @staticmethod
    def _valid_document(tmp_path):
        model = TRAINERS["naive_bayes"](make_toy_training_set())
        return saved_document(model, tmp_path)

    def test_unsupported_version_is_rejected(self, tmp_path):
        path, document = self._valid_document(tmp_path)
        document["format_version"] = 99
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("version", [4.0, True, "4"], ids=repr)
    def test_a_version_is_an_integer(self, version, tmp_path):
        """``4.0 == 4`` in Python, but a JSON float is no integer, as in a
        config's integer fields."""
        path, document = self._valid_document(tmp_path)
        document["format_version"] = version
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(
            ModelFormatError, match=re.escape(f"unsupported model format version {version!r}")
        ):
            load_model(path)

    @pytest.mark.parametrize("field", ["weights", "bias"])
    @pytest.mark.parametrize("value", [True, False])
    def test_a_boolean_is_no_parameter(self, field, value, tmp_path):
        """numpy reads ``true`` as 1.0 and ``false`` as 0.0 in a list of
        numbers, but a JSON bool is no number."""
        path, document = self._valid_document(tmp_path)
        row = document["params"][field]
        if field == "weights":
            row = row[0]
        row[-1] = value
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=f"malformed model file: {field} must hold numbers"):
            load_model(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_earlier_formats_are_rejected(self, version, tmp_path):
        """Format 1 stored trees as nested nodes, format 2 did not record
        the features' weighting, and format 3 laid naive Bayes and the
        decision tree out on their own and stored every tree's left
        children; none is read any more, and the refusal names the file
        and the remedy."""
        path, document = self._valid_document(tmp_path)
        document["format_version"] = version
        del document["weighting"]
        path.write_text(json.dumps(document), encoding="utf-8")
        message = (
            f"{path}: unsupported model format version {version} "
            "(this build reads version 4); retrain with 'tweetsent train'"
        )
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize("weighting", ["binary", "COUNTS", None, 1, ["counts"]])
    def test_unknown_weighting_is_rejected(self, weighting, tmp_path):
        path, document = self._valid_document(tmp_path)
        document["weighting"] = weighting
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="'weighting' must be"):
            load_model(path)

    def test_unknown_kind_is_rejected(self, tmp_path):
        path, document = self._valid_document(tmp_path)
        document["model_kind"] = "perceptron"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="unknown model kind"):
            load_model(path)

    def test_truncated_file_is_rejected(self, tmp_path):
        path, _ = self._valid_document(tmp_path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(ModelFormatError, match="model.json: not valid JSON"):
            load_model(path)

    def test_non_object_top_level_is_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="JSON object"):
            load_model(path)

    @pytest.mark.parametrize(
        "field", ["format_version", "model_kind", "classes", "vocabulary", "weighting", "params"]
    )
    def test_missing_top_level_field_is_rejected(self, field, tmp_path):
        path, document = self._valid_document(tmp_path)
        del document[field]
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="missing field"):
            load_model(path)

    def test_missing_params_field_is_rejected(self, tmp_path):
        path, document = self._valid_document(tmp_path)
        del document["params"]["bias"]
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="missing field"):
            load_model(path)

    def test_unparseable_parameters_are_rejected(self, tmp_path):
        path, document = self._valid_document(tmp_path)
        document["params"]["bias"] = "not numbers"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model(path)

    @pytest.mark.parametrize(
        "alpha, message",
        [
            ("NaN", "'alpha' must be finite float, got 'NaN'"),
            (float("nan"), "'alpha' must be finite float, got nan"),
            (float("inf"), "'alpha' must be finite float, got inf"),
            (0.0, "alpha must be positive, got 0.0"),
            (-1.0, "alpha must be positive, got -1.0"),
            ([1.0], "'alpha' must be finite float, got [1.0]"),
            (True, "'alpha' must be finite float, got True"),
        ],
    )
    def test_alpha_must_be_a_finite_positive_number(self, alpha, message, tmp_path):
        """Naive Bayes' ``alpha`` sits in ``params.hyper`` and follows its
        trainer's rule, as every hyperparameter does.  ``float()`` once read
        the string "NaN" here, and a re-save wrote a bare NaN into the JSON."""
        path, document = self._valid_document(tmp_path)
        document["params"]["hyper"]["alpha"] = alpha
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize(
        "trace, message",
        [
            (["NaN", 1.0], "loss_trace must hold numbers"),
            ([1.0, float("inf")], "loss_trace holds a NaN"),
            ([[1.0], [0.5]], "loss_trace has shape (2, 1)"),
            (1.0, "loss_trace has shape (), expected (1,)"),
            ("1.0", "loss_trace must hold numbers"),
            ([1.0, True], "loss_trace must hold numbers"),
        ],
    )
    def test_loss_trace_must_be_null_or_finite_numbers(self, trace, message, tmp_path):
        model = TRAINERS["maxent"](make_toy_training_set())
        path, document = saved_document(model, tmp_path)
        document["params"]["loss_trace"] = trace
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize("hyper", [[["lam", 0.1]], "ab", None], ids=repr)
    def test_hyper_must_be_an_object(self, hyper, tmp_path):
        """A list of pairs is no JSON object, though ``dict()`` would take it."""
        model = TRAINERS["svm"](make_toy_training_set())
        path, document = saved_document(model, tmp_path)
        document["params"]["hyper"] = hyper
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=re.escape(f"hyper must be an object, got {hyper!r}")):
            load_model(path)

    def test_unknown_class_tag_is_rejected(self, tmp_path):
        path, document = self._valid_document(tmp_path)
        document["classes"] = ["positive", "sideways"]
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model(path)

    @pytest.mark.parametrize(
        "rewrite, message",
        [
            (lambda terms: "".join(t[0] for t in terms), "'vocabulary' must be a list of term strings"),
            (lambda terms: list(range(len(terms))), "'vocabulary' must be a list of term strings"),
            (dict.fromkeys, "'vocabulary' must be a list of term strings"),
            (lambda terms: [*terms[:-1], terms[0]], "'vocabulary' must list distinct terms"),
        ],
        ids=["string", "numbers", "object", "duplicate"],
    )
    def test_vocabulary_must_be_a_list_of_distinct_strings(self, rewrite, message, tmp_path):
        """Each rewrite keeps the vocabulary's length, and each once loaded:
        a string as one term per character, numbers as strings, an object
        as its keys, and a repeated term as two columns."""
        path, document = self._valid_document(tmp_path)
        terms = document["vocabulary"]
        document["vocabulary"] = rewrite(terms)
        assert len(document["vocabulary"]) == len(terms)
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    def test_unserialisable_object_is_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        with pytest.raises(TypeError, match="cannot serialise object of type object"):
            save_model(object(), path)
        assert not path.exists()


def tree_document(tmp_path):
    """A saved decision tree of the toy corpus, with at least one split."""
    model = TRAINERS["decision_tree"](make_toy_training_set())
    assert model.trees[0].n_nodes >= 3
    return saved_document(model, tmp_path)


def corrupt_tree(tree: dict, defect: str) -> None:
    """Break one structural rule of a saved tree's flat arrays, in place."""
    if defect == "cycle":
        tree["right"][0] = 0
    elif defect == "right-is-the-left-child":
        tree["right"][0] = 1
    elif defect == "internal-last-node":
        tree["column"][-1] = 0
    elif defect == "backward-child":
        internal = [i for i, c in enumerate(tree["column"]) if c != -1]
        tree["right"][internal[-1]] = internal[0]
    elif defect == "child-past-the-end":
        tree["right"][0] = len(tree["column"])
    elif defect == "leaf-with-child":
        tree["right"][tree["column"].index(-1)] = len(tree["column"]) - 1
    elif defect == "column-outside-vocabulary":
        tree["column"][0] = 10_000
    elif defect == "negative-column":
        tree["column"][0] = -2
    elif defect == "unequal-lengths":
        tree["threshold"].append(0.0)
    elif defect == "counts-per-node":
        tree["counts"].pop()
    elif defect == "zero-counts":
        tree["counts"] = [0.0] * len(tree["counts"])
    elif defect == "zero-count-node":
        n_classes = len(tree["counts"]) // len(tree["column"])
        leaf = tree["column"].index(-1)
        tree["counts"][leaf * n_classes:(leaf + 1) * n_classes] = [0.0] * n_classes
    elif defect == "overflowing-counts":
        # Each count is finite, but a node's sum is past the float range.
        tree["counts"] = [1e308] * len(tree["counts"])
    elif defect == "negative-count":
        tree["counts"][0] = -tree["counts"][0] - 1.0
    elif defect == "non-integer-column":
        tree["column"][0] = 0.5
    elif defect == "boolean-column":
        # Column 1 to numpy, so the tree would split on another term.
        tree["column"][0] = True
    elif defect == "boolean-threshold":
        tree["threshold"][0] = True
    elif defect == "boolean-count":
        tree["counts"][0] = True
    elif defect == "no-nodes":
        for name in ("column", "threshold", "right", "counts"):
            tree[name] = []
    else:
        raise AssertionError(defect)


TREE_DEFECTS = [
    "cycle",
    "right-is-the-left-child",
    "internal-last-node",
    "backward-child",
    "child-past-the-end",
    "leaf-with-child",
    "column-outside-vocabulary",
    "negative-column",
    "unequal-lengths",
    "counts-per-node",
    "zero-counts",
    "zero-count-node",
    "overflowing-counts",
    "negative-count",
    "non-integer-column",
    "boolean-column",
    "boolean-threshold",
    "boolean-count",
    "no-nodes",
]


class TestTreeStructureValidation:
    """Flat tree arrays that do not form a tree over the file's vocabulary
    and classes are rejected at load, before any prediction walks them."""

    @pytest.mark.parametrize("defect", TREE_DEFECTS)
    def test_decision_tree_defect_is_rejected(self, defect, tmp_path):
        path, document = tree_document(tmp_path)
        tree, = document["params"]["trees"]
        corrupt_tree(tree, defect)
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="malformed model file: tree"):
            load_model(path)

    @pytest.mark.parametrize(
        "defect", ["cycle", "column-outside-vocabulary", "zero-counts", "negative-count"]
    )
    def test_ensemble_member_defect_is_rejected(self, defect, tmp_path):
        model = train_bagging(make_toy_training_set(), n_members=3, seed=0)
        path, document = saved_document(model, tmp_path)
        tree = document["params"]["trees"][-1]
        assert len(tree["column"]) >= 3
        corrupt_tree(tree, defect)
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="malformed model file: tree"):
            load_model(path)

    def test_decision_tree_with_two_trees_is_rejected(self, tmp_path):
        """A decision tree holds one tree: a second would make it average
        two trees' class shares."""
        path, document = tree_document(tmp_path)
        document["params"]["trees"] *= 2
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(
            ModelFormatError, match=re.escape("decision_tree holds 2 trees, not n_members = 1")
        ):
            load_model(path)

    def test_ensemble_with_a_tree_short_of_n_members_is_rejected(self, tmp_path):
        model = train_bagging(make_toy_training_set(), n_members=3, seed=0)
        path, document = saved_document(model, tmp_path)
        document["params"]["trees"].pop()
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(
            ModelFormatError, match=re.escape("bagging holds 2 trees, not n_members = 3")
        ):
            load_model(path)

    def test_ensemble_without_trees_is_rejected(self, tmp_path):
        model = train_bagging(make_toy_training_set(), n_members=1, seed=0)
        path, document = saved_document(model, tmp_path)
        document["params"]["trees"] = []
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="no trees"):
            load_model(path)
