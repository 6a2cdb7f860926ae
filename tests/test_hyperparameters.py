"""Hyperparameters are declared once, in their trainer's signature: the
type, the default and the range there are what a config is checked against,
and the keyword-only arguments with defaults applied are the ``hyper``
record a model keeps and its file stores."""

from math import floor, sqrt
from typing import Annotated

import pytest

from tweetsent.datagen import make_toy_training_set
from tweetsent.exceptions import HyperparameterError
from tweetsent.models import (
    check_hyperparameters,
    train_bagging,
    train_decision_tree,
    train_linear_svm,
    train_maxent,
    train_random_forest,
)
from tweetsent.models.base import NON_NEGATIVE, POSITIVE, Seed, at_least


def _trainer(
    training,
    *,
    rate: Annotated[float, POSITIVE] = 1.0,
    depth: Annotated[int | None, NON_NEGATIVE] = None,
    splits: Annotated[int, at_least(2)] = 2,
    seed: Seed = 0,
    flag: bool = True,
):
    """A trainer that declares one hyperparameter of each kind."""


class TestCheckHyperparameters:
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("rate", 0.0, "rate must be positive, got 0.0"),
            ("rate", -1, "rate must be positive, got -1"),
            ("depth", -1, "depth must be non-negative, got -1"),
            ("splits", 1, "splits must be at least 2, got 1"),
            ("seed", -5, "seed must be non-negative, got -5"),
        ],
    )
    def test_refuses_a_value_outside_its_range(self, name, value, message):
        with pytest.raises(HyperparameterError, match=f"^{message}$"):
            check_hyperparameters(_trainer, {name: value})

    @pytest.mark.parametrize("name", ["rate", "depth", "splits", "seed", "flag"])
    def test_none_is_in_every_range(self, name):
        assert check_hyperparameters(_trainer, {name: None}) == {name: None}

    @pytest.mark.parametrize(
        "name, value", [("rate", 1e-300), ("depth", 0), ("splits", 2), ("seed", 0), ("flag", False)]
    )
    def test_accepts_the_bounds(self, name, value):
        assert check_hyperparameters(_trainer, {name: value}) == {name: value}


@pytest.mark.parametrize(
    "trainer, overrides",
    [
        (train_maxent, {}),
        (train_maxent, {"eta": 0.2, "epochs": 3}),
        (train_linear_svm, {}),
        (train_linear_svm, {"lam": 0.5, "epochs": 2, "seed": 3}),
        (train_decision_tree, {}),
        (train_decision_tree, {"max_depth": 2, "min_samples_split": 3}),
        (train_random_forest, {"n_members": 3}),
        (train_random_forest, {"n_members": 2, "n_features_per_split": 2, "bootstrap": False}),
        (train_bagging, {"n_members": 3}),
        (train_bagging, {"n_members": 2, "max_depth": 1, "seed": 7}),
    ],
    ids=lambda v: v.__name__ if callable(v) else ",".join(v) or "defaults",
)
def test_hyper_record_is_the_keyword_only_arguments(trainer, overrides):
    """A model's ``hyper`` is its trainer's keyword-only arguments with the
    defaults applied, no more and no fewer; random forest records the
    ``n_features_per_split`` it computed."""
    training = make_toy_training_set()
    expected = {**trainer.__kwdefaults__, **overrides}
    if trainer is train_random_forest and "n_features_per_split" not in overrides:
        expected["n_features_per_split"] = max(1, floor(sqrt(training.matrix.n_terms)))
    model = trainer(training, **overrides)
    assert model.hyper == expected
    assert list(model.hyper) == list(trainer.__kwdefaults__)
