"""The models: one base class, :class:`Model`, and one training-set and prediction API."""

from .base import Model, Prediction, TrainingSet, check_hyperparameters, hyperparameters, seeded_rng
from .io import FORMAT_VERSION, TRAINERS, encode_model, load_model, save_model
from .linear import (
    MAXENT,
    NAIVE_BAYES,
    SVM,
    LinearModel,
    maxent_loss_and_grad,
    train_linear_svm,
    train_maxent,
    train_naive_bayes,
)
from .tree import (
    BAGGING,
    DECISION_TREE,
    RANDOM_FOREST,
    Tree,
    TreeModel,
    train_bagging,
    train_decision_tree,
    train_random_forest,
)


__all__ = [
    "BAGGING",
    "DECISION_TREE",
    "FORMAT_VERSION",
    "MAXENT",
    "NAIVE_BAYES",
    "RANDOM_FOREST",
    "SVM",
    "TRAINERS",
    "LinearModel",
    "Model",
    "Prediction",
    "TrainingSet",
    "Tree",
    "TreeModel",
    "check_hyperparameters",
    "encode_model",
    "hyperparameters",
    "load_model",
    "maxent_loss_and_grad",
    "save_model",
    "seeded_rng",
    "train_bagging",
    "train_decision_tree",
    "train_linear_svm",
    "train_maxent",
    "train_naive_bayes",
    "train_random_forest",
]
