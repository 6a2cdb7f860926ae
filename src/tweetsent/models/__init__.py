"""The models: one base class, :class:`Model`, and one training-set and prediction API."""

from .base import Model, Prediction, TrainingSet, check_hyperparameters, hyperparameters, member_rng
from .ensemble import (
    BAGGING,
    RANDOM_FOREST,
    EnsembleModel,
    train_bagging,
    train_random_forest,
)
from .io import FORMAT_VERSION, encode_model, load_model, save_model
from .linear import (
    MAXENT,
    SVM,
    LinearModel,
    maxent_loss_and_grad,
    train_linear_svm,
    train_maxent,
)
from .naive_bayes import NAIVE_BAYES, NaiveBayesModel, train_naive_bayes
from .tree import (
    DECISION_TREE,
    DecisionTreeModel,
    Tree,
    bin_training_set,
    gini_impurity,
    train_decision_tree,
)


__all__ = [
    "BAGGING",
    "DECISION_TREE",
    "FORMAT_VERSION",
    "MAXENT",
    "NAIVE_BAYES",
    "RANDOM_FOREST",
    "SVM",
    "DecisionTreeModel",
    "EnsembleModel",
    "LinearModel",
    "Model",
    "NaiveBayesModel",
    "Prediction",
    "TrainingSet",
    "Tree",
    "bin_training_set",
    "check_hyperparameters",
    "encode_model",
    "gini_impurity",
    "hyperparameters",
    "load_model",
    "maxent_loss_and_grad",
    "member_rng",
    "save_model",
    "train_bagging",
    "train_decision_tree",
    "train_linear_svm",
    "train_maxent",
    "train_naive_bayes",
    "train_random_forest",
]
