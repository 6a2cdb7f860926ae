"""Bootstrap ensembles of decision trees: bagging and random forest.

Member ``m`` of an ensemble seeded with ``seed`` draws all of its
randomness — the bootstrap resample and, for random forest, the per-split
column subsets — from the dedicated substream ``seeded_rng(seed, m)``,
so members are independent of each other and reproducible in isolation.

The training rows are binned for the tree split search once per ensemble,
not once per member: a member's bootstrap resample is a list of row indices
into that one binning, repeats included, so no member copies the matrix.
Members are grown in lockstep by :func:`~.tree.grow_trees`, each still
calling its own column sampler in its own node preorder, so every member
is the tree it would be if grown alone.  A fitted ensemble is a
:class:`~.tree.TreeModel` holding its members, scored as a decision tree
is.  This module holds only the trainers.
"""

from __future__ import annotations

from math import floor, sqrt
from typing import Annotated

import numpy as np

from .base import Seed, TrainingSet, at_least, at_most, check_hyperparameters, seeded_rng
from .tree import MaxDepth, MinSamplesSplit, TreeModel, bin_rows, grow_trees

BAGGING = "bagging"
RANDOM_FOREST = "random_forest"


def _train_ensemble(kind: str, training: TrainingSet, hyper: dict) -> TreeModel:
    """The ensemble of ``kind`` that the checked hyperparameters ``hyper``
    describe; bagging's give no ``n_features_per_split``."""
    binned = bin_rows(training.matrix, training.y(), len(training.classes))
    n_docs, n_terms = training.n_docs, training.matrix.n_terms
    seed, bootstrap = hyper["seed"], hyper["bootstrap"]
    k = hyper.get("n_features_per_split")

    def member(m):
        rng = seeded_rng(seed, m)
        rows = rng.integers(0, n_docs, size=n_docs) if bootstrap else np.arange(n_docs)
        if k is None or k >= n_terms:
            return rows, None
        return rows, lambda: rng.choice(n_terms, size=k, replace=False)

    # Read lazily, a group at a time, so that only one group's bootstrap
    # rows exist at once.
    members = grow_trees(
        binned,
        map(member, range(hyper["n_members"])),
        max_depth=hyper["max_depth"],
        min_samples_split=hyper["min_samples_split"],
    )
    return TreeModel(kind=kind, **training.header(), trees=tuple(members), hyper=hyper)


def train_bagging(
    training: TrainingSet,
    *,
    n_members: Annotated[int, at_least(1), at_most(1_000)] = 15,
    max_depth: MaxDepth = None,
    min_samples_split: MinSamplesSplit = 2,
    seed: Seed = 0,
    bootstrap: bool = True,
) -> TreeModel:
    """Bagged trees: each member sees a bootstrap resample, all columns."""
    return _train_ensemble(BAGGING, training, check_hyperparameters(train_bagging, locals()))


def train_random_forest(
    training: TrainingSet,
    *,
    n_members: Annotated[int, at_least(1), at_most(1_000)] = 25,
    max_depth: MaxDepth = None,
    min_samples_split: MinSamplesSplit = 2,
    seed: Seed = 0,
    bootstrap: bool = True,
    n_features_per_split: Annotated[int | None, at_least(1)] = None,
) -> TreeModel:
    """Random forest: bagging plus a fresh column subset at every split.

    ``n_features_per_split`` defaults to ``floor(sqrt(n_terms))`` (at least
    one).  When it reaches the vocabulary size the subset covers every
    column and member trees coincide with plain bagged trees.
    """
    if n_features_per_split is None:
        n_features_per_split = max(1, floor(sqrt(training.matrix.n_terms)))
    return _train_ensemble(
        RANDOM_FOREST, training, check_hyperparameters(train_random_forest, locals())
    )
