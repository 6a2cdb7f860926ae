"""Bootstrap ensembles of decision trees: bagging and random forest.

Member ``m`` of an ensemble seeded with ``seed`` draws all of its
randomness — the bootstrap resample and, for random forest, the per-split
column subsets — from the dedicated substream ``SeedSequence([seed, m])``,
so members are independent of each other and reproducible in isolation.

The training rows are binned for the tree split search once per ensemble,
not once per member: a member's bootstrap resample is a list of row indices
into that one binning, repeats included, so no member copies the matrix.
Members are grown in lockstep by :func:`~.tree.grow_trees`, each still
calling its own column sampler in its own node preorder, so every member
is the tree it would be if grown alone.  Prediction walks all members at
once through one stacked node array, built on first use, over
:data:`WALK_CHUNK` rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import floor, sqrt
from typing import Annotated

import numpy as np

from .base import Model, Seed, TrainingSet, at_least, at_most, check_hyperparameters, member_rng
from .tree import MaxDepth, MinSamplesSplit, Tree, bin_training_set, grow_trees, stack_trees

BAGGING = "bagging"
RANDOM_FOREST = "random_forest"

# Rows walked through all members per pass.  Results do not depend on it;
# it bounds the walk's arrays to this many rows times the member count.
WALK_CHUNK = 256


@dataclass(frozen=True)
class EnsembleModel(Model):
    """A majority-vote committee of decision trees."""

    kind: str
    members: tuple[Tree, ...]
    hyper: dict = field(default_factory=dict)

    @cached_property
    def _forest(self) -> tuple[Tree, np.ndarray, np.ndarray]:
        """The members stacked into one tree, each member's root in it, and
        each node's vote: its most frequent class, the first one on a tie."""
        forest, roots = stack_trees(self.members)
        return forest, roots, np.argmax(forest.counts, axis=1)

    def _scores(self, x: np.ndarray) -> np.ndarray:
        """Share of members voting for each class: a member votes for the
        vote of the leaf it reaches."""
        forest, roots, vote = self._forest
        n_classes = len(self.classes)
        votes = np.empty((x.shape[0], n_classes))
        for start in range(0, x.shape[0], WALK_CHUNK):
            n_rows = min(WALK_CHUNK, x.shape[0] - start)
            rows = np.tile(np.arange(n_rows), roots.shape[0])
            leaf = forest.walk(x[start : start + n_rows], rows, np.repeat(roots, n_rows))
            votes[start : start + n_rows] = np.bincount(
                rows * n_classes + vote[leaf], minlength=n_rows * n_classes
            ).reshape(n_rows, n_classes)
        return votes / len(self.members)


def _train_ensemble(kind: str, training: TrainingSet, hyper: dict) -> EnsembleModel:
    """The ensemble of ``kind`` that the checked hyperparameters ``hyper``
    describe; bagging's give no ``n_features_per_split``."""
    binned = bin_training_set(training)
    n_docs, n_terms = training.n_docs, training.matrix.n_terms
    seed, bootstrap = hyper["seed"], hyper["bootstrap"]
    k = hyper.get("n_features_per_split")

    def member(m):
        rng = member_rng(seed, m)
        rows = rng.integers(0, n_docs, size=n_docs) if bootstrap else np.arange(n_docs)
        if k is None or k >= n_terms:
            return rows, None
        return rows, lambda: np.sort(rng.choice(n_terms, size=k, replace=False))

    # Read lazily, a group at a time, so that only one group's bootstrap
    # rows exist at once.
    members = grow_trees(
        binned,
        map(member, range(hyper["n_members"])),
        max_depth=hyper["max_depth"],
        min_samples_split=hyper["min_samples_split"],
    )
    return EnsembleModel(kind=kind, **training.header(), members=tuple(members), hyper=hyper)


def train_bagging(
    training: TrainingSet,
    *,
    n_members: Annotated[int, at_least(1), at_most(1_000)] = 15,
    max_depth: MaxDepth = None,
    min_samples_split: MinSamplesSplit = 2,
    seed: Seed = 0,
    bootstrap: bool = True,
) -> EnsembleModel:
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
) -> EnsembleModel:
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
