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

import numpy as np

from ..exceptions import HyperparameterError
from .base import Model, TrainingSet, member_rng
from .tree import Tree, bin_training_set, grow_trees, stack_trees

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


def _train_ensemble(
    kind: str,
    training: TrainingSet,
    *,
    n_members: int,
    max_depth: int | None,
    min_samples_split: int,
    seed: int,
    bootstrap: bool,
    n_features_per_split: int | None,
) -> EnsembleModel:
    if n_members < 1:
        raise HyperparameterError(f"n_members must be at least 1, got {n_members}")
    if n_features_per_split is not None and n_features_per_split < 1:
        raise HyperparameterError(
            f"n_features_per_split must be at least 1, got {n_features_per_split}"
        )

    binned = bin_training_set(training)
    n_docs, n_terms = training.n_docs, training.matrix.n_terms

    def member(m):
        rng = member_rng(seed, m)
        rows = rng.integers(0, n_docs, size=n_docs) if bootstrap else np.arange(n_docs)
        if n_features_per_split is None or n_features_per_split >= n_terms:
            return rows, None
        k = n_features_per_split
        return rows, lambda: np.sort(rng.choice(n_terms, size=k, replace=False))

    # Read lazily, a group at a time, so that only one group's bootstrap
    # rows exist at once.
    members = grow_trees(
        binned,
        map(member, range(n_members)),
        max_depth=max_depth,
        min_samples_split=min_samples_split,
    )

    hyper = {
        "n_members": n_members,
        "max_depth": max_depth,
        "min_samples_split": min_samples_split,
        "seed": seed,
        "bootstrap": bootstrap,
    }
    if kind == RANDOM_FOREST:
        hyper["n_features_per_split"] = n_features_per_split
    return EnsembleModel(
        kind=kind,
        **training.header(),
        members=tuple(members),
        hyper=hyper,
    )


def train_bagging(
    training: TrainingSet,
    *,
    n_members: int = 15,
    max_depth: int | None = None,
    min_samples_split: int = 2,
    seed: int = 0,
    bootstrap: bool = True,
) -> EnsembleModel:
    """Bagged trees: each member sees a bootstrap resample, all columns."""
    return _train_ensemble(
        BAGGING,
        training,
        n_members=n_members,
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        seed=seed,
        bootstrap=bootstrap,
        n_features_per_split=None,
    )


def train_random_forest(
    training: TrainingSet,
    *,
    n_members: int = 25,
    max_depth: int | None = None,
    min_samples_split: int = 2,
    seed: int = 0,
    bootstrap: bool = True,
    n_features_per_split: int | None = None,
) -> EnsembleModel:
    """Random forest: bagging plus a fresh column subset at every split.

    ``n_features_per_split`` defaults to ``floor(sqrt(n_terms))`` (at least
    one).  When it reaches the vocabulary size the subset covers every
    column and member trees coincide with plain bagged trees.
    """
    if n_features_per_split is None:
        n_features_per_split = max(1, floor(sqrt(training.matrix.n_terms)))
    return _train_ensemble(
        RANDOM_FOREST,
        training,
        n_members=n_members,
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        seed=seed,
        bootstrap=bootstrap,
        n_features_per_split=n_features_per_split,
    )
