"""
Six classifiers, one prediction contract
========================================

Every trainer maps a TrainingSet to a model whose predict_batch() scores a
whole matrix and returns label indices plus per-class scores — posteriors
for naive Bayes and maxent, raw margins for the SVM, leaf shares for the
tree, vote shares for the ensembles; predict() does the same for one
document, given as a one-row matrix.  This script fits all six on a fixed
ten-document corpus, peeks inside each one, and round-trips a model
through its JSON file format.
"""

import tempfile
from pathlib import Path

import numpy as np

from tweetsent.datagen import make_toy_training_set
from tweetsent.features import build_count_matrix
from tweetsent.models import (
    load_model,
    save_model,
    train_bagging,
    train_decision_tree,
    train_linear_svm,
    train_maxent,
    train_naive_bayes,
    train_random_forest,
)

# ---------------------------------------------------------------------------
# 1. The shared toy corpus: 3 positive, 3 negative, 3 neutral documents, plus
#    one whose positive and negative words cancel (labelled neutral).
training = make_toy_training_set()
print(f"{training.n_docs} documents, {training.matrix.n_terms} terms, "
      f"classes = {[c.tag for c in training.classes]}")

terms = training.matrix.terms
probe = build_count_matrix(terms, [["good", "fun", "fun"]])
print("probe document: ['good', 'fun', 'fun']")
print()


def show(name, model):
    pred = model.predict(probe)
    scores = ", ".join(f"{c.tag}={s:+.3f}" for c, s in pred.scores.items())
    print(f"{name:14s} -> {pred.label.tag:8s} ({scores})")


# ---------------------------------------------------------------------------
# 2. Naive Bayes: Laplace-smoothed count model, a linear model in log space
#    (log likelihoods as weights, log priors as bias). Its scores are
#    posteriors that sum to one.
nb = train_naive_bayes(training, alpha=1.0)
show("naive bayes", nb)
print(f"    log prior per class (its bias): {np.round(nb.bias, 3)}")
print(f"    P(term | class) sums (exp of its weights): "
      f"{np.round(np.exp(nb.weights).sum(axis=1), 6)}")
print()

# ---------------------------------------------------------------------------
# 3. Maxent: full-batch gradient descent on the softmax cross-entropy with an
#    L2 penalty. The recorded loss trace starts at ln(n_classes) for zero
#    weights and never increases at this learning rate.
maxent = train_maxent(training, eta=0.1, lam=1e-3, epochs=300)
show("maxent", maxent)
trace = maxent.loss_trace
print(f"    loss trace: {trace[0]:.4f} (= ln 3) -> {trace[-1]:.4f} "
      f"over {len(trace) - 1} epochs, non-increasing: "
      f"{all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))}")
print()

# ---------------------------------------------------------------------------
# 4. Linear SVM: one-vs-rest hinge loss trained with the Pegasos schedule.
#    Scores are raw margins — useful for ranking, not probabilities.
svm = train_linear_svm(training, lam=0.1, epochs=50, seed=0)
show("svm", svm)
label_idx, margins = svm.predict_batch(training.matrix)
print(f"    raw margins of the first 3 training docs:\n{np.round(margins[:3], 3)}")
print(f"    training accuracy: {np.mean(label_idx == training.y()):.2f}")
print()

# ---------------------------------------------------------------------------
# 5. Decision tree: CART with Gini impurity and midpoint thresholds.
#    The toy corpus separates with a handful of splits.
tree = train_decision_tree(training, max_depth=None)
show("decision tree", tree)
flat = tree.trees[0]
print(f"    {flat.n_nodes} nodes, depth {flat.depth}; root splits on "
      f"{terms[flat.column[0]]!r} <= {flat.threshold[0]}")
print(f"    flat arrays in preorder: column={flat.column.tolist()}")
print(f"                             right ={flat.right.tolist()}")
print("    (an internal node's left child is the next node, so it is not stored)")
print()

# ---------------------------------------------------------------------------
# 6. Ensembles: bagging (bootstrap resamples, all features) and random
#    forest (bootstrap + random feature subset per split). Scores are the
#    share of members voting for each class.
forest = train_random_forest(training, n_members=25, seed=0)
bagging = train_bagging(training, n_members=15, seed=0)
show("random forest", forest)
show("bagging", bagging)
print(f"    forest: {len(forest.trees)} trees, "
      f"{forest.hyper['n_features_per_split']} features per split; "
      f"votes for probe = "
      f"{[round(s * len(forest.trees)) for s in forest.predict(probe).scores.values()]}")
print()

# ---------------------------------------------------------------------------
# 7. All six agree on the easy probe, and every model survives a save/load
#    round trip bit-for-bit on its predictions.
with tempfile.TemporaryDirectory() as tmp:
    for name, model in [
        ("naive_bayes", nb), ("maxent", maxent), ("svm", svm),
        ("decision_tree", tree), ("random_forest", forest), ("bagging", bagging),
    ]:
        path = Path(tmp) / f"{name}.json"
        save_model(model, path)
        reloaded = load_model(path)
        assert reloaded.predict(probe).label == model.predict(probe).label
        assert reloaded.predict(probe).scores == model.predict(probe).scores
        print(f"round trip ok: {name:14s} ({path.stat().st_size:6d} bytes)")
