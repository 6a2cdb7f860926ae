"""
Scoring classifiers: confusion matrices and k-fold cross-validation
===================================================================

Resubstitution accuracy flatters any model that can memorise.  This script
first dissects a hand-sized confusion matrix into per-class precision,
recall, and F1, then runs seeded k-fold cross-validation on a weakly
labelled synthetic corpus to get honest held-out numbers.
"""

from functools import partial

import numpy as np

from tweetsent.corpus import clean_corpus, load_stopwords
from tweetsent.datagen import generate_corpus, lexicon_lines
from tweetsent.evaluation import (
    accuracy,
    confusion_matrix,
    cross_validate,
    k_fold_split,
    macro_average,
    per_class_metrics,
)
from tweetsent.features import build_count_matrix, build_vocabulary
from tweetsent.lexicon import CANONICAL_LABELS, SentimentLabel, label_corpus
from tweetsent.models import (
    TrainingSet,
    train_decision_tree,
    train_linear_svm,
    train_naive_bayes,
)

POS, NEU, NEG = (
    SentimentLabel.POSITIVE, SentimentLabel.NEUTRAL, SentimentLabel.NEGATIVE,
)

# ---------------------------------------------------------------------------
# 1. A confusion matrix tallies (gold, predicted) pairs. Seventeen toy
#    verdicts, deliberately imperfect.
gold = [POS] * 6 + [NEU] * 6 + [NEG] * 5
predicted = (
    [POS, POS, POS, POS, POS, NEU]          # one positive mistaken as neutral
    + [POS, POS, NEU, NEU, NEU, NEG]        # neutral smeared both ways
    + [NEU, NEG, NEG, NEG, NEG]             # one negative mistaken as neutral
)
cm = confusion_matrix(gold, predicted)
print("confusion matrix (rows = gold, columns = predicted):")
print("  classes:", [c.tag for c in cm.classes])
print(cm.counts)
print()

# ---------------------------------------------------------------------------
# 2. Per-class scores are one-vs-rest: precision = tp/(tp+fp),
#    recall = tp/(tp+fn), F1 their harmonic mean. Macro scores are the
#    unweighted means across classes.
for m in per_class_metrics(cm):
    print(f"  {m.label.tag:8s} precision={m.precision:.3f} "
          f"recall={m.recall:.3f} f1={m.f1:.3f} support={m.support}")
macro = macro_average(per_class_metrics(cm))
print(f"  macro    precision={macro.precision:.3f} "
      f"recall={macro.recall:.3f} f1={macro.f1:.3f}")
print(f"  accuracy {accuracy(cm):.3f}")
print()

# ---------------------------------------------------------------------------
# 3. k_fold_split deals a seeded permutation round-robin, so fold sizes
#    differ by at most one and every row is tested exactly once.
splits = k_fold_split(n_docs=10, k=4, seed=0)
for i, (train_rows, test_rows) in enumerate(splits):
    print(f"  fold {i}: train={train_rows} test={test_rows}")
all_test = np.sort(np.concatenate([test for _, test in splits]))
assert np.array_equal(all_test, np.arange(10))
print("  every row appears in exactly one test fold")
print()

# ---------------------------------------------------------------------------
# 4. A realistic evaluation corpus: 150 synthetic tweets, cleaned,
#    weak-labelled by the bundled lexicon, and vectorized.
tweets = generate_corpus("burgerhouse", seed=7, n_docs=150)
stop = load_stopwords(None)  # the generator avoids stopwords anyway
docs = clean_corpus(tweets, stop)
lexicon = {
    token: float(weight)
    for token, weight in (
        line.split("\t") for line in lexicon_lines() if not line.startswith("#")
    )
}
token_lists = [doc.tokens for doc in docs]
labels, _ = label_corpus(lexicon, token_lists)
print("weak-label distribution:",
      {label.tag: labels.count(label) for label in CANONICAL_LABELS})

vocab = build_vocabulary(token_lists, min_df=1)
training = TrainingSet(
    matrix=build_count_matrix(vocab, token_lists),
    labels=labels,
)
print(f"training set: {training.n_docs} docs x {training.matrix.n_terms} terms")
print()

# ---------------------------------------------------------------------------
# 5. cross_validate refits the model on each fold's training rows and
#    scores the held-out rows, reporting mean +/- std accuracy and mean
#    macro metrics. The same seed always deals the same folds.
trainers = {
    "naive bayes": partial(train_naive_bayes, alpha=1.0),
    "svm": partial(train_linear_svm, lam=0.1, epochs=50, seed=0),
    "decision tree": partial(train_decision_tree, max_depth=None),
}
print("4-fold cross-validation:")
for name, trainer in trainers.items():
    result = cross_validate(trainer, training, k=4, seed=0)
    print(f"  {name:14s} accuracy {result.mean_accuracy:.3f} "
          f"+/- {result.std_accuracy:.3f}   macro-F1 {result.mean_macro.f1:.3f}")
    if result.warnings:
        for line in result.warnings:
            print(f"    warning: {line}")
print()

# ---------------------------------------------------------------------------
# 6. The per-fold detail is kept, not just the aggregate. Spread across
#    folds is the honest error bar resubstitution hides.
result = cross_validate(trainers["naive bayes"], training, k=4, seed=0)
for fold in result.folds:
    print(f"  fold {fold.fold}: n_test={fold.n_test} "
          f"accuracy={fold.accuracy:.3f} macro_f1={fold.macro.f1:.3f}")
