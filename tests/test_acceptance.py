"""Top-level acceptance gate: eight checks, one printed verdict line each.

Each test prints ``[criterion N] <name>: PASS`` (or FAIL with details)
straight to the terminal, bypassing pytest's capture, so a plain test run
shows every gate's verdict.  The checks pin down, in order: the F1
arithmetic against fixed reference rows, two brute-force oracles (Bayes
posteriors and tree splits), the MaxEnt gradient, model quality on the
bundled demo corpus, bundle determinism, ensemble degeneracy identities,
and the invariant property suites.
"""

import time

import numpy as np
import pytest

from tweetsent.corpus import clean_text
from tweetsent.datagen import make_toy_training_set, write_demo_data
from tweetsent.evaluation import f1_from_precision_recall, k_fold_split
from tweetsent.features import idf
from tweetsent.lexicon import label_corpus
from tweetsent.models import (
    train_bagging,
    train_decision_tree,
    train_maxent,
    train_naive_bayes,
    train_random_forest,
)
from tweetsent.pipeline import load_config, run_pipeline

from conftest import DEMO_DIR, one_row
from test_ensemble import random_training_set, same_tree
from test_linear import _max_relative_gradient_error
from test_naive_bayes import _grid_cases, _oracle_posteriors, _training_set
from test_properties import fuzz_strings, kfold_grid, random_lexicon_case
from test_tree import (
    enumerate_weighted_ginis,
    grow,
    is_leaf,
    weighted_gini_of_split,
)

# A printed F-score counts as consistent when the recomputed value lands
# within half a percentage point (the resolution of whole-percent rounding).
F1_TOLERANCE = 0.5 + 1e-9

# Reference rows: (algorithm, precision %, recall %, printed F-score %).
# The arithmetic must reproduce every consistent row...
CONSISTENT_REFERENCE_ROWS = [
    ("SVM/a", 50.0, 33.0, 40.0),
    ("MaxEnt/a", 50.0, 22.0, 31.0),
    ("Decision Tree/a", 80.0, 44.0, 57.0),
    ("Random Forest/a", 33.0, 11.0, 16.0),
    ("Bagging/a", 50.0, 33.0, 40.0),
    ("SVM/b", 67.0, 67.0, 67.0),
    ("MaxEnt/b", 58.0, 78.0, 67.0),
    ("Decision Tree/b", 55.0, 67.0, 60.0),
    ("Random Forest/b", 62.0, 89.0, 73.0),
    ("Bagging/b", 70.0, 78.0, 74.0),
]
# ...and flag these two rows, whose printed F-scores do not follow from
# their own precision and recall; they are excluded everywhere else.
INCONSISTENT_REFERENCE_ROWS = [
    ("Naive Bayes/a", 63.0, 56.0, 51.0),
    ("Naive Bayes/b", 41.0, 37.0, 55.0),
]


@pytest.fixture
def announce(capsys):
    """Print one uncaptured verdict line for an acceptance criterion."""

    def _announce(number: int, name: str, passed: bool, detail: str = "") -> None:
        verdict = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[criterion {number}] {name}: {verdict}{suffix}")

    return _announce


def test_criterion_1_f1_formula_reproduces_reference_rows(announce):
    """Harmonic-mean F1 matches every consistent reference row to 0.5pp
    and exposes the two internally inconsistent rows."""
    failures = []
    for name, precision, recall, printed in CONSISTENT_REFERENCE_ROWS:
        computed = f1_from_precision_recall(precision, recall)
        if abs(computed - printed) > F1_TOLERANCE:
            failures.append(
                f"{name}: computed {computed:.2f} vs printed {printed:.0f}"
            )
    for name, precision, recall, printed in INCONSISTENT_REFERENCE_ROWS:
        computed = f1_from_precision_recall(precision, recall)
        if abs(computed - printed) <= F1_TOLERANCE:
            failures.append(
                f"{name}: printed {printed:.0f} unexpectedly consistent "
                f"(computed {computed:.2f})"
            )
    announce(
        1,
        "F1 arithmetic vs reference rows",
        not failures,
        f"{len(CONSISTENT_REFERENCE_ROWS)} consistent + "
        f"{len(INCONSISTENT_REFERENCE_ROWS)} flagged rows",
    )
    assert not failures, "\n".join(failures)


def test_criterion_2_exact_posterior_oracle(announce):
    """Trained posteriors equal rational Bayes arithmetic on an exhaustive
    grid of tiny corpora (<= 5 docs, <= 4 terms, 2-3 classes)."""
    started = time.perf_counter()
    n_cases = 0
    worst = 0.0
    failures = []
    for count_rows, labels in _grid_cases():
        training = _training_set(count_rows, labels)
        model = train_naive_bayes(training)
        n_cases += 1
        for query in set(count_rows):
            classes, expected = _oracle_posteriors(count_rows, labels, query)
            cols = np.array([j for j, c in enumerate(query) if c], dtype=np.int64)
            weights = np.array([c for c in query if c], dtype=np.float64)
            scores = model.predict(one_row(model, cols, weights)).scores
            for cls, exact in zip(classes, expected):
                gap = abs(scores[cls] - float(exact))
                worst = max(worst, gap)
                if gap > 1e-9:
                    failures.append(
                        f"corpus {count_rows} labels {labels} query {query}: "
                        f"posterior off by {gap:.3e}"
                    )
    elapsed = time.perf_counter() - started
    if n_cases < 200:
        failures.append(f"grid produced only {n_cases} cases (need >= 200)")
    if elapsed >= 10.0:
        failures.append(f"oracle took {elapsed:.1f}s (budget 10s)")
    announce(
        2,
        "exact posterior oracle",
        not failures,
        f"{n_cases} corpora, worst gap {worst:.1e}, {elapsed:.1f}s",
    )
    assert not failures, "\n".join(failures[:10])


def test_criterion_3_split_enumeration_oracle(announce):
    """The root split of 100 random 8-doc, 3-term datasets achieves the
    minimum weighted Gini over all enumerated candidates."""
    started = time.perf_counter()
    rng = np.random.default_rng(1905)
    failures = []
    splits_checked = 0
    for case in range(100):
        x = rng.integers(0, 4, size=(8, 3)).astype(np.float64)
        y = rng.integers(0, 3, size=8)
        while np.unique(y).size < 2:
            y = rng.integers(0, 3, size=8)
        tree = grow(x, y, 3)
        candidates = enumerate_weighted_ginis(x, y, 3)
        if not candidates:
            if not is_leaf(tree):
                failures.append(f"case {case}: split with no candidates")
            continue
        splits_checked += 1
        if is_leaf(tree):
            failures.append(f"case {case}: leaf despite candidate splits")
            continue
        achieved = weighted_gini_of_split(x, y, 3, tree.column[0], tree.threshold[0])
        best = min(w for w, _, _ in candidates)
        if abs(achieved - best) > 1e-12:
            failures.append(
                f"case {case}: achieved {achieved:.12f} vs best {best:.12f}"
            )
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"oracle took {elapsed:.1f}s (budget 10s)")
    announce(
        3,
        "split enumeration oracle",
        not failures,
        f"100 datasets ({splits_checked} with admissible splits), {elapsed:.1f}s",
    )
    assert not failures, "\n".join(failures[:10])


def test_criterion_4_gradient_check_and_descent(announce):
    """The analytic log-loss gradient matches central differences at 20
    random points (h=1e-5, worst relative error < 1e-4), and the descent
    trace at eta=0.1 on the bundled toy corpus never rises."""
    failures = []
    training = make_toy_training_set()
    x_dense = training.matrix.toarray()
    y = training.y()
    n_classes = len(training.classes)
    n_terms = training.matrix.n_terms

    rng = np.random.default_rng(20240501)
    lams = (0.0, 1e-3, 0.1)
    worst = 0.0
    for point in range(20):
        weights = rng.normal(scale=0.7, size=(n_classes, n_terms))
        bias = rng.normal(scale=0.7, size=n_classes)
        worst = max(
            worst,
            _max_relative_gradient_error(
                x_dense, y, weights, bias, lams[point % len(lams)], h=1e-5
            ),
        )
    if worst >= 1e-4:
        failures.append(f"worst relative gradient error {worst:.3e} >= 1e-4")

    model = train_maxent(training, eta=0.1, epochs=500)
    trace = np.array(model.loss_trace)
    rises = np.diff(trace) > 1e-12
    if rises.any():
        failures.append(
            f"loss trace rises at epoch(s) {np.nonzero(rises)[0] + 1}"
        )
    announce(
        4,
        "gradient check and descent trace",
        not failures,
        f"worst gradient error {worst:.1e}, {trace.size - 1} epochs non-increasing",
    )
    assert not failures, "\n".join(failures)


def test_criterion_5_demo_corpus_model_quality(announce, tmp_path):
    """On the bundled seed-fixed two-topic corpus, every model reaches
    4-fold CV macro-F1 >= 0.90 and the probabilistic/margin models reach
    >= 0.95, inside a 60 s budget for the whole pipeline."""
    failures = []
    scores = {}
    elapsed = float("nan")
    try:
        config = load_config(DEMO_DIR / "config.json", out_dir=str(tmp_path / "out"))
        if config.folds != 4:
            failures.append(f"demo config folds={config.folds}, expected 4")
        started = time.perf_counter()
        result = run_pipeline(config)
        elapsed = time.perf_counter() - started
        for report in result.reports:
            for row in report.models:
                scores[f"{row.model}@{report.topic}"] = row.fscore
                floor = 0.95 if row.model in ("naive_bayes", "svm", "maxent") else 0.90
                if row.fscore < floor:
                    failures.append(
                        f"{row.model} on {report.topic}: macro-F1 "
                        f"{row.fscore:.4f} < {floor}"
                    )
        if elapsed >= 60.0:
            failures.append(f"pipeline took {elapsed:.1f}s (budget 60s)")
        if len(scores) != 12:
            failures.append(f"expected 6 models x 2 topics, got {len(scores)} rows")
    except Exception as exc:  # a crash must still yield a verdict line
        failures.append(f"pipeline raised {type(exc).__name__}: {exc}")
    lowest = min(scores.values()) if scores else float("nan")
    announce(
        5,
        "demo corpus model quality",
        not failures,
        f"lowest macro-F1 {lowest:.4f}, pipeline {elapsed:.1f}s",
    )
    assert not failures, "\n".join(failures)


def test_criterion_6_deterministic_report_bundles(announce, tmp_path):
    """Two pipeline invocations with the same config and seed write
    byte-identical bundles, with both ensembles included."""
    failures = []
    compared = 0
    try:
        data_dir = tmp_path / "data"
        write_demo_data(data_dir, seed=42, docs_per_topic=120)
        first = load_config(data_dir / "config.json", out_dir=str(tmp_path / "one"))
        second = load_config(data_dir / "config.json", out_dir=str(tmp_path / "two"))
        for kind in ("random_forest", "bagging"):
            if kind not in first.models:
                failures.append(f"run does not include the {kind} ensemble")
        run_pipeline(first)
        run_pipeline(second)
        names_one = sorted(p.name for p in first.out_dir.iterdir())
        names_two = sorted(p.name for p in second.out_dir.iterdir())
        if names_one != names_two:
            failures.append(f"bundle file sets differ: {names_one} vs {names_two}")
        for name in names_one:
            compared += 1
            if (first.out_dir / name).read_bytes() != (second.out_dir / name).read_bytes():
                failures.append(f"{name} differs between runs")
    except Exception as exc:
        failures.append(f"pipeline raised {type(exc).__name__}: {exc}")
    announce(
        6,
        "deterministic report bundles",
        not failures,
        f"{compared} files byte-identical",
    )
    assert not failures, "\n".join(failures)


def test_criterion_7_ensemble_degeneracy_identities(announce):
    """A single-member ensemble with bootstrap off (and, for the forest, a
    full column budget) predicts identically to the plain tree on 100
    random datasets."""
    failures = []
    rng = np.random.default_rng(77)
    for case in range(100):
        n_docs = int(rng.integers(6, 16))
        n_terms = int(rng.integers(2, 6))
        training = random_training_set(rng, n_docs=n_docs, n_terms=n_terms)
        plain = train_decision_tree(training)
        forest = train_random_forest(
            training,
            n_members=1,
            bootstrap=False,
            n_features_per_split=training.matrix.n_terms,
            seed=case,
        )
        bagged = train_bagging(training, n_members=1, bootstrap=False, seed=case)
        if not same_tree(plain.trees[0], forest.trees[0]):
            failures.append(f"case {case}: forest tree differs structurally")
        if not same_tree(plain.trees[0], bagged.trees[0]):
            failures.append(f"case {case}: bagged tree differs structurally")
        for i in range(training.n_docs):
            vec = training.matrix.row(i)
            want = plain.predict(vec).label
            if forest.predict(vec).label is not want:
                failures.append(f"case {case} row {i}: forest prediction differs")
            if bagged.predict(vec).label is not want:
                failures.append(f"case {case} row {i}: bagging prediction differs")
    announce(
        7,
        "ensemble degeneracy identities",
        not failures,
        "100 random datasets, structure and predictions identical",
    )
    assert not failures, "\n".join(failures[:10])


def test_criterion_8_property_suites(announce):
    """The four invariant families hold: lexicon scale invariance,
    k-fold partition laws, idf monotonicity, and cleaning idempotence."""
    failures = []

    rng = np.random.default_rng(2718)
    lexicon, documents = random_lexicon_case(rng, n_documents=200)
    for factor in (0.5, 2.0, 10.0):
        scaled = {tok: factor * w for tok, w in lexicon.items()}
        labels, _ = label_corpus(lexicon, documents)
        scaled_labels, _ = label_corpus(scaled, documents)
        for tokens, label, scaled_label in zip(documents, labels, scaled_labels, strict=True):
            if scaled_label is not label:
                failures.append(
                    f"scale {factor}: label changed on {tokens!r}"
                )
                break

    for n_docs, k in kfold_grid():
        splits = k_fold_split(n_docs, k, seed=n_docs * 10 + k)
        all_test = np.sort(np.concatenate([test for _, test in splits]))
        if not np.array_equal(all_test, np.arange(n_docs)):
            failures.append(f"k-fold n={n_docs} k={k}: folds do not partition")
        sizes = [test.size for _, test in splits]
        if max(sizes) - min(sizes) > 1:
            failures.append(f"k-fold n={n_docs} k={k}: fold sizes {sizes}")
        for train, test in splits:
            if np.intersect1d(train, test).size:
                failures.append(f"k-fold n={n_docs} k={k}: overlap")

    for n_docs in range(1, 41):
        values = [idf(n_docs, df) for df in range(1, n_docs + 1)]
        if not all(a > b for a, b in zip(values, values[1:])):
            failures.append(f"idf not strictly decreasing at n={n_docs}")

    fuzzed = 0
    for raw in fuzz_strings(1000):
        fuzzed += 1
        once = clean_text(raw)
        if clean_text(once) != once:
            failures.append(f"cleaning not idempotent on {raw!r}")
    if fuzzed != 1000:
        failures.append(f"fuzz corpus produced {fuzzed} strings, expected 1000")

    announce(
        8,
        "property suites",
        not failures,
        "scale invariance, k-fold laws, idf monotonicity, 1000-string fuzz",
    )
    assert not failures, "\n".join(failures[:10])
