"""The benchmark's traced run: tweetsent's train, evaluate and report work in
one fresh interpreter, with spans around the calls into each module.

Usage: python3 perfbench/traced.py --config CONFIG --work DIR --out TRACE.json
(with the repository's ``src`` on PYTHONPATH).

Three phases run in order, each the in-process equivalent of one CLI
subcommand:

* ``train``    -- ``pipeline.load_topic_data`` and ``train_topic_models``,
  then ``save_model`` per model into ``DIR/models`` (as `tweetsent train`);
* ``evaluate`` -- ``load_model``, ``predict(row)`` over every document and
  the confusion matrix plus macro metrics (as `tweetsent evaluate`);
* ``report``   -- ``pipeline.run_pipeline`` writing ``DIR/report``.

The spans live here, not in the program: the pipeline's module-level names
are replaced by timing wrappers, so ``run_pipeline`` and its stages call the
wrapped functions.  Only calls the program keeps across refactors are
wrapped: the pipeline stage functions, the data-stage functions they call,
``trainer_for`` (whose trainers are timed as fits), ``cross_validate`` and
``TrainingSet.take``.  A per-layer metric is the sum of its spans within
one phase; ``pipeline.untraced_s`` is the report phase's time outside every
``pipeline.*`` stage span.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from functools import wraps
from pathlib import Path

MODEL_KEYS = ("naive_bayes", "svm", "maxent", "decision_tree", "random_forest", "bagging")

# Spans whose metric comes from the train or evaluate phase; every other
# span's metric comes from the report phase.
TRAIN_SPANS = {f"models.{key}.{op}" for key in MODEL_KEYS for op in ("fit", "save")}
EVALUATE_SPANS = {"evaluation.score"} | {
    f"models.{key}.{op}" for key in MODEL_KEYS for op in ("load", "predict")
}

# pipeline-module name -> span name
PIPELINE_WRAPS = {
    "load_corpus": "corpus.load",
    "load_stopwords": "corpus.load",
    "clean_corpus": "corpus.clean",
    "load_lexicon": "lexicon.load",
    "label_corpus": "lexicon.label",
    "build_vocabulary": "features.vocab",
    "tfidf_transform": "features.tfidf",
    "load_topic_data": "pipeline.load_topic_data",
    "train_topic_models": "pipeline.train_topic_models",
    "evaluate_topic": "pipeline.evaluate_topic",
    "build_bundle": "pipeline.build_bundle",
    "write_bundle": "pipeline.write_bundle",
}

SHAPE_COUNTS = ("features.docs", "features.terms", "features.nnz")

STAGE_SPANS = (
    "pipeline.load_topic_data", "pipeline.train_topic_models", "pipeline.evaluate_topic",
    "pipeline.build_bundle", "pipeline.write_bundle",
)

TIMED_SPANS = (
    "corpus.load", "corpus.clean", "lexicon.load", "lexicon.label",
    "features.vocab", "features.count_matrix", "features.tfidf", "features.take",
    *(f"models.{key}.{op}" for key in MODEL_KEYS for op in ("fit", "predict", "save", "load")),
    *(f"evaluation.{key}.cv" for key in MODEL_KEYS),
    "evaluation.score",
    *STAGE_SPANS,
)

EVALUATE_HEADER = ["topic", "model", "precision", "recall", "fscore", "accuracy"]


def layer_metric_names() -> list[str]:
    """Every per-layer metric this run reports, in print order."""
    return ["cli.import_s", *(f"{name}_s" for name in TIMED_SPANS), *SHAPE_COUNTS, "pipeline.untraced_s"]


class Tracer:
    """Nested spans kept in memory.  The outermost open span names the
    phase; a span's depth is 0 for the phase itself, 1 for its children."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, int, float]] = []  # (phase, name, depth, seconds)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.spans.append((self.phase or name, name, len(self._stack), elapsed))

    @property
    def phase(self) -> str | None:
        return self._stack[0] if self._stack else None

    def count(self, name: str, value: int) -> None:
        self.counts[(self.phase, name)] += value

    def wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def total(self, phase: str, name: str) -> float:
        return sum(s for p, n, _, s in self.spans if p == phase and n == name)

    def covered(self, phase: str) -> float:
        """Time of the phase's direct children."""
        return sum(s for p, _, depth, s in self.spans if p == phase and depth == 1)

    def occurred(self, phase: str, name: str) -> bool:
        return any(p == phase and n == name for p, n, _, _ in self.spans)


def instrument(tracer: Tracer) -> None:
    """Replace the pipeline's module-level calls with span-recording wrappers."""
    from tweetsent import pipeline
    from tweetsent.models import TrainingSet

    for attr, name in PIPELINE_WRAPS.items():
        setattr(pipeline, attr, tracer.wrap(name, getattr(pipeline, attr)))
    TrainingSet.take = tracer.wrap("features.take", TrainingSet.take)

    build_count_matrix = pipeline.build_count_matrix

    def traced_count_matrix(*args, **kwargs):
        with tracer.span("features.count_matrix"):
            matrix = build_count_matrix(*args, **kwargs)
        tracer.count("features.docs", matrix.n_docs)
        tracer.count("features.terms", matrix.n_terms)
        tracer.count("features.nnz", matrix.nnz)
        return matrix

    trainer_for = pipeline.trainer_for

    def traced_trainer_for(key, config):
        trainer = tracer.wrap(f"models.{key}.fit", trainer_for(key, config))
        trainer.model_key = key
        return trainer

    cross_validate = pipeline.cross_validate

    def traced_cross_validate(trainer, training, **kwargs):
        with tracer.span(f"evaluation.{trainer.model_key}.cv"):
            return cross_validate(trainer, training, **kwargs)

    pipeline.build_count_matrix = traced_count_matrix
    pipeline.trainer_for = traced_trainer_for
    pipeline.cross_validate = traced_cross_validate


def model_path(models_dir: Path, topic: str, key: str) -> Path:
    """Where `tweetsent train` saves a model, so the CLI can load it."""
    return models_dir / f"model_{topic}_{key}.json"


def run_phases(tracer: Tracer, config_path: Path, work: Path) -> str:
    """Run train, evaluate and report; returns the evaluate results as the
    CSV `tweetsent evaluate --format csv` prints."""
    from tweetsent import pipeline
    from tweetsent.evaluation import accuracy, confusion_matrix, macro_average, per_class_metrics
    from tweetsent.models import load_model, save_model

    config = pipeline.load_config(config_path)
    models_dir = work / "models"
    models_dir.mkdir(parents=True, exist_ok=True)

    with tracer.span("train"):
        for data in pipeline.load_topic_data(config):
            fitted = pipeline.train_topic_models(config, data)
            for key in config.models:
                with tracer.span(f"models.{key}.save"):
                    save_model(fitted[key], model_path(models_dir, data.topic, key))

    rows = []
    with tracer.span("evaluate"):
        for data in pipeline.load_topic_data(config):
            for key in config.models:
                with tracer.span(f"models.{key}.load"):
                    model = load_model(model_path(models_dir, data.topic, key))
                training = data.training_set(config.weighting[key])
                matrix = training.matrix
                with tracer.span(f"models.{key}.predict"):
                    predicted = [model.predict(matrix.row(i)).label for i in range(matrix.n_docs)]
                with tracer.span("evaluation.score"):
                    cm = confusion_matrix(list(training.labels), predicted, classes=training.classes)
                    macro = macro_average(per_class_metrics(cm))
                    acc = accuracy(cm)
                rows.append([data.topic, key, *(f"{100 * v:.2f}" for v in (macro.precision, macro.recall, macro.f1, acc))])

    with tracer.span("report"):
        pipeline.run_pipeline(replace(config, out_dir=work / "report"))

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(EVALUATE_HEADER)
    writer.writerows(rows)
    return buffer.getvalue()


def layer_metrics(tracer: Tracer, import_s: float) -> dict[str, float]:
    metrics = {"cli.import_s": import_s}
    for name in TIMED_SPANS:
        phase = "train" if name in TRAIN_SPANS else "evaluate" if name in EVALUATE_SPANS else "report"
        if not tracer.occurred(phase, name):
            raise RuntimeError(f"no {name!r} span in the {phase} phase; the traced call is gone")
        metrics[f"{name}_s"] = tracer.total(phase, name)
    for name in SHAPE_COUNTS:
        metrics[name] = tracer.counts[("report", name)]
    metrics["pipeline.untraced_s"] = tracer.total("report", "report") - tracer.covered("report")
    return {name: metrics[name] for name in layer_metric_names()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    # The import every CLI command pays, less the few stdlib modules this
    # script has already loaded.
    start = time.perf_counter()
    import tweetsent.cli  # noqa: F401
    import_s = time.perf_counter() - start

    tracer = Tracer()
    instrument(tracer)
    evaluate_csv = run_phases(tracer, args.config, args.work)
    phases = {
        phase: {"total_s": tracer.total(phase, phase), "covered_s": tracer.covered(phase)}
        for phase in ("train", "evaluate", "report")
    }
    args.out.write_text(
        json.dumps({"metrics": layer_metrics(tracer, import_s), "phases": phases, "evaluate_csv": evaluate_csv}),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
