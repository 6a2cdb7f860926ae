"""End-to-end runs: config loading, the fixed processing stages, and the
report bundle.

A run is described by one JSON config file (plus command-line overrides)
and proceeds through a fixed, logged stage order: ingest, clean, label,
featurize, train, evaluate, report.  Every artefact a run writes is listed
in ``manifest.json`` with a content hash, and the whole bundle is built in
memory first so a failing run leaves no partial output behind.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import io
import json
import logging
import math
import types
import typing
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

from .corpus import (
    CleanDocument,
    HourHistogram,
    clean_corpus,
    hourly_histogram,
    load_corpus,
    load_stopwords,
)
from .evaluation import CVResult, cross_validate
from .exceptions import ConfigError, DataError, TweetsentError
from .features import (
    COUNTS,
    TFIDF,
    DocTermMatrix,
    build_count_matrix,
    build_vocabulary,
    tfidf_transform,
)
from .lexicon import CANONICAL_LABELS, Lexicon, label_corpus, load_lexicon
from .models import (
    Model,
    TrainingSet,
    train_bagging,
    train_decision_tree,
    train_linear_svm,
    train_maxent,
    train_naive_bayes,
    train_random_forest,
)

logger = logging.getLogger(__name__)

MODEL_ORDER = (
    "naive_bayes", "svm", "maxent", "decision_tree", "random_forest", "bagging",
)

DISPLAY_NAMES = {
    "naive_bayes": "Naive Bayes",
    "svm": "SVM",
    "maxent": "MaxEnt",
    "decision_tree": "Decision Tree",
    "random_forest": "Random Forest",
    "bagging": "Bagging",
}

# Count features suit the multinomial and tree models; the margin-based
# models train on TF-IDF.
DEFAULT_WEIGHTING = {
    "naive_bayes": COUNTS,
    "svm": TFIDF,
    "maxent": TFIDF,
    "decision_tree": COUNTS,
    "random_forest": COUNTS,
    "bagging": COUNTS,
}

# Only the values that differ from the trainers' own defaults.
DEFAULT_HYPER: dict[str, dict] = {"maxent": {"epochs": 300}}

_TRAINERS: dict[str, Callable[..., Model]] = {
    "naive_bayes": train_naive_bayes,
    "svm": train_linear_svm,
    "maxent": train_maxent,
    "decision_tree": train_decision_tree,
    "random_forest": train_random_forest,
    "bagging": train_bagging,
}

_CONFIG_KEYS = frozenset(
    {
        "topics", "lexicon", "stopwords", "seed", "folds", "min_df",
        "models", "weighting", "hyperparameters", "out_dir",
    }
)


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved pipeline run description."""

    topics: tuple[tuple[str, Path], ...]
    lexicon: Path
    out_dir: Path
    stopwords: Path | None = None
    seed: int = 42
    folds: int = 4
    min_df: int = 1
    models: tuple[str, ...] = MODEL_ORDER
    weighting: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_WEIGHTING))
    hyperparameters: Mapping[str, Mapping] = field(default_factory=dict)

    def topic_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.topics)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def validate_config(config: RunConfig) -> RunConfig:
    _expect(1 <= len(config.topics) <= 2, f"config must name 1 or 2 topics, got {len(config.topics)}")
    names = config.topic_names()
    _expect(len(set(names)) == len(names), f"duplicate topic name in {names}")
    _expect(config.folds >= 2, f"folds must be at least 2, got {config.folds}")
    _expect(config.min_df >= 1, f"min_df must be at least 1, got {config.min_df}")
    _expect(config.seed >= 0, f"seed must be non-negative, got {config.seed}")
    _expect(len(config.models) > 0, "no models selected")
    for key in config.models:
        _expect(key in MODEL_ORDER, f"unknown model {key!r}; choose from {', '.join(MODEL_ORDER)}")
    for key, value in config.weighting.items():
        _expect(key in MODEL_ORDER, f"weighting given for unknown model {key!r}")
        _expect(value in (COUNTS, TFIDF), f"weighting for {key} must be '{COUNTS}' or '{TFIDF}', got {value!r}")
    for key, values in config.hyperparameters.items():
        _expect(key in MODEL_ORDER, f"hyperparameters given for unknown model {key!r}")
        _expect(
            isinstance(values, Mapping),
            f"hyperparameters for {key} must be an object, got {values!r}",
        )

    for name, path in config.topics:
        _expect(path.is_file(), f"corpus file for topic {name!r} does not exist: {path}")
    _expect(config.lexicon.is_file(), f"lexicon file does not exist: {config.lexicon}")
    if config.stopwords is not None:
        _expect(config.stopwords.is_file(), f"stopwords file does not exist: {config.stopwords}")

    # Surface bad hyperparameter names now rather than as a TypeError
    # deep inside a cross-validation fold.
    for key in config.models:
        try:
            trainer_for(key, config)
        except TypeError as exc:
            raise ConfigError(f"hyperparameters for {key}: {exc}") from exc
        hints = typing.get_type_hints(_TRAINERS[key])
        for name, value in config.hyperparameters.get(key, {}).items():
            allowed = _allowed_types(hints[name])
            _expect(
                _has_type(value, allowed),
                f"hyperparameters for {key}: {name!r} must be "
                f"{' or '.join('finite float' if t is float else t.__name__ for t in allowed)}, "
                f"got {value!r}",
            )
    return config


def _allowed_types(hint) -> tuple[type, ...]:
    """The plain types a trainer annotation admits (``int | None`` -> both)."""
    if isinstance(hint, types.UnionType) or typing.get_origin(hint) is typing.Union:
        return typing.get_args(hint)
    return (hint,)


def _has_type(value, allowed: tuple[type, ...]) -> bool:
    """JSON-value type check: bool is no int, an int is a valid float, and
    NaN or an infinity (which JSON parsing admits) is no valid float."""
    if isinstance(value, bool):
        return bool in allowed
    if isinstance(value, float) and not math.isfinite(value):
        return False
    if isinstance(value, int) and float in allowed:
        return True
    return any(isinstance(value, t) for t in allowed if t is not bool)


def load_config(
    path: str | Path,
    *,
    seed: int | None = None,
    folds: int | None = None,
    min_df: int | None = None,
    lexicon: str | None = None,
    stopwords: str | None = None,
    out_dir: str | None = None,
    models: str | None = None,
) -> RunConfig:
    """Read a JSON config file and apply command-line overrides (flags win).

    Relative paths inside the file resolve against the file's directory;
    override paths resolve against the working directory.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s): {', '.join(unknown)}")

    base = path.parent
    topics_raw = raw.get("topics")
    if not isinstance(topics_raw, dict) or not topics_raw:
        raise ConfigError(f"{path}: 'topics' must map topic names to corpus paths")
    topics = tuple((str(t), base / str(p)) for t, p in topics_raw.items())

    if "lexicon" not in raw:
        raise ConfigError(f"{path}: 'lexicon' is required")

    model_selection: tuple[str, ...] = MODEL_ORDER
    if "models" in raw:
        listed = raw["models"]
        if not isinstance(listed, list):
            raise ConfigError(f"{path}: 'models' must be a list")
        model_selection = _parse_model_selection([str(m) for m in listed])

    for key in ("weighting", "hyperparameters"):
        if not isinstance(raw.get(key, {}), dict):
            raise ConfigError(f"{path}: '{key}' must be a JSON object, got {raw[key]!r}")
    weighting = dict(DEFAULT_WEIGHTING)
    weighting.update({str(k): str(v) for k, v in raw.get("weighting", {}).items()})

    # Absent keys keep RunConfig's defaults.
    integers = {key: raw[key] for key in ("seed", "folds", "min_df") if key in raw}
    for key, value in integers.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: '{key}' must be an integer, got {value!r}")
    config = RunConfig(
        topics=topics,
        lexicon=base / str(raw["lexicon"]),
        stopwords=(base / str(raw["stopwords"])) if raw.get("stopwords") else None,
        out_dir=base / str(raw.get("out_dir", "report")),
        **integers,
        models=model_selection,
        weighting=weighting,
        hyperparameters={str(k): v for k, v in raw.get("hyperparameters", {}).items()},
    )

    overrides: dict = {}
    if seed is not None:
        overrides["seed"] = seed
    if folds is not None:
        overrides["folds"] = folds
    if min_df is not None:
        overrides["min_df"] = min_df
    if lexicon is not None:
        overrides["lexicon"] = Path(lexicon)
    if stopwords is not None:
        overrides["stopwords"] = Path(stopwords)
    if out_dir is not None:
        overrides["out_dir"] = Path(out_dir)
    if models is not None:
        overrides["models"] = _parse_model_selection(models.split(","))
    if overrides:
        config = replace(config, **overrides)
    return validate_config(config)


def _parse_model_selection(names: list[str]) -> tuple[str, ...]:
    cleaned = [n.strip() for n in names if n.strip()]
    if not cleaned:
        raise ConfigError("no models selected")
    if cleaned == ["all"]:
        return MODEL_ORDER
    for name in cleaned:
        if name not in MODEL_ORDER:
            raise ConfigError(
                f"unknown model {name!r}; choose from {', '.join(MODEL_ORDER)} or 'all'"
            )
    # Keep registry order regardless of how the selection was spelled.
    return tuple(key for key in MODEL_ORDER if key in cleaned)


def trainer_for(key: str, config: RunConfig) -> Callable[[TrainingSet], Model]:
    """A no-argument-but-data trainer for ``key`` with hyperparameters bound."""
    trainer = _TRAINERS[key]
    kwargs = dict(DEFAULT_HYPER.get(key, {}))
    kwargs.update(config.hyperparameters.get(key, {}))
    signature = inspect.signature(trainer)
    if "seed" in signature.parameters:
        kwargs.setdefault("seed", config.seed)
    signature.bind_partial(**kwargs)
    return partial(trainer, **kwargs)


@contextmanager
def _errors_of(name: str) -> Iterator[None]:
    """Prefix the message of a package error raised inside with ``name``."""
    try:
        yield
    except TweetsentError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


@contextmanager
def _stage(name: str) -> Iterator[None]:
    logger.info("pipeline stage: %s", name)
    with _errors_of(name):
        yield


@dataclass(frozen=True)
class TopicData:
    """Everything derived from one topic's corpus before modelling."""

    topic: str
    documents: tuple[CleanDocument, ...]
    labels: tuple
    scores: tuple[float, ...]
    distribution: dict
    hourly: HourHistogram
    matrices: dict[str, DocTermMatrix]

    def training_set(self, weighting: str) -> TrainingSet:
        return TrainingSet(matrix=self.matrices[weighting], labels=self.labels)


@dataclass(frozen=True)
class ModelReport:
    """One row of a topic's metric table (values are fractions, not %)."""

    key: str
    display_name: str
    precision: float
    recall: float
    fscore: float
    cross_validate: float
    cross_validate_std: float


@dataclass(frozen=True)
class TopicReport:
    """Per-topic summary: sentiment distribution, hourly activity, metrics."""

    topic: str
    n_documents: int
    distribution: dict
    hourly: tuple[int, ...]
    models: tuple[ModelReport, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if sum(self.distribution.values()) != self.n_documents:
            raise ValueError("sentiment distribution does not sum to document count")


@dataclass(frozen=True)
class RunResult:
    reports: tuple[TopicReport, ...]
    comparison: dict | None
    out_dir: Path
    manifest: dict


def _load_topic(name: str, path: Path, lexicon: Lexicon, stopwords, min_df: int) -> TopicData:
    with _stage("ingest"):
        tweets = load_corpus(path)
        kept = [t for t in tweets if t.topic == name]
        if len(kept) != len(tweets):
            logger.warning(
                "corpus %s: ignoring %d documents whose topic is not %r",
                path, len(tweets) - len(kept), name,
            )
        if not kept:
            raise DataError(f"{path} contains no documents with topic {name!r}")
    with _stage("clean"):
        documents = tuple(clean_corpus(kept, stopwords))
    with _stage("label"):
        labeled, counts = label_corpus(lexicon, documents)
        labels = tuple(item.label for item in labeled)
        scores = tuple(item.score for item in labeled)
        distribution = {label.tag: counts[label] for label in CANONICAL_LABELS}
    with _stage("featurize"):
        tokens = [doc.tokens for doc in documents]
        vocab = build_vocabulary(tokens, min_df=min_df)
        count_matrix = build_count_matrix(vocab, tokens)
        matrices = {COUNTS: count_matrix, TFIDF: tfidf_transform(count_matrix)}
    return TopicData(
        topic=name,
        documents=documents,
        labels=labels,
        scores=scores,
        distribution=distribution,
        hourly=hourly_histogram(documents),
        matrices=matrices,
    )


def load_topic_data(config: RunConfig) -> list[TopicData]:
    """Run the data stages (ingest through featurize) for every topic."""
    # Part of every topic's ingest stage, which logs once per topic.
    with _errors_of("ingest"):
        lexicon = load_lexicon(config.lexicon)
        stopwords = load_stopwords(config.stopwords)
    topics = []
    for name, path in config.topics:
        data = _load_topic(name, path, lexicon, stopwords, config.min_df)
        if len(data.documents) < config.folds:
            raise DataError(
                f"{path}: topic {name!r} has {len(data.documents)} documents, "
                f"too few for 'folds' = {config.folds}"
            )
        topics.append(data)
    return topics


def train_topic_models(config: RunConfig, data: TopicData) -> dict[str, Model]:
    """Fit every selected model on the topic's full training set."""
    with _stage("train"):
        fitted = {}
        for key in config.models:
            training = data.training_set(config.weighting[key])
            fitted[key] = trainer_for(key, config)(training)
            logger.info("trained %s on topic %s", key, data.topic)
        return fitted


def evaluate_topic(config: RunConfig, data: TopicData) -> TopicReport:
    """Cross-validate every selected model and assemble the topic report."""
    with _stage("evaluate"):
        rows = []
        warnings: list[str] = []
        for key in config.models:
            training = data.training_set(config.weighting[key])
            cv: CVResult = cross_validate(
                trainer_for(key, config), training, k=config.folds, seed=config.seed
            )
            rows.append(
                ModelReport(
                    key=key,
                    display_name=DISPLAY_NAMES[key],
                    precision=cv.mean_macro.precision,
                    recall=cv.mean_macro.recall,
                    fscore=cv.mean_macro.f1,
                    cross_validate=cv.mean_accuracy,
                    cross_validate_std=cv.std_accuracy,
                )
            )
            warnings.extend(f"{key}: {w}" for w in cv.warnings)
        return TopicReport(
            topic=data.topic,
            n_documents=len(data.documents),
            distribution=data.distribution,
            hourly=data.hourly.bins,
            models=tuple(rows),
            warnings=tuple(warnings),
        )


def compare_topics(a: TopicReport, b: TopicReport) -> dict:
    """Side-by-side summary of two topic reports.

    Presents distributions, shares, ratios, and per-model metric deltas
    (second topic minus first); deliberately computes no overall winner.
    """
    def shares(report: TopicReport) -> dict:
        return {
            tag: count / report.n_documents
            for tag, count in report.distribution.items()
        }

    def ratio(report: TopicReport) -> float | None:
        negative = report.distribution["negative"]
        if negative == 0:
            return None
        return report.distribution["positive"] / negative

    metrics_a = {row.key: row for row in a.models}
    metrics_b = {row.key: row for row in b.models}
    if set(metrics_a) != set(metrics_b):
        raise ValueError("topic reports cover different model sets")
    deltas = {
        key: {
            "precision": metrics_b[key].precision - metrics_a[key].precision,
            "recall": metrics_b[key].recall - metrics_a[key].recall,
            "fscore": metrics_b[key].fscore - metrics_a[key].fscore,
            "cross_validate": metrics_b[key].cross_validate - metrics_a[key].cross_validate,
        }
        for key in metrics_a
    }
    return {
        "topics": [a.topic, b.topic],
        "documents": {a.topic: a.n_documents, b.topic: b.n_documents},
        "distribution": {a.topic: a.distribution, b.topic: b.distribution},
        "shares": {a.topic: shares(a), b.topic: shares(b)},
        "positive_negative_ratio": {a.topic: ratio(a), b.topic: ratio(b)},
        "metric_deltas": deltas,
        "note": (
            "figures are presented side by side; no overall verdict is computed"
        ),
    }


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, ensure_ascii=False, indent=1, sort_keys=True) + "\n").encode("utf-8")


def percent(value: float) -> str:
    """A fraction as a percentage with two decimals, as every table prints it."""
    return f"{100 * value:.2f}"


def metrics_csv_rows(report: TopicReport) -> list[list[str]]:
    """Metric table rows as percentages with two decimals."""
    return [
        [row.display_name, *map(percent, (row.precision, row.recall, row.fscore, row.cross_validate))]
        for row in report.models
    ]


def report_json(report: TopicReport) -> dict:
    """A topic report as plain JSON data; its ``models`` rows are the metric table."""
    return {
        "topic": report.topic,
        "documents": report.n_documents,
        "distribution": report.distribution,
        "hourly": list(report.hourly),
        "models": [
            {
                "model": row.key,
                "display_name": row.display_name,
                "precision": row.precision,
                "recall": row.recall,
                "fscore": row.fscore,
                "cross_validate": row.cross_validate,
                "cross_validate_std": row.cross_validate_std,
            }
            for row in report.models
        ],
        "warnings": list(report.warnings),
    }


def build_bundle(config: RunConfig, reports: tuple[TopicReport, ...]) -> tuple[dict[str, bytes], dict]:
    """Assemble every report file in memory; returns (files, manifest)."""
    files: dict[str, bytes] = {}
    for report in reports:
        files[f"metrics_{report.topic}.csv"] = _csv_bytes(
            ["Algorithm", "Precision", "Recall", "Fscore", "CrossValidate"],
            metrics_csv_rows(report),
        )
        files[f"distribution_{report.topic}.json"] = _json_bytes(
            {
                "topic": report.topic,
                "documents": report.n_documents,
                "counts": report.distribution,
                "shares": {
                    tag: count / report.n_documents
                    for tag, count in report.distribution.items()
                },
            }
        )
        files[f"hourly_{report.topic}.csv"] = _csv_bytes(
            ["hour", "count"],
            [[str(hour), str(count)] for hour, count in enumerate(report.hourly)],
        )
        files[f"report_{report.topic}.json"] = _json_bytes(report_json(report))

    comparison = None
    if len(reports) == 2:
        comparison = compare_topics(reports[0], reports[1])
        files["comparison.json"] = _json_bytes(comparison)

    manifest = {
        "format_version": 1,
        "run": {
            "topics": list(config.topic_names()),
            "seed": config.seed,
            "folds": config.folds,
            "min_df": config.min_df,
            "models": list(config.models),
            "weighting": {key: config.weighting[key] for key in config.models},
        },
        "files": {
            name: {
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
            for name, data in files.items()
        },
    }
    files["manifest.json"] = _json_bytes(manifest)
    return files, manifest


def write_bundle(out_dir: Path, files: dict[str, bytes]) -> None:
    """Flush an in-memory bundle to disk, removing everything on failure."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, data in files.items():
            target = out_dir / name
            target.write_bytes(data)
            written.append(target)
    except BaseException:
        for target in written:
            target.unlink(missing_ok=True)
        raise


def run_pipeline(config: RunConfig) -> RunResult:
    """Execute the full pipeline and write the report bundle.

    Deterministic given the config and seed: rerunning writes byte-identical
    files, and the manifest records each one's SHA-256.
    """
    validate_config(config)
    topic_data = load_topic_data(config)
    for data in topic_data:
        train_topic_models(config, data)
    reports = tuple(evaluate_topic(config, data) for data in topic_data)
    with _stage("report"):
        files, manifest = build_bundle(config, reports)
        write_bundle(config.out_dir, files)
    comparison = compare_topics(reports[0], reports[1]) if len(reports) == 2 else None
    return RunResult(
        reports=reports, comparison=comparison, out_dir=config.out_dir, manifest=manifest
    )
