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
import io
import json
import logging
import os
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from .corpus import (
    CleanDocument,
    clean_corpus,
    hourly_histogram,
    load_corpus,
    load_stopwords,
)
from .evaluation import CVResult, cross_validate
from .exceptions import ConfigError, DataError, errors_of, json_bytes, parse_json, read_input
from .features import (
    COUNTS,
    TFIDF,
    DocTermMatrix,
    build_count_matrix,
    build_vocabulary,
    tfidf_transform,
)
from .lexicon import CANONICAL_LABELS, label_corpus, load_lexicon
from .models import (
    BAGGING,
    DECISION_TREE,
    MAXENT,
    NAIVE_BAYES,
    RANDOM_FOREST,
    SVM,
    TRAINERS,
    Model,
    TrainingSet,
    hyperparameters,
)
from .models.base import has_json_type, validate_hyperparameters

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ModelSpec:
    """How the pipeline runs one model kind: the name its report rows show
    and the feature weighting it trains on unless the config says
    otherwise.  Its trainer is ``TRAINERS[kind]``, whose keyword-only
    parameters are the hyperparameters: its signature declares each one's
    type, default and range (:func:`~tweetsent.models.hyperparameters`
    reads them), and the model's ``hyper`` record holds their values."""

    display_name: str
    weighting: str


# Keyed by the ``model_kind`` of each model's files, in report order.
# Count features suit the multinomial and tree models; the margin-based
# models train on TF-IDF.
MODELS: Mapping[str, ModelSpec] = {
    NAIVE_BAYES: ModelSpec("Naive Bayes", COUNTS),
    SVM: ModelSpec("SVM", TFIDF),
    MAXENT: ModelSpec("MaxEnt", TFIDF),
    DECISION_TREE: ModelSpec("Decision Tree", COUNTS),
    RANDOM_FOREST: ModelSpec("Random Forest", COUNTS),
    BAGGING: ModelSpec("Bagging", COUNTS),
}
MODEL_ORDER = tuple(MODELS)
DEFAULT_WEIGHTING = {key: spec.weighting for key, spec in MODELS.items()}


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
    weighting: Mapping[str, str] = field(default_factory=dict)
    hyperparameters: Mapping[str, Mapping] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # A model the given weighting leaves out trains on its default one.
        object.__setattr__(self, "weighting", {**DEFAULT_WEIGHTING, **self.weighting})

    def topic_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.topics)


_CONFIG_KEYS = frozenset(f.name for f in fields(RunConfig))

# The most bytes a file name may hold on the common file systems.
_MAX_FILE_NAME_BYTES = 255


def model_filename(topic: str, key: str) -> str:
    """The file ``train`` saves topic ``topic``'s model of kind ``key`` to."""
    return f"model_{topic}_{key}.json"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def validate_config(config: RunConfig) -> RunConfig:
    _expect(1 <= len(config.topics) <= 2, f"config must name 1 or 2 topics, got {len(config.topics)}")
    names = config.topic_names()
    _expect(len(set(names)) == len(names), f"duplicate topic name in {names}")
    # Topic names become parts of file names (metrics_<topic>.csv, ...), of
    # which a model file's is the longest.
    for name in names:
        for char in ("/", os.sep, os.altsep, "\0"):
            _expect(
                char is None or char not in name,
                f"topic name {name!r} contains {char!r}, which no file name may hold",
            )
        longest = max(len(model_filename(name, key).encode()) for key in MODELS)
        _expect(
            longest <= _MAX_FILE_NAME_BYTES,
            f"topic name {name!r} is too long: its model file names take up to "
            f"{longest} bytes, over the {_MAX_FILE_NAME_BYTES} a file name may hold",
        )
    for key in ("seed", "folds", "min_df"):
        value = getattr(config, key)
        _expect(has_json_type(value, (int,)), f"'{key}' must be an integer, got {value!r}")
    _expect(config.folds >= 2, f"folds must be at least 2, got {config.folds}")
    _expect(config.min_df >= 1, f"min_df must be at least 1, got {config.min_df}")
    _expect(config.seed >= 0, f"seed must be non-negative, got {config.seed}")
    _expect(len(config.models) > 0, "no models selected")
    for key in config.models:
        _expect(key in MODELS, f"unknown model {key!r}; choose from {', '.join(MODELS)}")
    for key, value in config.weighting.items():
        _expect(key in MODELS, f"weighting given for unknown model {key!r}")
        _expect(value in (COUNTS, TFIDF), f"weighting for {key} must be '{COUNTS}' or '{TFIDF}', got {value!r}")
    for key, values in config.hyperparameters.items():
        _expect(key in MODELS, f"hyperparameters given for unknown model {key!r}")
        _expect(
            isinstance(values, Mapping),
            f"hyperparameters for {key} must be an object, got {values!r}",
        )
        with errors_of(f"hyperparameters for {key}"):
            validate_hyperparameters(TRAINERS[key], values)

    for name, path in config.topics:
        _expect(path.is_file(), f"corpus file for topic {name!r} does not exist: {path}")
    _expect(config.lexicon.is_file(), f"lexicon file does not exist: {config.lexicon}")
    if config.stopwords is not None:
        _expect(config.stopwords.is_file(), f"stopwords file does not exist: {config.stopwords}")
    return config


def _config_path(value, base: Path, where: str, *, nullable: bool = False) -> Path | None:
    """A config file's or a flag's path ``value`` resolved against ``base``,
    the file's directory or the working directory.  It must be a nonempty
    string, or null where ``nullable``: anything else (``""``, a number,
    ``false``) is an error naming ``where``, not a file named after it.
    No path may hold a NUL, which no file name can."""
    if nullable and value is None:
        return None
    if isinstance(value, str) and value:
        if "\0" in value:
            raise ConfigError(f"{where} contains '\\x00', which no path may hold, got {value!r}")
        return base / value
    wanted = "a path string or null" if nullable else "a path string"
    raise ConfigError(f"{where} must be {wanted}, got {value!r}")


# Each override load_config takes (a command-line flag), and how the value
# given becomes the config's.  Integers stay as given, so validate_config
# checks them as it checks the file's.
OVERRIDES: Mapping[str, Callable] = {
    **dict.fromkeys(("seed", "folds", "min_df"), lambda value: value),
    **{key: partial(_config_path, base=Path(), where=f"override {key!r}")
       for key in ("lexicon", "stopwords", "out_dir")},
    "models": lambda names: _parse_model_selection(names.split(",")),
}


def load_config(path: str | Path, **overrides) -> RunConfig:
    """Read a JSON config file and apply the command-line ``overrides``, each
    named in ``OVERRIDES`` (flags win; ``None`` leaves the file's value).

    Relative paths inside the file resolve against the file's directory;
    override paths resolve against the working directory.
    """
    if unexpected := overrides.keys() - OVERRIDES.keys():
        raise TypeError(f"load_config() got an unexpected keyword argument {min(unexpected)!r}")
    path = Path(path)
    text = read_input(path, ConfigError, "config file")
    base = path.parent
    with errors_of(path):
        raw = parse_json(text, ConfigError)
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(raw) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

        topics_raw = raw.get("topics")
        if not isinstance(topics_raw, dict) or not topics_raw:
            raise ConfigError("'topics' must map topic names to corpus paths")
        topics = tuple((t, _config_path(p, base, f"topic {t!r}")) for t, p in topics_raw.items())

        if "lexicon" not in raw:
            raise ConfigError("'lexicon' is required")

        model_selection: tuple[str, ...] = MODEL_ORDER
        if "models" in raw:
            listed = raw["models"]
            if not isinstance(listed, list):
                raise ConfigError("'models' must be a list")
            model_selection = _parse_model_selection([str(m) for m in listed])

        for key in ("weighting", "hyperparameters"):
            if not isinstance(raw.get(key, {}), dict):
                raise ConfigError(f"'{key}' must be a JSON object, got {raw[key]!r}")

        config = RunConfig(
            topics=topics,
            lexicon=_config_path(raw["lexicon"], base, "'lexicon'"),
            stopwords=_config_path(raw.get("stopwords"), base, "'stopwords'", nullable=True),
            out_dir=_config_path(raw.get("out_dir", "report"), base, "'out_dir'"),
            models=model_selection,
            # Absent keys keep RunConfig's defaults.
            **{key: raw[key] for key in ("seed", "folds", "min_df", "weighting", "hyperparameters") if key in raw},
        )
    flags = {key: OVERRIDES[key](overrides[key]) for key in OVERRIDES if overrides.get(key) is not None}
    return validate_config(replace(config, **flags))


def _parse_model_selection(names: list[str]) -> tuple[str, ...]:
    cleaned = [n.strip() for n in names if n.strip()]
    if not cleaned:
        raise ConfigError("no models selected")
    if "all" in cleaned:
        if set(cleaned) != {"all"}:
            raise ConfigError("model 'all' cannot be combined with other model names")
        return MODEL_ORDER
    for name in cleaned:
        if name not in MODELS:
            raise ConfigError(
                f"unknown model {name!r}; choose from {', '.join(MODELS)} or 'all'"
            )
    # Keep registry order regardless of how the selection was spelled.
    return tuple(key for key in MODELS if key in cleaned)


def trainer_for(key: str, config: RunConfig) -> Callable[[TrainingSet], Model]:
    """A no-argument-but-data trainer for ``key`` with hyperparameters bound;
    a seeded trainer gets the config seed unless its hyperparameters set one."""
    trainer = TRAINERS[key]
    kwargs = dict(config.hyperparameters.get(key, {}))
    if "seed" in hyperparameters(trainer):
        kwargs.setdefault("seed", config.seed)
    return partial(trainer, **kwargs)


@contextmanager
def _stage(name: str) -> Iterator[None]:
    logger.info("pipeline stage: %s", name)
    with errors_of(name):
        yield


@dataclass(frozen=True)
class TopicData:
    """Everything derived from one topic's corpus before modelling."""

    topic: str
    documents: tuple[CleanDocument, ...]
    labels: tuple
    scores: tuple[float, ...]
    distribution: dict
    matrices: dict[str, DocTermMatrix]

    def training_set(self, weighting: str) -> TrainingSet:
        return TrainingSet(matrix=self.matrices[weighting], labels=self.labels)


# The metric columns of a topic's table, in the order every table prints them.
METRICS = ("precision", "recall", "fscore", "cross_validate")


@dataclass(frozen=True)
class ModelReport:
    """One row of a topic's metric table (values are fractions, not %); its
    fields are the keys of a ``models`` row of ``report_<topic>.json``."""

    model: str
    display_name: str
    precision: float
    recall: float
    fscore: float
    cross_validate: float
    cross_validate_std: float


@dataclass(frozen=True)
class TopicReport:
    """Per-topic summary: sentiment distribution, hourly activity, metrics;
    ``dataclasses.asdict`` of it is ``report_<topic>.json``."""

    topic: str
    documents: int
    distribution: dict
    hourly: tuple[int, ...]
    models: tuple[ModelReport, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if sum(self.distribution.values()) != self.documents:
            raise ValueError("sentiment distribution does not sum to document count")


@dataclass(frozen=True)
class RunResult:
    reports: tuple[TopicReport, ...]
    comparison: dict | None
    out_dir: Path
    manifest: dict


def _load_topic(
    name: str, path: Path, lexicon: Mapping[str, float], stopwords, min_df: int
) -> TopicData:
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
    tokens = [doc.tokens for doc in documents]
    with _stage("label"), errors_of(path):
        labels, scores = label_corpus(lexicon, tokens)
        distribution = {label.tag: labels.count(label) for label in CANONICAL_LABELS}
    with _stage("featurize"):
        vocab = build_vocabulary(tokens, min_df=min_df)
        if not vocab.terms:
            raise DataError(
                f"{path}: topic {name!r} has no term in at least 'min_df' = {min_df} "
                "documents, so no model has a feature to train on"
            )
        count_matrix = build_count_matrix(vocab, tokens)
        matrices = {COUNTS: count_matrix, TFIDF: tfidf_transform(count_matrix)}
    return TopicData(
        topic=name,
        documents=documents,
        labels=labels,
        scores=scores,
        distribution=distribution,
        matrices=matrices,
    )


def load_topic_data(config: RunConfig) -> list[TopicData]:
    """Run the data stages (ingest through featurize) for every topic."""
    # Part of every topic's ingest stage, which logs once per topic.
    with errors_of("ingest"):
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
    with _stage("train"), errors_of(f"topic {data.topic!r}"):
        fitted = {}
        for key in config.models:
            training = data.training_set(config.weighting[key])
            fitted[key] = trainer_for(key, config)(training)
            logger.info("trained %s on topic %s", key, data.topic)
        return fitted


def evaluate_topic(config: RunConfig, data: TopicData) -> TopicReport:
    """Cross-validate every selected model and assemble the topic report."""
    with _stage("evaluate"), errors_of(f"topic {data.topic!r}"):
        rows = []
        warnings: list[str] = []
        for key in config.models:
            training = data.training_set(config.weighting[key])
            cv: CVResult = cross_validate(
                trainer_for(key, config), training, k=config.folds, seed=config.seed
            )
            rows.append(
                ModelReport(
                    model=key,
                    display_name=MODELS[key].display_name,
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
            documents=len(data.documents),
            distribution=data.distribution,
            hourly=hourly_histogram(data.documents),
            models=tuple(rows),
            warnings=tuple(warnings),
        )


def _shares(report: TopicReport) -> dict:
    """Each label's fraction of the topic's documents."""
    return {tag: count / report.documents for tag, count in report.distribution.items()}


def compare_topics(a: TopicReport, b: TopicReport) -> dict:
    """Side-by-side summary of two topic reports.

    Presents distributions, shares, ratios, and per-model metric deltas
    (second topic minus first); deliberately computes no overall winner.
    """
    def ratio(report: TopicReport) -> float | None:
        negative = report.distribution["negative"]
        if negative == 0:
            return None
        return report.distribution["positive"] / negative

    metrics_a = {row.model: row for row in a.models}
    metrics_b = {row.model: row for row in b.models}
    if set(metrics_a) != set(metrics_b):
        raise ValueError("topic reports cover different model sets")
    deltas = {
        key: {
            metric: getattr(metrics_b[key], metric) - getattr(metrics_a[key], metric)
            for metric in METRICS
        }
        for key in metrics_a
    }
    return {
        "topics": [a.topic, b.topic],
        "documents": {a.topic: a.documents, b.topic: b.documents},
        "distribution": {a.topic: a.distribution, b.topic: b.distribution},
        "shares": {a.topic: _shares(a), b.topic: _shares(b)},
        "positive_negative_ratio": {a.topic: ratio(a), b.topic: ratio(b)},
        "metric_deltas": deltas,
        "note": (
            "figures are presented side by side; no overall verdict is computed"
        ),
    }


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """``header`` and ``rows`` as CSV with ``\\n`` line ends: every table the
    program writes, to a file or to stdout."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def table_rows(records: Iterable[Mapping], columns: Sequence[str]) -> list[list]:
    """The ``columns`` of each record as a table row; floats are fractions and
    print as percentages with two decimals."""
    return [
        [f"{100 * value:.2f}" if isinstance(value, float) else value for value in map(record.get, columns)]
        for record in records
    ]


def build_bundle(config: RunConfig, reports: tuple[TopicReport, ...]) -> tuple[dict[str, bytes], dict]:
    """Assemble every report file in memory; returns (files, manifest)."""
    # Imported here: OpenSSL adds megabytes to every command that writes no bundle.
    import hashlib

    files: dict[str, bytes] = {}
    for report in reports:
        files[f"metrics_{report.topic}.csv"] = csv_text(
            ["Algorithm", "Precision", "Recall", "Fscore", "CrossValidate"],
            table_rows(map(asdict, report.models), ["display_name", *METRICS]),
        ).encode("utf-8")
        files[f"distribution_{report.topic}.json"] = json_bytes(
            {
                "topic": report.topic,
                "documents": report.documents,
                "counts": report.distribution,
                "shares": _shares(report),
            }
        )
        files[f"hourly_{report.topic}.csv"] = csv_text(
            ["hour", "count"], enumerate(report.hourly)
        ).encode("utf-8")
        files[f"report_{report.topic}.json"] = json_bytes(asdict(report))

    if len(reports) == 2:
        files["comparison.json"] = json_bytes(compare_topics(*reports))

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
    files["manifest.json"] = json_bytes(manifest)
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
    comparison = json.loads(files["comparison.json"]) if "comparison.json" in files else None
    return RunResult(
        reports=reports, comparison=comparison, out_dir=config.out_dir, manifest=manifest
    )
