"""Command-line interface.

Every subcommand reads the same declarative JSON config (``--config``) and
accepts flag overrides that win over the file.  Exit codes: 0 success,
1 usage or configuration error, 2 data error (unreadable or malformed
inputs), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict

# No matrix here is large enough to use a second BLAS thread, and OpenBLAS
# starts its pool when numpy is first imported, which the package imports
# below do; a value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .evaluation import score
from .exceptions import ConfigError, DataError, errors_of
from .models import encode_model, load_model
from .pipeline import (
    METRICS,
    MODELS,
    OVERRIDES,
    RunConfig,
    compare_topics,
    csv_text,
    evaluate_topic,
    load_config,
    load_topic_data,
    model_filename,
    run_pipeline,
    table_rows,
    train_topic_models,
    write_bundle,
)


class _StderrHandler(logging.Handler):
    """Prints a record to the ``sys.stderr`` of the moment: a warning as
    ``warning: <message>``, a ``-v`` progress line as ``<logger>: <message>``."""

    def emit(self, record: logging.LogRecord) -> None:
        tag = record.levelname.lower() if record.levelno >= logging.WARNING else record.name
        try:
            print(f"{tag}: {record.getMessage()}", file=sys.stderr)
        except OSError:  # a closed stderr loses the line, as logging's own handlers do
            self.handleError(record)


_LOG_HANDLER = _StderrHandler()


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> _ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="JSON run configuration")
    common.add_argument("--seed", type=int, default=None,
                        help=f"override the config seed (config default: {RunConfig.seed})")
    common.add_argument("--folds", type=int, default=None,
                        help=f"override the number of CV folds (config default: {RunConfig.folds})")
    common.add_argument("--model", dest="models", default=None, metavar="NAME|all",
                        help="comma-separated model selection override")
    common.add_argument("--lexicon", default=None, metavar="PATH")
    common.add_argument("--stopwords", default=None, metavar="PATH")
    common.add_argument("--min-df", dest="min_df", type=int, default=None)
    common.add_argument("--out", dest="out_dir", default=None, metavar="DIR",
                        help="override the output directory")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="stdout format for tabular results")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="log pipeline stages to stderr")

    parser = _ArgumentParser(
        prog="tweetsent",
        description="Lexicon-labelled tweet sentiment pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_ArgumentParser)

    handlers = {
        "ingest": (_cmd_ingest, "validate corpora and summarise per-topic counts"),
        "label": (_cmd_label, "weak-label corpora and report sentiment distributions"),
        "train": (_cmd_train, "fit the selected models and save them as JSON"),
        "evaluate": (_cmd_evaluate, "score saved models against the weak labels"),
        "crossval": (_cmd_crossval, "k-fold cross-validate the selected models"),
        "report": (_cmd_report, "run the full pipeline and write the report bundle"),
        "compare": (_cmd_compare, "side-by-side summary of the two topics"),
    }
    for name, (handler, help_text) in handlers.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        command.set_defaults(handler=handler)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return load_config(args.config, **{key: getattr(args, key) for key in OVERRIDES})


def _emit(args: argparse.Namespace, payload: dict, header: list[str], rows: list[list]) -> None:
    """Print ``payload`` as JSON or ``header``+``rows`` as CSV."""
    if args.format == "csv":
        sys.stdout.write(csv_text(header, rows))
    else:
        print(json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True))


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    summaries = [
        {"topic": data.topic, "documents": len(data.documents), "corpus": str(path)}
        for (_, path), data in zip(config.topics, load_topic_data(config))
    ]
    columns = ["topic", "documents"]
    _emit(args, {"topics": summaries}, columns, table_rows(summaries, columns))
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    topic_data = load_topic_data(config)
    summaries = [
        {"topic": data.topic, "documents": len(data.documents), "distribution": data.distribution}
        for data in topic_data
    ]
    payload: dict = {"topics": summaries}
    if args.out_dir is not None:
        files = {
            f"labels_{data.topic}.csv": csv_text(
                ["id", "label", "score"],
                (
                    [doc.id, label.tag, repr(value)]
                    for doc, label, value in zip(data.documents, data.labels, data.scores)
                ),
            ).encode("utf-8")
            for data in topic_data
        }
        write_bundle(config.out_dir, files)
        payload["files"] = [str(config.out_dir / name) for name in files]
    _emit(
        args,
        payload,
        ["topic", "documents", "positive", "neutral", "negative"],
        [[s["topic"], s["documents"], *s["distribution"].values()] for s in summaries],
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    # Every fit runs before anything is written, and write_bundle writes
    # all the files or none, so a failure leaves no output behind.
    files: dict[str, bytes] = {}
    entries = []
    for data in load_topic_data(config):
        fitted = train_topic_models(config, data)
        for key in config.models:
            name = model_filename(data.topic, key)
            files[name] = encode_model(fitted[key])
            entries.append({"topic": data.topic, "model": key, "path": str(config.out_dir / name)})
    write_bundle(config.out_dir, files)
    columns = ["topic", "model", "path"]
    _emit(args, {"models": entries}, columns, table_rows(entries, columns))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    results = []
    for data in load_topic_data(config):
        for key in config.models:
            path = config.out_dir / model_filename(data.topic, key)
            if not path.is_file():
                raise DataError(
                    f"no saved model at {path}; run the train subcommand first"
                )
            model = load_model(path)
            if model.kind != key:
                raise DataError(
                    f"{path}: holds a model of kind {model.kind!r}, "
                    f"not the {key!r} model its name says"
                )
            training = data.training_set(config.weighting[key])
            with errors_of(path):
                accuracy, macro = score(model, training.matrix, training.y(), training.classes)
            results.append(
                {
                    "topic": data.topic,
                    "model": key,
                    "display_name": MODELS[key].display_name,
                    "precision": macro.precision,
                    "recall": macro.recall,
                    "fscore": macro.f1,
                    "accuracy": accuracy,
                }
            )
    columns = ["topic", "model", "precision", "recall", "fscore", "accuracy"]
    _emit(args, {"results": results}, columns, table_rows(results, columns))
    return 0


def _cmd_crossval(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    results = []
    for data in load_topic_data(config):
        report = evaluate_topic(config, data)
        results.extend({"topic": report.topic, **asdict(row)} for row in report.models)
    _emit(
        args,
        {"results": results},
        ["topic", "model", *METRICS, "std"],
        table_rows(results, ["topic", "model", *METRICS, "cross_validate_std"]),
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run_pipeline(config)
    for name in sorted(result.manifest["files"]):
        print(result.out_dir / name)
    print(result.out_dir / "manifest.json")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if len(config.topics) != 2:
        raise ConfigError("compare needs a config with exactly two topics")
    data = load_topic_data(config)
    reports = [evaluate_topic(config, d) for d in data]
    comparison = compare_topics(reports[0], reports[1])

    a, b = comparison["topics"]
    rows = [["documents", comparison["documents"][a], comparison["documents"][b]]]
    for tag in ("positive", "neutral", "negative"):
        rows.append([tag, comparison["distribution"][a][tag], comparison["distribution"][b][tag]])
    _emit(args, comparison, ["quantity", a, b], rows)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    package = logging.getLogger(__package__)
    package.setLevel(logging.INFO)
    package.addHandler(_LOG_HANDLER)  # a no-op once it is there: one per process
    _LOG_HANDLER.setLevel(logging.INFO if args.verbose else logging.WARNING)

    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # OSError: an output write failed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
