"""End-to-end pipeline and command-line behaviour on a small fixed corpus.

A 24-document two-topic workspace is generated once per module with fully
deterministic contents, so bundle bytes, manifests, and exit codes can be
asserted exactly.
"""

import csv
import hashlib
import inspect
import json
import os
import re
import sys
from collections import Counter
from dataclasses import replace

import pytest

from tweetsent.cli import build_parser, main
from tweetsent.datagen import make_toy_training_set
from tweetsent.exceptions import ConfigError, DataError
from tweetsent.models import TRAINERS, hyperparameters
from tweetsent.pipeline import (
    DEFAULT_WEIGHTING,
    MODEL_ORDER,
    MODELS,
    OVERRIDES,
    RunConfig,
    TopicReport,
    compare_topics,
    load_config,
    load_topic_data,
    model_filename,
    run_pipeline,
    trainer_for,
)

from test_model_io import corrupt_tree

POSITIVE_TEXTS = ["good love meal{}", "love good snack{}"]
NEGATIVE_TEXTS = ["bad awful queue{}", "awful bad noise{}"]
NEUTRAL_TEXTS = ["table chair note{}", "chair table memo{}"]


def _doc(topic, index, text):
    return {
        "id": f"{topic}-{index:03d}",
        "text": text,
        "created_at": f"2024-06-0{1 + index % 3}T{index % 24:02d}:15:00Z",
        "topic": topic,
    }


def _topic_docs(topic, n_positive, n_negative, n_neutral):
    docs = []
    for i in range(n_positive):
        docs.append(_doc(topic, len(docs), POSITIVE_TEXTS[i % 2].format(i)))
    for i in range(n_negative):
        docs.append(_doc(topic, len(docs), NEGATIVE_TEXTS[i % 2].format(i)))
    for i in range(n_neutral):
        docs.append(_doc(topic, len(docs), NEUTRAL_TEXTS[i % 2].format(i)))
    return docs


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Two 24-document corpora, a lexicon, stopwords, and a config file."""
    root = tmp_path_factory.mktemp("workspace")
    corpora = {
        "alpha": _topic_docs("alpha", 8, 8, 8),
        "beta": _topic_docs("beta", 10, 6, 8),
    }
    for topic, docs in corpora.items():
        with open(root / f"corpus_{topic}.jsonl", "w", encoding="utf-8") as fh:
            for doc in docs:
                fh.write(json.dumps(doc) + "\n")
    (root / "lexicon.tsv").write_text(
        "good\t2.0\nlove\t1.0\nbad\t-2.0\nawful\t-1.0\n", encoding="utf-8"
    )
    (root / "stopwords.txt").write_text("the\na\n", encoding="utf-8")
    (root / "config.json").write_text(
        json.dumps(
            {
                "topics": {
                    "alpha": "corpus_alpha.jsonl",
                    "beta": "corpus_beta.jsonl",
                },
                "lexicon": "lexicon.tsv",
                "stopwords": "stopwords.txt",
                "seed": 7,
                "folds": 4,
                "out_dir": "report",
            }
        ),
        encoding="utf-8",
    )
    return root


def write_config(directory, payload):
    path = directory / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def minimal_config_payload(workspace, **extra):
    payload = {
        "topics": {"alpha": str(workspace / "corpus_alpha.jsonl")},
        "lexicon": str(workspace / "lexicon.tsv"),
    }
    payload.update(extra)
    return payload


@pytest.fixture(scope="module")
def run_result(workspace, tmp_path_factory):
    """One full-pipeline run shared by the bundle-inspection tests."""
    out_dir = tmp_path_factory.mktemp("bundle")
    config = load_config(workspace / "config.json", out_dir=str(out_dir))
    return config, run_pipeline(config)


def test_each_model_is_keyed_by_the_kind_its_trainer_fits():
    """The pipeline's key for a model is the kind its saved files carry."""
    training = make_toy_training_set()
    for key in MODELS:
        model = TRAINERS[key](training)
        assert model.kind == key


class TestLoadConfig:
    """Config parsing, path resolution, and override precedence."""

    def test_reads_values_and_defaults(self, workspace):
        config = load_config(workspace / "config.json")
        assert config.topic_names() == ("alpha", "beta")
        assert config.seed == 7
        assert config.folds == 4
        assert config.min_df == 1
        assert config.models == MODEL_ORDER
        assert dict(config.weighting) == DEFAULT_WEIGHTING

    def test_trainers_get_their_defaults_and_the_config_seed(self, workspace):
        """The seeded trainers take the config seed unless their hyperparameters
        set one; every other default is the trainer's own."""
        config = load_config(workspace / "config.json")

        def bound(key, config):
            parameters = inspect.signature(trainer_for(key, config)).parameters.values()
            return {p.name: p.default for p in parameters if p.default is not p.empty}

        tree = {"max_depth": None, "min_samples_split": 2}
        assert {key: bound(key, config) for key in MODEL_ORDER} == {
            "naive_bayes": {"alpha": 1.0},
            "svm": {"lam": 0.1, "epochs": 50, "seed": 7},
            "maxent": {"eta": 0.1, "lam": 1e-3, "epochs": 300},
            "decision_tree": tree,
            "random_forest": {
                "n_members": 25, **tree, "seed": 7, "bootstrap": True,
                "n_features_per_split": None,
            },
            "bagging": {"n_members": 15, **tree, "seed": 7, "bootstrap": True},
        }
        own_seed = replace(config, hyperparameters={"svm": {"seed": 3}})
        assert bound("svm", own_seed)["seed"] == 3

    def test_hyperparameters_are_the_trainers_keyword_only_parameters(self):
        """Each admits the plain types of its annotation."""
        def types(key):
            return {name: h.types for name, h in hyperparameters(TRAINERS[key]).items()}

        assert types("naive_bayes") == {"alpha": (float,)}
        assert types("decision_tree") == {
            "max_depth": (int, type(None)), "min_samples_split": (int,),
        }
        assert list(hyperparameters(TRAINERS["random_forest"])) == [
            "n_members", "max_depth", "min_samples_split", "seed", "bootstrap",
            "n_features_per_split",
        ]

    def test_every_override_is_a_load_config_keyword_and_a_flag(self, workspace):
        """The CLI hands each flag to the load_config keyword of its name, and
        load_config refuses any other keyword, as Python refuses one."""
        path = workspace / "config.json"
        assert load_config(path, **dict.fromkeys(OVERRIDES)) == load_config(path)
        with pytest.raises(TypeError, match="load_config\\(\\) got an unexpected keyword argument 'outdir'"):
            load_config(path, outdir="o")
        args = build_parser().parse_args([
            "ingest", "--config", "c.json", "--seed", "1", "--folds", "2", "--min-df", "3",
            "--lexicon", "l.tsv", "--stopwords", "s.txt", "--out", "o", "--model", "svm",
        ])
        assert {key: getattr(args, key) for key in OVERRIDES} == {
            "seed": 1, "folds": 2, "min_df": 3, "lexicon": "l.tsv",
            "stopwords": "s.txt", "out_dir": "o", "models": "svm",
        }

    def test_relative_paths_resolve_against_the_config_directory(self, workspace):
        config = load_config(workspace / "config.json")
        assert config.lexicon == workspace / "lexicon.tsv"
        assert config.stopwords == workspace / "stopwords.txt"
        assert config.out_dir == workspace / "report"
        assert dict(config.topics)["alpha"] == workspace / "corpus_alpha.jsonl"

    def test_flag_overrides_win_over_the_file(self, workspace, tmp_path):
        config = load_config(
            workspace / "config.json",
            seed=99,
            folds=3,
            min_df=2,
            out_dir=str(tmp_path / "elsewhere"),
            models="naive_bayes",
        )
        assert config.seed == 99
        assert config.folds == 3
        assert config.min_df == 2
        assert config.out_dir == tmp_path / "elsewhere"
        assert config.models == ("naive_bayes",)

    def test_model_selection_keeps_registry_order(self, workspace):
        config = load_config(workspace / "config.json", models="maxent,svm")
        assert config.models == ("svm", "maxent")

    def test_model_selection_all_keyword(self, workspace):
        config = load_config(workspace / "config.json", models="all")
        assert config.models == MODEL_ORDER

    def test_unknown_config_key_is_rejected(self, workspace, tmp_path):
        path = write_config(
            tmp_path, minimal_config_payload(workspace, typo_key=1)
        )
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)

    def test_invalid_json_is_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "absent.json")

    def test_missing_lexicon_key_is_rejected(self, workspace, tmp_path):
        payload = minimal_config_payload(workspace)
        del payload["lexicon"]
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match="'lexicon' is required"):
            load_config(path)

    def test_topics_must_be_a_mapping(self, workspace, tmp_path):
        payload = minimal_config_payload(workspace)
        payload["topics"] = ["alpha"]
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match="'topics' must map"):
            load_config(path)

    def test_nonexistent_corpus_file_is_rejected(self, workspace, tmp_path):
        payload = minimal_config_payload(workspace)
        payload["topics"] = {"alpha": str(tmp_path / "missing.jsonl")}
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(path)

    def test_more_than_two_topics_is_rejected(self, workspace, tmp_path):
        corpus = str(workspace / "corpus_alpha.jsonl")
        payload = minimal_config_payload(
            workspace, topics={"a": corpus, "b": corpus, "c": corpus}
        )
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match="1 or 2 topics"):
            load_config(path)

    def test_unknown_model_name_is_rejected(self, workspace):
        with pytest.raises(ConfigError, match="unknown model"):
            load_config(workspace / "config.json", models="perceptron")

    def test_bad_weighting_value_is_rejected(self, workspace, tmp_path):
        payload = minimal_config_payload(
            workspace, weighting={"naive_bayes": "hashing"}
        )
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match="weighting for naive_bayes"):
            load_config(path)

    def test_unknown_hyperparameter_is_rejected_up_front(self, workspace, tmp_path):
        payload = minimal_config_payload(
            workspace, hyperparameters={"naive_bayes": {"bogus": 1}}
        )
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match="hyperparameters for naive_bayes"):
            load_config(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("folds", 1, "folds must be at least 2"),
            ("min_df", 0, "min_df must be at least 1"),
            ("seed", -1, "seed must be non-negative"),
        ],
    )
    def test_out_of_range_scalars_are_rejected(
        self, workspace, tmp_path, field, value, message
    ):
        payload = minimal_config_payload(workspace, **{field: value})
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match=message):
            load_config(path)


class TestRunPipeline:
    """Bundle contents, manifest hashes, and rerun determinism."""

    def test_library_config_with_a_partial_weighting_runs(self, workspace, tmp_path):
        """A model the weighting leaves out trains on its default one."""
        config = RunConfig(
            topics=(("alpha", workspace / "corpus_alpha.jsonl"),),
            lexicon=workspace / "lexicon.tsv",
            out_dir=tmp_path / "out",
            models=("naive_bayes",),
            weighting={"svm": "tfidf"},
        )
        assert config.weighting == DEFAULT_WEIGHTING
        result = run_pipeline(config)
        assert result.manifest["run"]["weighting"] == {"naive_bayes": "counts"}
        assert (tmp_path / "out" / "manifest.json").is_file()

    @pytest.mark.parametrize("key, value", [("folds", 2.5), ("seed", "7"), ("min_df", 1.5)])
    def test_library_config_with_a_non_integer_is_a_config_error(
        self, workspace, tmp_path, key, value
    ):
        config = RunConfig(
            topics=(("alpha", workspace / "corpus_alpha.jsonl"),),
            lexicon=workspace / "lexicon.tsv",
            out_dir=tmp_path / "out",
            models=("naive_bayes",),
            **{key: value},
        )
        message = re.escape(f"'{key}' must be an integer, got {value!r}")
        with pytest.raises(ConfigError, match=message):
            run_pipeline(config)
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError, match=message):
            load_config(workspace / "config.json", **{key: value})

    def test_reports_cover_every_topic_and_model(self, run_result):
        _, result = run_result
        assert tuple(r.topic for r in result.reports) == ("alpha", "beta")
        for report in result.reports:
            assert tuple(row.model for row in report.models) == MODEL_ORDER
            assert report.documents == 24

    def test_weak_label_distribution_matches_the_corpus_design(self, run_result):
        _, result = run_result
        alpha, beta = result.reports
        assert alpha.distribution == {"positive": 8, "neutral": 8, "negative": 8}
        assert beta.distribution == {"positive": 10, "neutral": 8, "negative": 6}

    def test_bundle_contains_the_expected_files(self, run_result):
        config, _ = run_result
        names = {path.name for path in config.out_dir.iterdir()}
        assert names == {
            "metrics_alpha.csv",
            "distribution_alpha.json",
            "hourly_alpha.csv",
            "report_alpha.json",
            "metrics_beta.csv",
            "distribution_beta.json",
            "hourly_beta.csv",
            "report_beta.json",
            "comparison.json",
            "manifest.json",
        }

    def test_metrics_csv_has_the_documented_shape(self, run_result):
        config, _ = run_result
        lines = (config.out_dir / "metrics_alpha.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "Algorithm,Precision,Recall,Fscore,CrossValidate"
        assert len(lines) == 1 + len(MODEL_ORDER)
        first = lines[1].split(",")
        assert first[0] == "Naive Bayes"
        for cell in first[1:]:
            assert 0.0 <= float(cell) <= 100.0

    def test_hourly_csv_has_24_rows_summing_to_the_corpus(self, run_result):
        config, _ = run_result
        lines = (config.out_dir / "hourly_alpha.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "hour,count"
        assert len(lines) == 25
        assert sum(int(line.split(",")[1]) for line in lines[1:]) == 24

    def test_distribution_json_shares_sum_to_one(self, run_result):
        config, _ = run_result
        payload = json.loads((config.out_dir / "distribution_beta.json").read_text(encoding="utf-8"))
        assert payload["documents"] == 24
        assert sum(payload["counts"].values()) == 24
        assert sum(payload["shares"].values()) == pytest.approx(1.0)

    def test_manifest_hashes_match_the_written_files(self, run_result):
        config, result = run_result
        manifest = json.loads((config.out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest == result.manifest
        assert set(manifest["files"]) == {
            path.name
            for path in config.out_dir.iterdir()
            if path.name != "manifest.json"
        }
        for name, entry in manifest["files"].items():
            data = (config.out_dir / name).read_bytes()
            assert entry["bytes"] == len(data)
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()

    def test_manifest_echoes_the_run_parameters(self, run_result):
        config, result = run_result
        run = result.manifest["run"]
        assert run["topics"] == ["alpha", "beta"]
        assert run["seed"] == config.seed
        assert run["folds"] == config.folds
        assert run["models"] == list(MODEL_ORDER)

    def test_rerun_writes_byte_identical_files(self, run_result, tmp_path):
        config, _ = run_result
        again = replace(config, out_dir=tmp_path / "again")
        run_pipeline(again)
        for path in sorted(config.out_dir.iterdir()):
            assert (again.out_dir / path.name).read_bytes() == path.read_bytes(), path.name

    def test_each_trainer_signature_is_read_once(self, run_result, tmp_path, monkeypatch):
        """Config checks, seeding and every fit of every fold share one
        reading of each trainer's annotations."""
        config, _ = run_result
        calls = Counter()
        read = inspect.get_annotations

        def counting(obj, **kwargs):
            calls[obj] += 1
            return read(obj, **kwargs)

        hyperparameters.cache_clear()
        monkeypatch.setattr(inspect, "get_annotations", counting)
        run_pipeline(replace(config, out_dir=tmp_path / "again"))
        assert calls == Counter(TRAINERS[key] for key in MODELS)

    def test_comparison_reports_deltas_and_ratios(self, run_result):
        config, result = run_result
        payload = json.loads((config.out_dir / "comparison.json").read_text(encoding="utf-8"))
        assert payload["topics"] == ["alpha", "beta"]
        assert payload["documents"] == {"alpha": 24, "beta": 24}
        assert payload["positive_negative_ratio"]["alpha"] == pytest.approx(1.0)
        assert payload["positive_negative_ratio"]["beta"] == pytest.approx(10 / 6)
        assert set(payload["metric_deltas"]) == set(MODEL_ORDER)
        assert result.comparison["metric_deltas"] == payload["metric_deltas"]

    def test_wrong_topic_name_fails_in_the_ingest_stage(self, workspace, tmp_path):
        payload = minimal_config_payload(workspace)
        payload["topics"] = {"gamma": str(workspace / "corpus_alpha.jsonl")}
        config = load_config(write_config(tmp_path, payload))
        with pytest.raises(DataError, match="^ingest: .*no documents with topic"):
            load_topic_data(config)


class TestCompareTopics:
    """The side-by-side summary presents, but never judges."""

    @staticmethod
    def _report(topic, positive, neutral, negative, fscore):
        from tweetsent.pipeline import ModelReport

        return TopicReport(
            topic=topic,
            documents=positive + neutral + negative,
            distribution={
                "positive": positive, "neutral": neutral, "negative": negative,
            },
            hourly=tuple([0] * 24),
            models=(
                ModelReport(
                    model="naive_bayes",
                    display_name="Naive Bayes",
                    precision=fscore,
                    recall=fscore,
                    fscore=fscore,
                    cross_validate=fscore,
                    cross_validate_std=0.0,
                ),
            ),
        )

    def test_ratio_is_none_when_nothing_is_negative(self):
        a = self._report("a", 4, 2, 0, 0.5)
        b = self._report("b", 2, 2, 2, 0.75)
        comparison = compare_topics(a, b)
        assert comparison["positive_negative_ratio"]["a"] is None
        assert comparison["positive_negative_ratio"]["b"] == 1.0

    def test_deltas_are_second_minus_first(self):
        a = self._report("a", 2, 2, 2, 0.5)
        b = self._report("b", 2, 2, 2, 0.75)
        comparison = compare_topics(a, b)
        assert comparison["metric_deltas"]["naive_bayes"]["fscore"] == (
            pytest.approx(0.25)
        )

    def test_mismatched_model_sets_are_rejected(self):
        a = self._report("a", 2, 2, 2, 0.5)
        b = TopicReport(
            topic="b",
            documents=0,
            distribution={"positive": 0, "neutral": 0, "negative": 0},
            hourly=tuple([0] * 24),
            models=(),
        )
        with pytest.raises(ValueError, match="different model sets"):
            compare_topics(a, b)

    def test_distribution_must_sum_to_the_document_count(self):
        with pytest.raises(ValueError, match="does not sum"):
            TopicReport(
                topic="x",
                documents=5,
                distribution={"positive": 1, "neutral": 1, "negative": 1},
                hourly=tuple([0] * 24),
                models=(),
            )


class TestCli:
    """Exit codes and output of the console entry point."""

    def test_ingest_reports_per_topic_counts(self, workspace, capsys):
        code = main(["ingest", "--config", str(workspace / "config.json")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["topics"][0] == {
            "topic": "alpha",
            "documents": 24,
            "corpus": str(workspace / "corpus_alpha.jsonl"),
        }

    def test_ingest_csv_format(self, workspace, capsys):
        code = main(
            ["ingest", "--config", str(workspace / "config.json"), "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["topic,documents", "alpha,24", "beta,24"]

    def test_label_reports_distributions_and_writes_files(
        self, workspace, tmp_path, capsys
    ):
        code = main(
            [
                "label",
                "--config", str(workspace / "config.json"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["topics"][0]["distribution"] == {
            "positive": 8, "neutral": 8, "negative": 8,
        }
        labels = (tmp_path / "labels_alpha.csv").read_text(encoding="utf-8").splitlines()
        assert labels[0] == "id,label,score"
        assert len(labels) == 25

    def test_train_then_evaluate_round_trips_models(
        self, workspace, tmp_path, capsys
    ):
        args = [
            "--config", str(workspace / "config.json"),
            "--out", str(tmp_path),
            "--model", "naive_bayes,decision_tree",
        ]
        assert main(["train", *args]) == 0
        trained = json.loads(capsys.readouterr().out)
        assert len(trained["models"]) == 4  # two topics x two models
        for entry in trained["models"]:
            assert (tmp_path / f"model_{entry['topic']}_{entry['model']}.json").is_file()

        assert main(["evaluate", *args]) == 0
        evaluated = json.loads(capsys.readouterr().out)
        assert len(evaluated["results"]) == 4
        for row in evaluated["results"]:
            assert 0.0 <= row["fscore"] <= 1.0

    def test_evaluate_without_saved_models_is_a_data_error(
        self, workspace, tmp_path, capsys
    ):
        code = main(
            [
                "evaluate",
                "--config", str(workspace / "config.json"),
                "--out", str(tmp_path / "empty"),
                "--model", "naive_bayes",
            ]
        )
        assert code == 2
        assert "run the train subcommand first" in capsys.readouterr().err

    def test_evaluate_rejects_models_from_different_features(
        self, workspace, tmp_path, capsys
    ):
        args = [
            "--config", str(workspace / "config.json"),
            "--out", str(tmp_path),
            "--model", "naive_bayes",
        ]
        assert main(["train", *args]) == 0
        capsys.readouterr()
        code = main(["evaluate", *args, "--min-df", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'model_alpha_naive_bayes.json'}: model vocabulary" in err
        assert "is not that of the features given" in err

    def test_evaluate_rejects_a_model_of_another_kind(
        self, workspace, tmp_path, capsys
    ):
        args = ["--config", str(workspace / "config.json"), "--out", str(tmp_path)]
        assert main(["train", *args, "--model", "svm"]) == 0
        capsys.readouterr()
        for topic in ("alpha", "beta"):
            svm = tmp_path / f"model_{topic}_svm.json"
            (tmp_path / f"model_{topic}_maxent.json").write_bytes(svm.read_bytes())
        code = main(["evaluate", *args, "--model", "maxent"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "model_alpha_maxent.json") in err
        assert "'svm'" in err and "'maxent'" in err

    def test_evaluate_rejects_a_model_trained_on_another_weighting(
        self, workspace, tmp_path, capsys
    ):
        """An SVM trained on TF-IDF features is not scored on counts."""
        trained = write_config(tmp_path, minimal_config_payload(workspace, out_dir="models"))
        assert main(["train", "--config", str(trained), "--model", "svm"]) == 0
        capsys.readouterr()
        other = tmp_path / "counts"
        other.mkdir()
        path = write_config(
            other,
            minimal_config_payload(
                workspace, out_dir=str(tmp_path / "models"), weighting={"svm": "counts"}
            ),
        )
        code = main(["evaluate", "--config", str(path), "--model", "svm"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "models" / "model_alpha_svm.json") in err
        assert "'tfidf'" in err and "'counts'" in err

    def test_model_file_with_an_unknown_weighting_is_a_data_error(
        self, workspace, tmp_path, capsys
    ):
        args = ["--config", str(workspace / "config.json"), "--out", str(tmp_path)]
        assert main(["train", *args, "--model", "naive_bayes"]) == 0
        capsys.readouterr()
        path = tmp_path / "model_alpha_naive_bayes.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        document["weighting"] = "binary"
        path.write_text(json.dumps(document), encoding="utf-8")
        code = main(["evaluate", *args, "--model", "naive_bayes"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'weighting'" in err and "'binary'" in err

    def test_crossval_csv_lists_every_selected_model(
        self, workspace, capsys
    ):
        code = main(
            [
                "crossval",
                "--config", str(workspace / "config.json"),
                "--model", "naive_bayes,svm",
                "--format", "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "topic,model,precision,recall,fscore,cross_validate,std"
        assert len(lines) == 5  # two topics x two models

    def test_report_writes_the_bundle_and_prints_its_files(
        self, workspace, tmp_path, capsys
    ):
        out_dir = tmp_path / "bundle"
        code = main(
            [
                "report",
                "--config", str(workspace / "config.json"),
                "--out", str(out_dir),
                "--model", "naive_bayes",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert str(out_dir / "manifest.json") in printed
        assert (out_dir / "comparison.json").is_file()

    def test_compare_needs_two_topics(self, workspace, tmp_path, capsys):
        payload = minimal_config_payload(workspace)
        path = write_config(tmp_path, payload)
        code = main(["compare", "--config", str(path)])
        assert code == 1
        assert "exactly two topics" in capsys.readouterr().err

    def test_compare_emits_the_side_by_side_summary(self, workspace, capsys):
        code = main(
            [
                "compare",
                "--config", str(workspace / "config.json"),
                "--model", "naive_bayes",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["topics"] == ["alpha", "beta"]
        assert "metric_deltas" in payload

    def test_missing_config_flag_is_a_usage_error(self, capsys):
        assert main(["ingest"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert main(["transmogrify", "--config", "x.json"]) == 1

    def test_bad_config_path_is_a_config_error(self, tmp_path, capsys):
        code = main(["ingest", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_malformed_corpus_is_a_data_error(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "broken.jsonl"
        corpus.write_text('{"id": "x", "text": "hello"\n', encoding="utf-8")
        payload = minimal_config_payload(workspace, topics={"alpha": str(corpus)})
        path = write_config(tmp_path, payload)
        code = main(["ingest", "--config", str(path)])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "tweetsent" in capsys.readouterr().out


class TestUserErrorsAreNotInternalErrors:
    """Config values of the wrong type or size exit 1 or 2, never 3, with a
    message that names the key at fault."""

    @staticmethod
    def _run(workspace, tmp_path, capsys, command, **extra):
        path = write_config(tmp_path, minimal_config_payload(workspace, **extra))
        code = main([command, "--config", str(path)])
        return code, capsys.readouterr().err

    def test_non_integer_seed_is_a_config_error(self, workspace, tmp_path, capsys):
        code, err = self._run(workspace, tmp_path, capsys, "ingest", seed="abc")
        assert code == 1
        assert "'seed' must be an integer" in err

    @pytest.mark.parametrize("command", ["train", "report", "label"])
    @pytest.mark.parametrize(
        "char", sorted({"/", os.sep, os.altsep} - {None}) + ["\0"], ids=repr
    )
    def test_topic_name_that_cannot_be_in_a_file_name_is_a_config_error(
        self, workspace, tmp_path, capsys, command, char
    ):
        """Topic names become parts of file names, so a separator or a NUL
        is refused before any stage runs, naming the topic."""
        name = f"al{char}pha"
        payload = minimal_config_payload(workspace, out_dir=str(tmp_path / "out"))
        payload["topics"] = {name: payload["topics"]["alpha"]}
        path = write_config(tmp_path, payload)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert repr(name) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_topic_name_too_long_for_a_file_name_is_a_config_error(
        self, workspace, tmp_path, capsys
    ):
        """A topic whose model file name would pass 255 bytes is refused
        before any stage runs, naming the topic, and writes nothing."""
        name = "t" * 250
        payload = minimal_config_payload(workspace, out_dir=str(tmp_path / "out"))
        payload["topics"] = {name: payload["topics"]["alpha"]}
        path = write_config(tmp_path, payload)
        code = main(["report", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert repr(name) in err and "too long" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, accepted",
        [
            ("t" * 230, True),
            ("t" * 231, False),
            ("é" * 115, True),
            ("é" * 116, False),
        ],
        ids=["230-ascii", "231-ascii", "115-two-byte", "116-two-byte"],
    )
    def test_topic_name_limit_counts_utf8_bytes(self, workspace, tmp_path, name, accepted):
        """model_<topic>_random_forest.json adds 25 bytes to the topic's
        UTF-8 bytes, and a file name may hold 255."""
        assert max(len(model_filename(name, key).encode()) for key in MODELS) == (
            len(name.encode()) + 25
        )
        payload = minimal_config_payload(workspace)
        payload["topics"] = {name: payload["topics"]["alpha"]}
        path = write_config(tmp_path, payload)
        if accepted:
            assert load_config(path).topic_names() == (name,)
        else:
            with pytest.raises(ConfigError, match="too long"):
                load_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("out_dir", None),
            ("out_dir", ["x"]),
            ("lexicon", 5),
            ("stopwords", False),
            ("stopwords", 0),
            ("topic", 3),
        ],
        ids=repr,
    )
    def test_a_path_that_is_no_string_is_a_config_error(
        self, workspace, tmp_path, capsys, key, value
    ):
        """A path is a JSON string (or null for stopwords), never the
        ``str`` of another JSON value: ``null`` is no directory named
        ``None``, and ``false`` no silent "no stopwords"."""
        payload = minimal_config_payload(workspace)
        if key == "topic":
            payload["topics"] = {"alpha": value}
        else:
            payload[key] = value
        path = write_config(tmp_path, payload)
        code = main(["ingest", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        named = "topic 'alpha'" if key == "topic" else f"'{key}'"
        assert f"{named} must be a path string" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_null_stopwords_means_none(self, workspace, tmp_path):
        path = write_config(tmp_path, minimal_config_payload(workspace, stopwords=None))
        assert load_config(path).stopwords is None

    @pytest.mark.parametrize("key", ["topic", "lexicon", "stopwords", "out_dir"])
    def test_an_empty_path_in_the_file_is_a_config_error(
        self, workspace, tmp_path, capsys, monkeypatch, key
    ):
        """``""`` names no file: it is neither "no stopwords" nor the
        config's own directory as the place to write to."""
        monkeypatch.chdir(tmp_path)
        payload = minimal_config_payload(workspace, stopwords=str(workspace / "stopwords.txt"))
        if key == "topic":
            payload["topics"] = {"alpha": ""}
        else:
            payload[key] = ""
        path = write_config(tmp_path, payload)
        code = main(["train", "--config", str(path), "--model", "naive_bayes"])
        err = capsys.readouterr().err
        assert code == 1
        named = "topic 'alpha'" if key == "topic" else f"'{key}'"
        assert f"{path}: {named} must be a path string" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "flag, key", [("--lexicon", "lexicon"), ("--stopwords", "stopwords"), ("--out", "out_dir")]
    )
    def test_an_empty_path_flag_is_a_config_error(
        self, workspace, tmp_path, capsys, monkeypatch, flag, key
    ):
        """A flag's path follows the file's rule, resolved against the
        working directory: ``""`` is refused, not taken for that directory."""
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, minimal_config_payload(workspace))
        code = main(["train", "--config", str(path), "--model", "naive_bayes", flag, ""])
        err = capsys.readouterr().err
        assert code == 1
        assert f"override '{key}' must be a path string, got ''" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "command, key", [("train", "out_dir"), ("report", "out_dir"), ("ingest", "lexicon")]
    )
    def test_a_path_holding_nul_is_a_config_error(
        self, workspace, tmp_path, capsys, caplog, monkeypatch, command, key
    ):
        """No file name may hold a NUL, so the path is refused, naming the
        key, when the config is loaded: no stage runs and nothing is
        written."""
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, minimal_config_payload(workspace, **{key: "out\0x"}))
        with caplog.at_level("INFO", logger="tweetsent.pipeline"):
            code = main([command, "--config", str(path), "--model", "naive_bayes"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{path}: '{key}' contains '\\x00', which no path may hold" in err
        assert not [r for r in caplog.records if "pipeline stage" in r.getMessage()]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_a_timestamp_outside_the_utc_years_is_a_data_error(self, workspace, tmp_path, capsys):
        """A valid local time whose UTC instant falls in year 10000 is a
        corpus error naming its line, not an internal error."""
        lines = (workspace / "corpus_alpha.jsonl").read_text(encoding="utf-8").splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "created_at": "9999-12-31T23:30:00-01:00"})
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        payload = minimal_config_payload(workspace, topics={"alpha": str(corpus)})
        path = write_config(tmp_path, payload)
        code = main(["ingest", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2: invalid created_at '9999-12-31T23:30:00-01:00'" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("route", ["file", "flag"])
    @pytest.mark.parametrize("names", [["all", "svm"], ["naive_bayes", "all"]])
    def test_all_cannot_be_combined_with_other_model_names(
        self, workspace, tmp_path, capsys, route, names
    ):
        if route == "file":
            path = write_config(tmp_path, minimal_config_payload(workspace, models=names))
            code = main(["ingest", "--config", str(path)])
        else:
            path = write_config(tmp_path, minimal_config_payload(workspace))
            code = main(["ingest", "--config", str(path), "--model", ",".join(names)])
        err = capsys.readouterr().err
        assert code == 1
        assert "model 'all' cannot be combined with other model names" in err
        assert "unknown model" not in err

    def test_maxent_takes_no_seed(self, workspace, tmp_path, capsys):
        """Maxent's fit is deterministic, so a seed for it is a mistake."""
        code, err = self._run(
            workspace, tmp_path, capsys, "train", hyperparameters={"maxent": {"seed": 1}}
        )
        assert code == 1
        assert "hyperparameters for maxent" in err and "'seed'" in err

    def test_more_folds_than_documents_is_a_data_error(
        self, workspace, tmp_path, capsys
    ):
        code, err = self._run(workspace, tmp_path, capsys, "crossval", folds=5000)
        assert code == 2
        assert "too few for 'folds' = 5000" in err

    def test_hyperparameter_of_the_wrong_type_is_a_config_error(
        self, workspace, tmp_path, capsys
    ):
        code, err = self._run(
            workspace, tmp_path, capsys, "ingest",
            hyperparameters={"svm": {"epochs": "50"}},
        )
        assert code == 1
        assert "hyperparameters for svm: 'epochs' must be int" in err

    @pytest.mark.parametrize("command", ["ingest", "label", "train"])
    @pytest.mark.parametrize("selected", [False, True], ids=["unselected", "selected"])
    @pytest.mark.parametrize(
        "model, values, message",
        [
            ("maxent", {"bogus": 1}, "hyperparameters for maxent: unknown name 'bogus'; choose from eta, lam, epochs"),
            ("maxent", {"epochs": 2.5}, "hyperparameters for maxent: 'epochs' must be int, got 2.5"),
            (
                "decision_tree",
                {"max_depth": "deep"},
                "hyperparameters for decision_tree: 'max_depth' must be int or null, got 'deep'",
            ),
        ],
        ids=["bogus-name", "wrong-type", "wrong-type-or-null"],
    )
    def test_every_hyperparameters_block_is_checked(
        self, command, selected, model, values, message, workspace, tmp_path, capsys
    ):
        """A mistake in the block of a model the run leaves out is still a
        mistake: every subcommand refuses it, whatever ``--model`` selects.
        A type error names JSON's types: ``null``, not ``NoneType``."""
        payload = minimal_config_payload(
            workspace, models=["naive_bayes"], hyperparameters={model: values},
            out_dir=str(tmp_path / "out"),
        )
        selection = ["--model", model] if selected else []
        code = main([command, "--config", str(write_config(tmp_path, payload)), *selection])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_hyperparameters_entry_must_be_an_object(
        self, workspace, tmp_path, capsys
    ):
        code, err = self._run(
            workspace, tmp_path, capsys, "ingest", hyperparameters={"svm": 3}
        )
        assert code == 1
        assert "hyperparameters for svm must be an object" in err

    def test_admissible_hyperparameter_types_load(self, workspace, tmp_path):
        """None for an optional int, an int for a float, a bool for a bool."""
        hyper = {
            "bagging": {"max_depth": None, "n_members": 2},
            "maxent": {"eta": 1},
            "random_forest": {"bootstrap": False},
        }
        path = write_config(
            tmp_path, minimal_config_payload(workspace, hyperparameters=hyper)
        )
        assert load_config(path).hyperparameters == hyper

    @pytest.mark.parametrize("command", ["ingest", "label", "crossval"])
    @pytest.mark.parametrize(
        "model, name, value, wording",
        [
            ("naive_bayes", "alpha", 0, "positive"),
            ("svm", "lam", 0.0, "positive"),
            ("svm", "epochs", 0, "at least 1"),
            ("svm", "epochs", 10001, "at most 10000"),
            ("svm", "seed", -1, "non-negative"),
            ("maxent", "eta", 0, "positive"),
            ("maxent", "lam", -1, "non-negative"),
            ("maxent", "epochs", -1, "non-negative"),
            ("maxent", "epochs", 10001, "at most 10000"),
            ("decision_tree", "max_depth", -2, "non-negative"),
            ("decision_tree", "min_samples_split", 1, "at least 2"),
            ("random_forest", "n_members", 0, "at least 1"),
            ("random_forest", "n_members", 1001, "at most 1000"),
            ("random_forest", "max_depth", -1, "non-negative"),
            ("random_forest", "min_samples_split", 1, "at least 2"),
            ("random_forest", "seed", -1, "non-negative"),
            ("random_forest", "n_features_per_split", 0, "at least 1"),
            ("bagging", "n_members", 0, "at least 1"),
            ("bagging", "n_members", 1001, "at most 1000"),
            ("bagging", "max_depth", -1, "non-negative"),
            ("bagging", "min_samples_split", 1, "at least 2"),
            ("bagging", "seed", -5, "non-negative"),
        ],
    )
    def test_out_of_range_hyperparameter_is_a_config_error(
        self, command, model, name, value, wording, workspace, tmp_path, capsys, caplog
    ):
        """One value outside each range a trainer declares: the config is
        refused when it is loaded, before any stage runs, whatever the
        command."""
        path = write_config(
            tmp_path,
            minimal_config_payload(workspace, hyperparameters={model: {name: value}}),
        )
        with caplog.at_level("INFO", logger="tweetsent.pipeline"):
            code = main([command, "--config", str(path), "--model", model])
        err = capsys.readouterr().err
        assert code == 1
        assert f"hyperparameters for {model}: {name} must be {wording}, got {value}" in err
        assert not [r for r in caplog.records if "pipeline stage" in r.getMessage()]

    @pytest.mark.parametrize(
        "model, name, value",
        [
            ("svm", "epochs", 10000),
            ("maxent", "epochs", 10000),
            ("random_forest", "n_members", 1000),
            ("bagging", "n_members", 1000),
        ],
    )
    def test_upper_bound_is_admissible(self, model, name, value, workspace, tmp_path):
        path = write_config(
            tmp_path,
            minimal_config_payload(workspace, hyperparameters={model: {name: value}}),
        )
        assert main(["ingest", "--config", str(path), "--model", model]) == 0

    def test_train_writes_nothing_when_a_fit_fails(self, workspace, tmp_path, capsys):
        """Naive Bayes fits, then bagging refuses its seed: train saves
        models only once every fit has succeeded, so it leaves no output
        directory behind."""
        payload = minimal_config_payload(
            workspace, hyperparameters={"bagging": {"seed": -5}}
        )
        payload["topics"]["beta"] = str(workspace / "corpus_beta.jsonl")
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        code = main(
            ["train", "--config", str(path), "--model", "naive_bayes,bagging", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "seed must be non-negative" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, blocked",
        [
            (["train", "--model", "naive_bayes"], "model_beta_naive_bayes.json"),
            (["label"], "labels_beta.csv"),
        ],
    )
    def test_a_failed_write_leaves_no_file_behind(
        self, command, blocked, workspace, tmp_path, capsys
    ):
        """A directory where the second topic's file goes fails that write
        (exit 2), and the first topic's file, written before it, is removed:
        every output set is written all or nothing."""
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        code = main([*command, "--config", str(workspace / "config.json"), "--out", str(out)])
        assert code == 2
        assert str(out / blocked) in capsys.readouterr().err
        assert [path.name for path in out.iterdir()] == [blocked]
        assert not any((out / blocked).iterdir())

    @pytest.mark.parametrize(
        "model, hyper, message",
        [
            ("svm", {"lam": 5e-324}, "linear SVM diverged"),
            ("maxent", {"eta": 1e300}, "logistic regression diverged"),
            ("maxent", {"lam": 1e300}, "logistic regression diverged"),
        ],
    )
    def test_diverging_fit_is_a_data_error(
        self, model, hyper, message, workspace, tmp_path, capsys
    ):
        """A step that overflows ends the fit with an error naming the
        hyperparameter, and without a numpy overflow warning on the way,
        which this suite's ``filterwarnings = error`` would turn into an
        internal error."""
        (name, value), = hyper.items()
        path = write_config(
            tmp_path, minimal_config_payload(workspace, hyperparameters={model: hyper})
        )
        code = main(["crossval", "--config", str(path), "--model", model])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert f"{name}={value}" in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "defect",
        [
            "cycle", "column-outside-vocabulary", "unequal-lengths", "zero-counts",
            "overflowing-counts", "negative-count",
        ],
    )
    def test_malformed_tree_file_is_a_data_error(
        self, defect, workspace, tmp_path, capsys
    ):
        args = [
            "--config", str(workspace / "config.json"),
            "--out", str(tmp_path),
            "--model", "decision_tree",
        ]
        assert main(["train", *args]) == 0
        capsys.readouterr()
        path = tmp_path / "model_alpha_decision_tree.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        tree, = document["params"]["trees"]
        assert len(tree["column"]) >= 3
        corrupt_tree(tree, defect)
        path.write_text(json.dumps(document), encoding="utf-8")
        code = main(["evaluate", *args])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: malformed model file: tree" in err

    def test_format_3_model_file_names_the_remedy(self, workspace, tmp_path, capsys):
        """A file of an earlier format is refused as a data error that
        names the file and says to retrain."""
        args = [
            "--config", str(workspace / "config.json"),
            "--out", str(tmp_path),
            "--model", "svm",
        ]
        assert main(["train", *args]) == 0
        capsys.readouterr()
        path = tmp_path / "model_alpha_svm.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        document["format_version"] = 3
        path.write_text(json.dumps(document), encoding="utf-8")
        code = main(["evaluate", *args])
        err = capsys.readouterr().err
        assert code == 2
        assert (
            f"{path}: unsupported model format version 3 (this build reads version 4); "
            "retrain with 'tweetsent train'"
        ) in err

    @pytest.mark.parametrize(
        "model, hyper, message",
        [
            ("svm", {"lam": float("nan")}, "'lam' must be finite float, got nan"),
            ("decision_tree", {"max_depth": -3}, "max_depth must be non-negative, got -3"),
            (
                "decision_tree",
                {"max_depth": -3, "bogus": 1},
                "unknown name 'bogus'; choose from max_depth, min_samples_split",
            ),
        ],
        ids=["svm-nan-lam", "tree-negative-depth", "tree-unknown-name"],
    )
    def test_model_file_hyperparameter_outside_its_trainers_is_a_data_error(
        self, model, hyper, message, workspace, tmp_path, capsys
    ):
        """A model file's ``hyper`` follows the config's rule for its kind:
        its trainer's names, types and ranges."""
        args = [
            "--config", str(workspace / "config.json"),
            "--out", str(tmp_path),
            "--model", model,
        ]
        assert main(["train", *args]) == 0
        capsys.readouterr()
        path = tmp_path / f"model_alpha_{model}.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        document["params"]["hyper"].update(hyper)
        path.write_text(json.dumps(document), encoding="utf-8")
        code = main(["evaluate", *args])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: malformed model file: {message}" in err

    @pytest.mark.parametrize(
        "hyper",
        [
            {"svm": {"lam": float("nan")}},
            {"naive_bayes": {"alpha": float("nan")}},
            {"naive_bayes": {"alpha": float("inf")}},
            {"maxent": {"eta": float("-inf")}},
        ],
    )
    def test_non_finite_hyperparameter_is_a_config_error(
        self, hyper, workspace, tmp_path, capsys
    ):
        """JSON parsing admits NaN and Infinity; a model trained with either
        labels every document alike, so the config is refused up front."""
        (model, values), = hyper.items()
        (name, _), = values.items()
        code, err = self._run(
            workspace, tmp_path, capsys, "crossval", hyperparameters=hyper
        )
        assert code == 1
        assert f"hyperparameters for {model}: {name!r} must be finite float" in err

    @pytest.mark.parametrize(
        "model, field, value, message",
        [
            ("naive_bayes", "classes", [5, 5, 5], "'classes' must be a non-empty list"),
            ("naive_bayes", "classes", ["positive"] * 3, "'classes' must be distinct labels"),
            # Reversed, the classes would move the canonical tie-break.
            ("svm", "classes", lambda tags: tags[::-1], "distinct labels in canonical order"),
            ("naive_bayes", "bias", [-1.0], "bias has shape (1,)"),
            ("svm", "bias", [0.5], "bias has shape (1,)"),
            ("svm", "weights", lambda rows: sum(rows, []), "weights has shape ("),
            ("naive_bayes", "bias", ["NaN"] * 3, "bias must hold numbers"),
            ("naive_bayes", "bias", [float("nan")] * 3, "bias holds a NaN"),
            ("naive_bayes", "hyper", {"alpha": "NaN"}, "'alpha' must be finite float, got 'NaN'"),
            ("naive_bayes", "hyper", {"alpha": -1.0}, "alpha must be positive, got -1.0"),
            ("maxent", "loss_trace", [1.0, "NaN"], "loss_trace must hold numbers"),
        ],
    )
    def test_malformed_model_parameters_are_a_data_error(
        self, model, field, value, message, workspace, tmp_path, capsys
    ):
        """Each of these once loaded and labelled every document, or raised
        inside numpy; the class list must be distinct labels in canonical
        order, and every parameter array must have its exact shape and
        finite numbers."""
        args = [
            "--config", str(workspace / "config.json"),
            "--out", str(tmp_path),
            "--model", model,
        ]
        assert main(["train", *args]) == 0
        capsys.readouterr()
        path = tmp_path / f"model_alpha_{model}.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        # A callable rewrites the stored value; anything else replaces it.
        fields = document if field == "classes" else document["params"]
        fields[field] = value(fields[field]) if callable(value) else value
        path.write_text(json.dumps(document), encoding="utf-8")
        code = main(["evaluate", *args])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: " in err and message in err

    def test_model_with_a_repeated_term_is_a_data_error(self, workspace, tmp_path, capsys):
        """A model file whose vocabulary lists a term twice is refused on
        load, before its vocabulary is compared with the config's."""
        args = [
            "--config", str(workspace / "config.json"),
            "--out", str(tmp_path),
            "--model", "naive_bayes",
        ]
        assert main(["train", *args]) == 0
        capsys.readouterr()
        path = tmp_path / "model_alpha_naive_bayes.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        document["vocabulary"][-1] = document["vocabulary"][0]
        path.write_text(json.dumps(document), encoding="utf-8")
        code = main(["evaluate", *args])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {path}: 'vocabulary' must list distinct terms" in err

    def test_model_with_a_class_the_labels_lack_is_a_data_error(
        self, workspace, tmp_path, capsys
    ):
        """A lexicon without negative words leaves no Negative document,
        while the saved model still predicts Negative."""
        args = [
            "--config", str(workspace / "config.json"),
            "--out", str(tmp_path),
            "--model", "naive_bayes",
        ]
        assert main(["train", *args]) == 0
        capsys.readouterr()
        lexicon = tmp_path / "positive_only.tsv"
        lexicon.write_text("good\t2.0\nlove\t1.0\n", encoding="utf-8")
        code = main(["evaluate", *args, "--lexicon", str(lexicon)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{tmp_path / 'model_alpha_naive_bayes.json'}: model class Negative is not" in err

    @pytest.mark.parametrize("sign", [1, -1])
    def test_model_whose_margins_overflow_is_a_data_error(
        self, sign, workspace, tmp_path, capsys
    ):
        """Every weight is finite, so the file loads, but the margins
        overflow: they are refused, with no numpy warning (which pytest
        turns into an error, and so into exit 3).  A margin of -inf would
        pass a check on the softmax scores, whose share for it is 0."""
        args = [
            "--config", str(workspace / "config.json"),
            "--out", str(tmp_path),
            "--model", "maxent",
        ]
        assert main(["train", *args]) == 0
        capsys.readouterr()
        path = tmp_path / "model_alpha_maxent.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        weights = document["params"]["weights"]
        weights[0] = [sign * sys.float_info.max] * len(weights[0])
        path.write_text(json.dumps(document), encoding="utf-8")
        code = main(["evaluate", *args])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: a margin is not finite" in err

    @pytest.mark.parametrize(
        "model, name",
        [
            (model, name)
            for model in MODEL_ORDER
            for name, declared in hyperparameters(TRAINERS[model]).items()
            if declared.types == (float,)
        ],
    )
    def test_float_hyperparameter_at_the_float_maximum_is_not_an_internal_error(
        self, model, name, workspace, tmp_path, capsys
    ):
        """The largest finite float passes every range check; a fit it
        overflows must end in the trainer's own error (exit 2) naming the
        topic, not in a NaN score or a numpy warning (exit 3)."""
        payload = minimal_config_payload(
            workspace, hyperparameters={model: {name: sys.float_info.max}}
        )
        code = main(["crossval", "--config", str(write_config(tmp_path, payload)), "--model", model])
        err = capsys.readouterr().err
        assert code in (0, 2)
        if code == 2:
            assert "error: evaluate: topic 'alpha': " in err
        if model == "naive_bayes":
            assert code == 2 and "lower alpha=1.7976931348623157e+308" in err

    @pytest.mark.parametrize("command", ["ingest", "label"])
    def test_ingest_and_label_check_what_train_checks(
        self, command, workspace, tmp_path, capsys
    ):
        """Both run the pipeline's data stages, so a malformed lexicon and a
        topic smaller than ``folds`` fail as they do for ``train``."""
        lexicon = tmp_path / "broken.tsv"
        lexicon.write_text("good\tvery\n", encoding="utf-8")
        config = str(workspace / "config.json")
        assert main([command, "--config", config, "--lexicon", str(lexicon)]) == 2
        assert f"error: ingest: {lexicon}: line 1: unparseable weight 'very'" in capsys.readouterr().err
        assert main([command, "--config", config, "--folds", "25"]) == 2
        assert "too few for 'folds' = 25" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "crossval", "train", "report"])
    def test_min_df_that_keeps_no_term_is_a_data_error(
        self, command, workspace, tmp_path, capsys
    ):
        """With no term every model would only predict the prior, and
        ``train`` would save models with no vocabulary."""
        out = tmp_path / "out"
        code = main([
            command, "--config", str(workspace / "config.json"),
            "--min-df", "100000", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert (
            f"error: featurize: {workspace / 'corpus_alpha.jsonl'}: topic 'alpha' has no "
            "term in at least 'min_df' = 100000 documents"
        ) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "crossval", "train", "report"])
    def test_corpus_of_stopwords_only_is_a_data_error(
        self, command, workspace, tmp_path, capsys
    ):
        corpus = tmp_path / "corpus.jsonl"
        docs = [_doc("alpha", i, "the a THE") for i in range(4)]
        corpus.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
        path = write_config(
            tmp_path,
            minimal_config_payload(
                workspace, topics={"alpha": str(corpus)},
                stopwords=str(workspace / "stopwords.txt"), folds=2,
            ),
        )
        out = tmp_path / "out"
        code = main([command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: featurize: {corpus}: topic 'alpha' has no term in at least 'min_df' = 1" in err
        assert not out.exists()

    def test_lexicon_score_overflow_is_a_data_error(self, workspace, tmp_path, capsys):
        """Each weight is finite, but their float sum for a document is not,
        so ``label`` refuses the lexicon and writes no labels file."""
        lexicon = tmp_path / "huge.tsv"
        lexicon.write_text("good\t1e308\nbad\t-1e308\n", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        docs = [_doc("alpha", 0, "good good bad bad bad"), _doc("alpha", 1, "good")]
        corpus.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
        path = write_config(
            tmp_path, minimal_config_payload(workspace, topics={"alpha": str(corpus)}, folds=2)
        )
        out = tmp_path / "labels"
        code = main(["label", "--config", str(path), "--lexicon", str(lexicon), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: label: {corpus}: the score of document 0 (0-based) is inf" in err
        assert err.count(str(corpus)) == 1
        assert not out.exists()

    def test_ingest_is_logged_once_per_topic(self, workspace, caplog):
        """The lexicon and stopwords load once for all topics, inside no
        stage line of their own."""
        with caplog.at_level("INFO", logger="tweetsent.pipeline"):
            assert main(["label", "-v", "--config", str(workspace / "config.json")]) == 0
        stages = [r.getMessage() for r in caplog.records]
        assert stages.count("pipeline stage: ingest") == 2
        assert stages.count("pipeline stage: label") == 2

    def test_label_warns_about_documents_of_another_topic(
        self, workspace, tmp_path, caplog
    ):
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(
            (workspace / "corpus_alpha.jsonl").read_text(encoding="utf-8")
            + json.dumps(_doc("beta", 99, "good meal")) + "\n",
            encoding="utf-8",
        )
        path = write_config(
            tmp_path, minimal_config_payload(workspace, topics={"alpha": str(mixed)})
        )
        assert main(["label", "--config", str(path)]) == 0
        assert "ignoring 1 documents whose topic is not 'alpha'" in caplog.text

    @pytest.mark.parametrize(
        "target, expected_code",
        [
            ("corpus_alpha.jsonl", 2),
            ("lexicon.tsv", 2),
            ("stopwords.txt", 2),
            ("model_alpha_naive_bayes.json", 2),
            ("config.json", 1),
        ],
    )
    def test_file_that_is_not_utf8_is_a_user_error(
        self, target, expected_code, workspace, tmp_path, capsys
    ):
        for name in ("corpus_alpha.jsonl", "corpus_beta.jsonl", "lexicon.tsv",
                     "stopwords.txt", "config.json"):
            (tmp_path / name).write_bytes((workspace / name).read_bytes())
        args = ["--config", str(tmp_path / "config.json"), "--out", str(tmp_path),
                "--model", "naive_bayes"]
        assert main(["train", *args]) == 0
        capsys.readouterr()
        path = tmp_path / target
        path.write_bytes(b"\xff" + path.read_bytes())
        code = main(["evaluate", *args])
        assert code == expected_code
        assert str(path) in capsys.readouterr().err


class TestStderrLog:
    """The CLI prints the package's warnings as ``warning:`` lines, and its
    stage lines only under the ``-v`` of the call at hand."""

    @pytest.mark.parametrize("flags", [[], ["-v"]])
    def test_a_one_sided_lexicon_prints_one_warning_line(
        self, flags, workspace, tmp_path, capsys
    ):
        lexicon = tmp_path / "positive_only.tsv"
        lexicon.write_text("good\t2.0\nlove\t1.0\n", encoding="utf-8")
        config = str(workspace / "config.json")
        assert main(["ingest", "--config", config, "--lexicon", str(lexicon), *flags]) == 0
        lines = capsys.readouterr().err.splitlines()
        warning = (
            f"warning: lexicon {lexicon} has no negative entries; "
            "every document will lean one way"
        )
        assert [line for line in lines if line.startswith("warning:")] == [warning]
        if not flags:
            assert lines == [warning]

    def test_verbose_ends_with_its_call(self, workspace, capsys):
        config = str(workspace / "config.json")
        assert main(["ingest", "-v", "--config", config]) == 0
        assert "tweetsent.pipeline: pipeline stage: ingest" in capsys.readouterr().err
        assert main(["ingest", "--config", config]) == 0
        assert capsys.readouterr().err == ""


class TestEveryRefusalNamesItsFile:
    """A refused input is named once: the file first, then a record's JSONL
    line or CSV row; a per-topic stage error names its topic or corpus."""

    @staticmethod
    def _two_topics(workspace, tmp_path, beta_records=None, suffix=".jsonl"):
        """A two-topic config over copies of the workspace's inputs, whose
        'beta' corpus holds ``beta_records`` in the format of ``suffix``."""
        beta = tmp_path / f"beta{suffix}"
        records = beta_records or _topic_docs("beta", 10, 6, 8)
        if suffix == ".csv":
            with open(beta, "w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(records[0]))
                writer.writeheader()
                writer.writerows(records)
        else:
            beta.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        alpha = tmp_path / "alpha.jsonl"
        alpha.write_bytes((workspace / "corpus_alpha.jsonl").read_bytes())
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_bytes((workspace / "lexicon.tsv").read_bytes())
        payload = {
            "topics": {"alpha": str(alpha), "beta": str(beta)},
            "lexicon": str(lexicon),
            "out_dir": str(tmp_path / "out"),
        }
        return write_config(tmp_path, payload), alpha, beta, lexicon

    @staticmethod
    def _refused(argv, capsys, code=2):
        assert main(argv) == code
        return capsys.readouterr().err

    @pytest.mark.parametrize("suffix, unit", [(".jsonl", "line"), (".csv", "row")])
    def test_a_bad_timestamp_in_the_second_corpus_names_it(
        self, workspace, tmp_path, capsys, suffix, unit
    ):
        records = _topic_docs("beta", 10, 6, 8)
        records[2]["created_at"] = "x" + records[2]["created_at"]
        config, alpha, beta, _ = self._two_topics(workspace, tmp_path, records, suffix)
        err = self._refused(["ingest", "--config", str(config)], capsys)
        assert err.startswith(f"error: ingest: {beta}: {unit} 3: invalid created_at 'x2024-")
        assert err.count(str(beta)) == 1 and str(alpha) not in err

    @pytest.mark.parametrize("suffix, unit", [(".jsonl", "line"), (".csv", "row")])
    def test_a_repeated_id_names_its_file_and_record(
        self, workspace, tmp_path, capsys, suffix, unit
    ):
        records = _topic_docs("beta", 10, 6, 8)
        records[3]["id"] = records[1]["id"]
        config, _, beta, _ = self._two_topics(workspace, tmp_path, records, suffix)
        err = self._refused(["ingest", "--config", str(config)], capsys)
        assert err == f"error: ingest: {beta}: {unit} 4: duplicate tweet id 'beta-001'\n"

    def test_an_unparseable_lexicon_weight_names_the_lexicon_and_line(
        self, workspace, tmp_path, capsys
    ):
        config, _, _, lexicon = self._two_topics(workspace, tmp_path)
        lexicon.write_text("# weights\ngood\t2.0\nbad\t-2.0\nlove\tvery\n", encoding="utf-8")
        err = self._refused(["ingest", "--config", str(config)], capsys)
        assert err == f"error: ingest: {lexicon}: line 4: unparseable weight 'very'\n"

    def test_a_model_file_of_unknown_kind_names_it(self, workspace, tmp_path, capsys):
        config, _, _, _ = self._two_topics(workspace, tmp_path)
        args = ["--config", str(config), "--model", "naive_bayes"]
        assert main(["train", *args]) == 0
        capsys.readouterr()
        path = tmp_path / "out" / model_filename("beta", "naive_bayes")
        document = json.loads(path.read_text(encoding="utf-8"))
        document["model_kind"] = "perceptron"
        path.write_text(json.dumps(document), encoding="utf-8")
        err = self._refused(["evaluate", *args], capsys)
        assert err == f"error: {path}: unknown model kind 'perceptron'\n"

    @pytest.mark.parametrize("command, stage", [("crossval", "evaluate"), ("train", "train")])
    def test_a_single_class_topic_names_the_topic(
        self, workspace, tmp_path, capsys, command, stage
    ):
        """A lexicon that matches no token labels every document Neutral,
        which the SVM cannot train on."""
        config, _, _, lexicon = self._two_topics(workspace, tmp_path)
        lexicon.write_text("zzz\t1.0\nyyy\t-1.0\n", encoding="utf-8")
        err = self._refused([command, "--config", str(config), "--model", "svm"], capsys)
        assert err == (
            f"error: {stage}: topic 'alpha': SVM training needs at least two classes, "
            "got ['Neutral']\n"
        )
