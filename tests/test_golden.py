"""Golden behaviour of the bundled demo run.

Pins, byte for byte, the demo run's ``metrics_<topic>.csv`` and
``distribution_<topic>.json``, and the label each model fitted on a topic's
full data predicts for every document of that topic.  Raw floats are not
pinned: BLAS sums may differ in their last bits between machines, while the
two-decimal metric table and the labels are the stable contract.

The expected data lives in ``golden/demo.json``.  Regenerate it only for a
deliberate behaviour change, and say so in the change log:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from tweetsent.lexicon import SentimentLabel
from tweetsent.pipeline import (
    build_bundle,
    evaluate_topic,
    load_config,
    load_topic_data,
    train_topic_models,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = REPO_ROOT / "data" / "demo" / "config.json"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "demo.json"

# One character per predicted label keeps a 500-document topic on one line.
LABEL_CODES = {
    SentimentLabel.POSITIVE: "+",
    SentimentLabel.NEUTRAL: "0",
    SentimentLabel.NEGATIVE: "-",
}


def collect_demo_behaviour(out_dir: Path) -> dict:
    """Run the demo config and gather every pinned output."""
    config = load_config(DEMO_CONFIG, out_dir=str(out_dir))
    files: dict[str, str] = {}
    predictions: dict[str, dict[str, str]] = {}
    reports = []
    for data in load_topic_data(config):
        fitted = train_topic_models(config, data)
        predictions[data.topic] = {}
        for key in config.models:
            model = fitted[key]
            label_idx, _ = model.predict_batch(data.matrices[config.weighting[key]])
            predictions[data.topic][key] = "".join(
                LABEL_CODES[model.classes[i]] for i in label_idx
            )
        reports.append(evaluate_topic(config, data))
    bundle, _ = build_bundle(config, tuple(reports))
    for report in reports:
        for name in (f"metrics_{report.topic}.csv", f"distribution_{report.topic}.json"):
            files[name] = bundle[name].decode("utf-8")
    return {"files": files, "predictions": predictions}


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return collect_demo_behaviour(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_bundle_files_match_byte_for_byte(observed, expected):
    assert sorted(observed["files"]) == sorted(expected["files"])
    for name, text in expected["files"].items():
        assert observed["files"][name] == text, name


def test_every_document_keeps_its_predicted_label(observed, expected):
    assert observed["predictions"].keys() == expected["predictions"].keys()
    for topic, per_model in expected["predictions"].items():
        assert observed["predictions"][topic].keys() == per_model.keys()
        for key, labels in per_model.items():
            got = observed["predictions"][topic][key]
            assert len(got) == len(labels)
            changed = [i for i, (a, b) in enumerate(zip(got, labels)) if a != b]
            assert not changed, f"{key}@{topic}: documents {changed[:10]} changed label"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        behaviour = collect_demo_behaviour(Path(scratch))
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(behaviour, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
