"""Golden model files: the bytes ``train`` writes for the demo config.

Pins the SHA-256 of every file that ``tweetsent train`` writes on the
bundled demo config for the SVM and the three tree models, so a change to
how models are held or encoded must reproduce each file byte for byte.
Naive Bayes and maxent are left out: their parameters go through
``np.log`` and ``np.exp``, whose last bits may differ between CPUs.  The
SVM and tree fits make no such call and no BLAS call, so these hashes hold
on any CPU and under any OpenBLAS kernel.

The expected hashes live in ``golden/model_files.json``.  Regenerate them
only for a deliberate behaviour change, and say so in the change log:

    PYTHONPATH=src python tests/test_golden_model_files.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from tweetsent.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = REPO_ROOT / "data" / "demo" / "config.json"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "model_files.json"

MODELS = ("svm", "decision_tree", "random_forest", "bagging")


def collect_model_file_hashes(out_dir: Path) -> dict:
    """SHA-256 of each file ``train`` writes into ``out_dir``, by file name."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(
            ["train", "--config", str(DEMO_CONFIG), "--out", str(out_dir),
             "--model", ",".join(MODELS)]
        )
    assert code == 0, f"train exited {code}"
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return collect_model_file_hashes(tmp_path_factory.mktemp("model_files"))


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_model_file_is_pinned(observed, expected):
    assert sorted(observed) == sorted(expected)
    assert len(expected) == 2 * len(MODELS)  # two demo topics


def test_every_model_file_is_byte_identical(observed, expected):
    changed = [name for name, digest in expected.items() if observed.get(name) != digest]
    assert not changed, f"model files changed: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        hashes = collect_model_file_hashes(Path(scratch))
    GOLDEN_PATH.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
