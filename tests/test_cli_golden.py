"""Golden command-line output of the bundled demo config.

Pins, byte for byte, the ``--format csv`` stdout of ``ingest``, ``label``,
``train``, ``evaluate``, ``crossval`` and ``compare`` on the demo config,
and the ``labels_<topic>.csv`` files ``label --out`` writes.  Paths in the
``train`` table are written relative to the output directory.  JSON stdout
carries raw floats, whose last bits may differ between machines (see
``test_golden.py``), so ``test_cli_json_golden.py`` pins it to a tolerance;
the CSV tables print two decimals and are pinned here byte for byte.

The expected data lives in ``golden/cli_demo.json``.  Regenerate it only for
a deliberate behaviour change, and say so in the change log:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from tweetsent.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = REPO_ROOT / "data" / "demo" / "config.json"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "cli_demo.json"

# ``train`` before ``evaluate``: evaluate scores the models train saved.
COMMANDS = ("ingest", "label", "train", "evaluate", "crossval", "compare")


def run_csv(command: str, out_dir: Path) -> str:
    """One subcommand's CSV stdout; fails unless it exits 0."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(
            [command, "--config", str(DEMO_CONFIG), "--out", str(out_dir), "--format", "csv"]
        )
    assert code == 0, f"{command} exited {code}"
    return buffer.getvalue().replace(f"{out_dir}/", "")


def collect_cli_behaviour(out_dir: Path) -> dict:
    """Run every pinned subcommand into ``out_dir`` and gather its outputs."""
    stdout = {command: run_csv(command, out_dir) for command in COMMANDS}
    files = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(out_dir.glob("labels_*.csv"))
    }
    return {"stdout": stdout, "files": files}


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return collect_cli_behaviour(tmp_path_factory.mktemp("cli_golden"))


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", COMMANDS)
def test_csv_stdout_matches_byte_for_byte(observed, expected, command):
    assert observed["stdout"][command] == expected["stdout"][command]


def test_label_files_match_byte_for_byte(observed, expected):
    assert sorted(observed["files"]) == sorted(expected["files"])
    for name, text in expected["files"].items():
        assert observed["files"][name] == text, name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        behaviour = collect_cli_behaviour(Path(scratch))
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(behaviour, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
