"""Golden JSON output of the bundled demo config.

Pins the ``--format json`` stdout of all seven subcommands on the demo
config, the bundle's ``report_<topic>.json`` and ``comparison.json``, and the
``run`` block and file names of its ``manifest.json``.  Paths are written
relative to the output directory, as in ``test_cli_golden.py``, or to the
config's directory for the corpora ``ingest`` names.

Keys, strings, integers, booleans and nulls must match exactly.  Floats may
differ in their last bits between machines (BLAS sums), so they are compared
to a relative tolerance of 1e-9.  ``report`` prints file paths, not JSON, so
its stdout is pinned as text.

The expected data lives in ``golden/cli_demo_json.json``.  Regenerate it only
for a deliberate behaviour change, and say so in the change log:

    PYTHONPATH=src python tests/test_cli_json_golden.py
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from tweetsent.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = REPO_ROOT / "data" / "demo" / "config.json"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "cli_demo_json.json"

# ``train`` before ``evaluate``: evaluate scores the models train saved.
COMMANDS = ("ingest", "label", "train", "evaluate", "crossval", "report", "compare")
REL_TOL = 1e-9


def run_json(command: str, out_dir: Path):
    """One subcommand's JSON stdout (``report``'s as text); fails unless it exits 0."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(
            [command, "--config", str(DEMO_CONFIG), "--out", str(out_dir), "--format", "json"]
        )
    assert code == 0, f"{command} exited {code}"
    text = buffer.getvalue().replace(f"{out_dir}/", "").replace(f"{DEMO_CONFIG.parent}/", "")
    return text if command == "report" else json.loads(text)


def collect_json_behaviour(out_dir: Path) -> dict:
    """Run every subcommand into ``out_dir`` and gather its JSON outputs."""
    stdout = {command: run_json(command, out_dir) for command in COMMANDS}
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    bundle = {
        path.name: json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(out_dir.glob("report_*.json")) + [out_dir / "comparison.json"]
    }
    bundle["manifest.json"] = {"run": manifest["run"], "files": sorted(manifest["files"])}
    return {"stdout": stdout, "bundle": bundle}


def assert_matches(observed, expected, where: str = "$") -> None:
    """Exact match, except that floats agree to ``REL_TOL``."""
    if isinstance(expected, float) and type(observed) is float:
        assert math.isclose(observed, expected, rel_tol=REL_TOL), (
            f"{where}: {observed!r} != {expected!r}"
        )
        return
    assert type(observed) is type(expected), (
        f"{where}: {type(observed).__name__} != {type(expected).__name__}"
    )
    if isinstance(expected, dict):
        assert sorted(observed) == sorted(expected), f"{where}: keys differ"
        for key, value in expected.items():
            assert_matches(observed[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(observed) == len(expected), f"{where}: lengths differ"
        for i, (got, want) in enumerate(zip(observed, expected)):
            assert_matches(got, want, f"{where}[{i}]")
    else:
        assert observed == expected, f"{where}: {observed!r} != {expected!r}"


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return collect_json_behaviour(tmp_path_factory.mktemp("cli_json_golden"))


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", COMMANDS)
def test_json_stdout_matches(observed, expected, command):
    assert_matches(observed["stdout"][command], expected["stdout"][command], command)


def test_bundle_json_matches(observed, expected):
    assert sorted(observed["bundle"]) == sorted(expected["bundle"])
    for name, document in expected["bundle"].items():
        assert_matches(observed["bundle"][name], document, name)


@pytest.mark.parametrize(
    "observed_value, expected_value",
    [
        (0.1 + 0.2, 0.3),
        ({"a": [1, "x", None, True]}, {"a": [1, "x", None, True]}),
    ],
)
def test_matcher_accepts_last_bit_float_differences(observed_value, expected_value):
    assert_matches(observed_value, expected_value)


@pytest.mark.parametrize(
    "observed_value, expected_value",
    [
        (0.3 * (1 + 1e-8), 0.3),
        (1.0, 1),
        (1, 1.0),
        (True, 1),
        ({"a": 1, "b": 2}, {"a": 1}),
        ([1, 2], [1, 2, 3]),
        ("a/b", "b"),
    ],
)
def test_matcher_rejects_real_differences(observed_value, expected_value):
    with pytest.raises(AssertionError):
        assert_matches(observed_value, expected_value)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        behaviour = collect_json_behaviour(Path(scratch))
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(behaviour, ensure_ascii=False, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
