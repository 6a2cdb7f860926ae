"""Each script under ``demos/`` runs to completion, in a fresh interpreter.

A demo runs as ``python -W error``, so a numpy warning fails it, as
``filterwarnings = error`` fails a test, and with
``PYTHONWARNDEFAULTENCODING=1``, so does a text-mode open that names no
encoding.  It gets a ``TMPDIR`` of its own, which must be empty once it
exits: a demo removes the temporary files it makes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_under_warnings_as_errors(demo, tmp_path):
    environ = dict(os.environ, TMPDIR=str(tmp_path), PYTHONWARNDEFAULTENCODING="1")
    environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), environ.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=environ,
        capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []
