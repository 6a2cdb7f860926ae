"""Start-up cost of the package and the CLI, each in a fresh interpreter.

``import tweetsent`` loads no numpy, so ``python -m tweetsent.cli`` can set
numpy's BLAS thread count before numpy loads, and ``import tweetsent.cli``
loads no ``hashlib``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code, **env):
    """stdout of ``python -c code`` with ``src`` importable, with
    OPENBLAS_NUM_THREADS unset unless given."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), environ.get("PYTHONPATH")) if p
    )
    environ.update(env)
    result = subprocess.run(
        [sys.executable, "-c", code], env=environ, capture_output=True, text=True, encoding="utf-8",
        check=True, timeout=60,
    )
    return result.stdout.strip()


def test_package_import_leaves_numpy_unloaded():
    assert run_python("import sys, tweetsent; print('numpy' in sys.modules)") == "False"


def test_lexicon_import_leaves_numpy_unloaded():
    """Weak labelling runs on an interpreter without numpy."""
    code = "import sys, tweetsent.lexicon; print('numpy' in sys.modules)"
    assert run_python(code) == "False"


def test_cli_import_leaves_hashlib_unloaded():
    """Only a command that writes a report bundle hashes it, so only that
    one pays for loading OpenSSL."""
    code = (
        "import sys; before = 'hashlib' in sys.modules; import tweetsent.cli; "
        "print(before or 'hashlib' not in sys.modules)"
    )
    assert run_python(code) == "True"


def test_cli_defaults_openblas_to_one_thread():
    code = "import os, tweetsent.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code) == "1"


def test_cli_keeps_a_preset_openblas_thread_count():
    code = "import os, tweetsent.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2"
