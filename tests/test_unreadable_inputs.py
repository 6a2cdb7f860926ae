"""Every loader refuses an input file it cannot read or parse with its own error.

One function reads every input file, so a missing path and a directory fail
alike in each loader: with the loader's own error class, which the CLI maps
to exit 1 (config) or 2 (data), and a message that names the path.  One
function parses every JSON input, so a value nested too deeply for the
parser, an integer of more digits than Python converts, or a string that
escapes a lone surrogate, fails alike in the config, corpus and model
loaders.
"""

import json
import sys
from pathlib import Path

import pytest

from tweetsent.cli import main
from tweetsent.corpus import load_corpus, load_stopwords
from tweetsent.datagen import TOPICS, write_demo_data
from tweetsent.exceptions import (
    ConfigError,
    CorpusError,
    DataError,
    LexiconError,
    ModelFormatError,
    parse_json,
)
from tweetsent.lexicon import load_lexicon
from tweetsent.models import load_model
from tweetsent.pipeline import load_config

from conftest import DEEP_JSON

# name -> (loader, the error it raises for a file it cannot read)
LOADERS = {
    "corpus": (load_corpus, CorpusError),
    "stopwords": (load_stopwords, CorpusError),
    "lexicon": (load_lexicon, LexiconError),
    "config": (load_config, ConfigError),
    "model": (load_model, ModelFormatError),
}


@pytest.mark.parametrize("what", ["missing", "directory"])
@pytest.mark.parametrize("name", LOADERS)
def test_an_unreadable_input_raises_the_loaders_own_error(name, what, tmp_path):
    load, error = LOADERS[name]
    path = tmp_path / f"{name}-input"
    if what == "directory":
        path.mkdir()
    with pytest.raises(error) as raised:
        load(path)
    assert type(raised.value) is error
    assert str(path) in str(raised.value)


def _with_raw_field(document: dict, raw: str, *keys: str) -> str:
    """``document`` as JSON text, with the field at ``keys`` written as the
    JSON text ``raw``, which ``json.dumps`` cannot write."""
    field = document
    for key in keys[:-1]:
        field = field[key]
    field[keys[-1]] = "@raw@"
    return json.dumps(document).replace('"@raw@"', raw)


@pytest.fixture()
def workspace(tmp_path):
    """A small two-topic datagen workspace with naive Bayes models trained
    into ``out``, and the command-line flags that name them."""
    files = write_demo_data(tmp_path, seed=1, docs_per_topic=20)
    out = tmp_path / "out"
    args = ["--config", str(files.config), "--out", str(out), "--model", "naive_bayes"]
    assert main(["train", *args]) == 0
    return files, out, args


def _config(files, out, raw, *keys) -> Path:
    document = json.loads(files.config.read_text(encoding="utf-8"))
    files.config.write_text(_with_raw_field(document, raw, *keys), encoding="utf-8")
    return files.config


def _corpus(files, out, raw, *keys) -> Path:
    """The first corpus, with ``raw`` in its second line."""
    path = files.corpora[0]
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = _with_raw_field(json.loads(lines[1]), raw, *keys)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _model(files, out, raw, *keys) -> Path:
    path = out / f"model_{TOPICS[0]}_naive_bayes.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(_with_raw_field(document, raw, *keys), encoding="utf-8")
    return path


# name -> (what writes a raw JSON value into it, its loader, the loader's
# error, where the message says it is, the CLI command that reads it, its
# exit code)
INPUTS = {
    "config": (_config, load_config, ConfigError, "", "ingest", 1),
    "corpus": (_corpus, load_corpus, CorpusError, ": line 2", "ingest", 2),
    "model": (_model, load_model, ModelFormatError, "", "evaluate", 2),
}


def _refused(name, workspace, capsys, raw, keys, reason):
    """Write ``raw`` at ``keys`` of the ``name`` input: its loader raises
    its own error, naming the file (and the line of a corpus) and
    ``reason``, and the CLI exits 1 for a config or 2 for a data file, not
    3 ("internal error")."""
    files, out, _ = workspace
    _refused_at(name, workspace, capsys, INPUTS[name][0](files, out, raw, *keys), reason)


def _refused_at(name, workspace, capsys, path, reason):
    """:func:`_refused`'s checks of the ``name`` input ``path``, once written."""
    _, _, args = workspace
    _, load, error, line, command, code = INPUTS[name]
    message = f"{path}{line}: not valid JSON ({reason})"
    with pytest.raises(error) as raised:
        load(path)
    assert type(raised.value) is error
    assert str(raised.value) == message
    capsys.readouterr()
    assert main([command, *args]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "internal error" not in err


# Where each input takes a nested value, and an integer.
DEEP_KEYS = {"config": ("topics",), "corpus": ("text",), "model": ("params", "bias")}
LONG_KEYS = {"config": ("seed",), "corpus": ("extra",), "model": ("format_version",)}

# The most digits Python converts to an integer: 0 where there is no limit,
# as before Python 3.10.7.
INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("name", INPUTS)
def test_a_too_deeply_nested_input_is_the_loaders_error(name, workspace, capsys):
    """A JSON value nested past the parser's recursion limit is no valid JSON."""
    _refused(name, workspace, capsys, DEEP_JSON, DEEP_KEYS[name], "nested too deeply")


@pytest.mark.skipif(INT_MAX_STR_DIGITS == 0, reason="no limit on an integer's digits")
@pytest.mark.parametrize("name", INPUTS)
def test_an_integer_too_long_for_python_is_the_loaders_error(name, workspace, capsys):
    """A JSON integer one digit past the most Python converts is no valid
    JSON either."""
    digits = INT_MAX_STR_DIGITS + 1
    reason = (
        f"Exceeds the limit ({INT_MAX_STR_DIGITS} digits) for integer string "
        f"conversion: value has {digits} digits"
    )
    _refused(name, workspace, capsys, "9" * digits, LONG_KEYS[name], reason)


# Where each input takes a string that escapes a lone surrogate: a topic
# name (an object key), a tweet id, a term.
SURROGATE_FIELDS = {
    "config": (("topics",), '{"t\\ud83d": "corpus.jsonl"}'),
    "corpus": (("id",), '"x\\ud83d"'),
    "model": (("vocabulary", 0), '"x\\ud83d"'),
}


@pytest.mark.parametrize("name", INPUTS)
def test_a_lone_surrogate_is_the_loaders_error(name, workspace, capsys):
    """Half a UTF-16 surrogate pair, escaped, is no valid JSON (RFC 7493
    forbids it, and UTF-8 cannot write it): once loaded, such a topic name
    or tweet id stopped ``ingest`` or ``label --out`` with exit 3 where
    it was written out."""
    keys, raw = SURROGATE_FIELDS[name]
    files, out, _ = workspace
    path = INPUTS[name][0](files, out, raw, *keys)
    text = path.read_text(encoding="utf-8")
    if name == "corpus":
        text = text.splitlines()[1]
    reason = f"unpaired surrogate '\\ud83d' at char {text.index(chr(92) + 'ud83d')}"
    _refused_at(name, workspace, capsys, path, reason)


@pytest.mark.parametrize(
    "text, value",
    [
        ('["\\ud83d\\ude00"]', ["\U0001f600"]),
        ('{"\\uD83D\\uDE00": "\\u00e9"}', {"\U0001f600": "\u00e9"}),
        ('["\\\\ud83d"]', ["\\ud83d"]),
    ],
    ids=["pair", "pair-in-key", "escaped-backslash"],
)
def test_a_surrogate_pair_and_an_escaped_backslash_parse(text, value):
    assert parse_json(text, DataError) == value


@pytest.mark.parametrize(
    "text, char",
    [
        ('["\\ud83d"]', 2),
        ('{"k\\udc00": 1}', 3),
        ('["\\ude00\\ud83d"]', 2),
        ('["\\ud83d\\ud83d\\ude00"]', 2),
        ('["\\\\\\ud83d"]', 4),
    ],
    ids=["high", "low-in-key", "reversed-pair", "high-before-pair", "after-escaped-backslash"],
)
def test_a_lone_surrogate_is_no_valid_json(text, char):
    reason = rf"unpaired surrogate '\\u[dD][0-9a-f]{{3}}' at char {char}"
    with pytest.raises(DataError, match=rf"^not valid JSON \({reason}\)$"):
        parse_json(text, DataError)
