"""Seeded fuzzing of the command line: a mutated config, corpus, lexicon or
saved model file is a user error, so ``main()`` returns 0, 1 or 2 and never
3 ("internal error").  A hyperparameter outside the range its trainer
declares is a config error whatever the command, so it returns exactly 1.
An exit 2 in which a mutated corpus, lexicon, stopword or model file's own
loader refuses it names that file, once.

Each test draws its mutations from one numpy generator with a fixed seed,
so a failure names a case that replays exactly.  A huge value sizes no
loop: every hyperparameter that sets an amount of work declares an upper
bound, so ``epochs`` or ``n_members`` of ``10**30`` is a config error.  A
value nested too deeply for the JSON parser, or an integer of more digits
than Python converts, is no valid JSON, a user error like any other.
"""

import json
import shutil
import sys

import numpy as np
import pytest

from tweetsent.cli import main
from tweetsent.exceptions import HyperparameterError
from tweetsent.models import TRAINERS, check_hyperparameters, hyperparameters
from tweetsent.pipeline import MODEL_ORDER, MODELS

from conftest import DEEP_JSON

N_CASES = 400
# The exit codes of success and of the user errors.
NOT_INTERNAL = (0, 1, 2)
SMALL_HYPER = {
    "svm": {"epochs": 3},
    "maxent": {"epochs": 5},
    "random_forest": {"n_members": 3},
    "bagging": {"n_members": 3},
}

POSITIVE = ["good love meal", "love good snack", "good fine lunch"]
NEGATIVE = ["bad awful queue", "awful bad noise", "bad cold fries"]
NEUTRAL = ["table chair note", "chair table memo", "door seat wall"]

# Stand for JSON texts that json.dumps cannot write, and _dumps writes in
# their place: DEEP for DEEP_JSON, an array nested past the JSON parser's
# recursion limit, and LONG for an integer one digit longer than Python
# converts (where Python sets no such limit, a plain long integer).
DEEP = "@deep@"
LONG = "@long@"
LONG_JSON = "9" * ((getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300) + 1)

# JSON values a mutation puts in place of a config, record or model field:
# among them a path no file can have, and a valid local time whose UTC
# instant falls in year 10000.
VALUES = [
    None, True, False, -1, 0, 1, 3, 2.5, float("nan"), float("inf"), -float("inf"),
    sys.float_info.max, -sys.float_info.max,
    "", "abc", "positive", "2024-13-45T99:00:00Z", "9999-12-31T23:30:00-01:00", "a\0b",
    [], [1], ["all"], ["abc", 1], {}, {"a": 1}, [[0.5]], DEEP, LONG,
]
# Config integers may also be huge; they size no loop.
CONFIG_VALUES = VALUES + [10**30]
LEXICON_WEIGHTS = ["nan", "inf", "-inf", "abc", "", "1e400", "-0", "0", "1_0", " 2 "]


def _dumps(document) -> str:
    """``document`` as JSON text, each DEEP value written as DEEP_JSON and
    each LONG as LONG_JSON."""
    text = json.dumps(document).replace(json.dumps(DEEP), DEEP_JSON)
    return text.replace(json.dumps(LONG), LONG_JSON)


def _corpus_lines(topic, n):
    lines = []
    for i in range(n):
        text = (POSITIVE, NEGATIVE, NEUTRAL)[i % 3][i % 2] + f" w{i}"
        record = {
            "id": f"{topic}-{i:03d}",
            "text": text,
            "created_at": f"2024-06-0{1 + i % 3}T{i % 24:02d}:15:00Z",
            "topic": topic,
        }
        lines.append(json.dumps(record))
    return lines


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A two-topic workspace with every model trained and saved."""
    root = tmp_path_factory.mktemp("fuzz_base")
    for topic in ("alpha", "beta"):
        (root / f"corpus_{topic}.jsonl").write_text(
            "\n".join(_corpus_lines(topic, 12)) + "\n", encoding="utf-8"
        )
    (root / "lexicon.tsv").write_text(
        "# polarity\ngood\t2.0\nlove\t1.0\nfine\t0.5\nbad\t-2.0\nawful\t-1.0\ncold\t-0.5\n",
        encoding="utf-8",
    )
    (root / "stopwords.txt").write_text("the\na\n", encoding="utf-8")
    config = {
        "topics": {"alpha": "corpus_alpha.jsonl", "beta": "corpus_beta.jsonl"},
        "lexicon": "lexicon.tsv",
        "stopwords": "stopwords.txt",
        "seed": 5,
        "folds": 3,
        "out_dir": "out",
        "hyperparameters": SMALL_HYPER,
    }
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(root / "config.json")]) == 0
    return root


def _fresh_copy(base, tmp_path, case):
    work = tmp_path / f"case{case}"
    shutil.copytree(base, work)
    return work


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.err


def _check(cases):
    """``cases`` yields (description, exit code, stderr, the codes allowed,
    and the file that stderr must name once, or None); every code must be
    one of those allowed."""
    failures = []
    for what, code, err, allowed, named in cases:
        if code not in allowed:
            failures.append(f"{what}: exit {code}: {err.strip()[-300:]}")
        elif named is not None and err.count(str(named)) != 1:
            times = err.count(str(named))
            failures.append(f"{what}: stderr names {named.name} {times} times: {err.strip()[-300:]}")
    assert not failures, "\n".join(failures)


def _refused_by_ingest(code, err, path):
    """``path`` if its loader refused it (exit 2 in the ingest stage),
    which must then name it; else None."""
    return path if code == 2 and err.startswith("error: ingest:") else None


def _out_of_range(model, name, value) -> bool:
    """Whether ``model``'s trainer declares a range that ``value`` is
    outside of; a value of the wrong type is for the type check to refuse."""
    try:
        check_hyperparameters(TRAINERS[model], {name: value})
    except HyperparameterError:
        return True
    except TypeError:
        pass
    return False


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _mutate_bytes(rng, data: bytes) -> tuple[bytes, str]:
    """Delete, insert or overwrite one byte, or truncate."""
    op = _pick(rng, ["delete", "insert", "replace", "truncate"])
    pos = int(rng.integers(len(data) + 1)) if data else 0
    byte = bytes([_pick(rng, [0x00, 0x0A, 0x09, 0x22, 0x7B, 0x2C, 0xFF, 0xC3, 0x41])])
    if op == "delete":
        return data[:pos] + data[pos + 1:], f"delete byte {pos}"
    if op == "insert":
        return data[:pos] + byte + data[pos:], f"insert {byte!r} at {pos}"
    if op == "replace":
        return data[:pos] + byte + data[pos + 1:], f"replace byte {pos} with {byte!r}"
    return data[:pos], f"truncate at {pos}"


def _paths(node, prefix=()):
    """Every (path, value) inside a JSON document, parents before children."""
    yield prefix, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _mutate_json(rng, document, values):
    """Replace, delete or extend one node of a JSON document, in place."""
    paths = [p for p, _ in _paths(document) if p]
    path = _pick(rng, paths)
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    op = _pick(rng, ["replace", "replace", "delete", "append"])
    if op == "delete":
        del parent[path[-1]]
    elif op == "append" and isinstance(parent[path[-1]], list):
        parent[path[-1]].append(_pick(rng, values))
    else:
        op = "replace"
        parent[path[-1]] = _pick(rng, values)
    return f"{op} {'/'.join(map(str, path))}"


def _absolute_config(base) -> dict:
    """The base config, to be written elsewhere, so with absolute paths."""
    config = json.loads((base / "config.json").read_text(encoding="utf-8"))
    config["topics"] = {t: str(base / p) for t, p in config["topics"].items()}
    config["lexicon"] = str(base / config["lexicon"])
    config["stopwords"] = str(base / config["stopwords"])
    return config


def test_mutated_configs_never_exit_3(base, tmp_path, capsys):
    rng = np.random.default_rng(1001)
    hyper_names = {key: [*hyperparameters(TRAINERS[key]), "bogus"] for key in MODELS}

    def cases():
        for case in range(N_CASES):
            config = _absolute_config(base)
            kind = _pick(rng, ["top", "delete", "weighting", "hyper", "topic"])
            value = _pick(rng, CONFIG_VALUES if kind in ("top", "hyper") else VALUES)
            flags = ["--out", str(tmp_path / "out")]
            allowed = NOT_INTERNAL
            if kind == "top":
                key = _pick(rng, ["seed", "folds", "min_df", "models", "out_dir", "stopwords",
                                  "lexicon", "topics", "weighting", "hyperparameters", "bogus"])
                config[key] = value
                if key == "out_dir":  # --out would override it
                    flags = []
            elif kind == "delete":
                key = _pick(rng, sorted(config))
                del config[key]
            elif kind == "weighting":
                key = _pick(rng, [*MODEL_ORDER, "bogus"])
                config["weighting"] = {key: value}
            elif kind == "hyper":
                model = _pick(rng, MODEL_ORDER)
                name = _pick(rng, hyper_names[model])
                config["hyperparameters"] = {
                    **SMALL_HYPER, model: {**SMALL_HYPER.get(model, {}), name: value}
                }
                # Half run every model, so the mutated value reaches its
                # trainer; half select one other model, so the mutated block
                # lies outside the selection.
                key = f"{model}.{name}"
                # A value outside its declared range is a config error,
                # found when the config is loaded, whatever runs after.
                if _out_of_range(model, name, value):
                    allowed = (1,)
                if rng.random() < 0.5:
                    selection = _pick(rng, [m for m in MODEL_ORDER if m != model])
                    flags += ["--model", selection]
                    key += f" (selecting {selection})"
            else:
                key = _pick(rng, ["alpha", "beta", "gamma"])
                config["topics"][key] = value
            path = tmp_path / f"config{case}.json"
            path.write_text(_dumps(config), encoding="utf-8")
            command = _pick(rng, ["ingest", "label", "train", "crossval", "compare"])
            code, err = _run([command, "--config", str(path), *flags], capsys)
            yield f"case {case}: {command} with {kind} {key} = {value!r}", code, err, allowed, None

    _check(cases())


@pytest.mark.parametrize("key", ["out_dir", "lexicon", "stopwords"])
def test_every_string_value_as_a_path_never_exits_3(base, tmp_path, capsys, key):
    """Each string of VALUES as a config path, which the seeded draws above
    may miss: ``train`` reads the lexicon and stopwords and writes to
    ``out_dir``."""

    def cases():
        for case, value in enumerate(v for v in VALUES if isinstance(v, str)):
            config = {**_absolute_config(base), key: value}
            path = tmp_path / f"config{case}.json"
            path.write_text(_dumps(config), encoding="utf-8")
            code, err = _run(["train", "--config", str(path), "--model", "naive_bayes"], capsys)
            yield f"train with {key} = {value!r}", code, err, NOT_INTERNAL, None

    _check(cases())


def test_mutated_corpora_never_exit_3(base, tmp_path, capsys):
    rng = np.random.default_rng(1002)

    def cases():
        for case in range(N_CASES):
            work = _fresh_copy(base, tmp_path, case)
            corpus = work / f"corpus_{_pick(rng, ['alpha', 'beta'])}.jsonl"
            lines = corpus.read_text(encoding="utf-8").splitlines()
            if rng.random() < 0.4:
                data, what = _mutate_bytes(rng, corpus.read_bytes())
                corpus.write_bytes(data)
            else:
                index = int(rng.integers(len(lines)))
                record = json.loads(lines[index])
                field = _pick(rng, ["id", "text", "created_at", "topic", "extra"])
                op = _pick(rng, ["replace", "delete", "duplicate-id"])
                if op == "delete":
                    record.pop(field, None)
                elif op == "duplicate-id":
                    record["id"] = json.loads(lines[(index + 1) % len(lines)])["id"]
                else:
                    record[field] = _pick(rng, VALUES)
                lines[index] = _dumps(record)
                corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
                what = f"{op} line {index + 1} field {field}"
            command = _pick(rng, ["ingest", "label", "crossval", "train"])
            code, err = _run(
                [command, "--config", str(work / "config.json"), "--model", "naive_bayes,svm"],
                capsys,
            )
            named = _refused_by_ingest(code, err, corpus)
            yield f"case {case}: {command} on {corpus.name} after {what}", code, err, NOT_INTERNAL, named

    _check(cases())


def test_mutated_lexicons_and_stopwords_never_exit_3(base, tmp_path, capsys):
    rng = np.random.default_rng(1003)

    def cases():
        for case in range(N_CASES):
            work = _fresh_copy(base, tmp_path, case)
            target = work / _pick(rng, ["lexicon.tsv", "lexicon.tsv", "stopwords.txt"])
            lines = target.read_text(encoding="utf-8").splitlines()
            op = _pick(rng, ["bytes", "weight", "tab", "token", "duplicate", "empty"])
            index = int(rng.integers(len(lines)))
            if op == "bytes":
                data, what = _mutate_bytes(rng, target.read_bytes())
                target.write_bytes(data)
            else:
                if op == "weight":
                    lines[index] = lines[index].split("\t")[0] + "\t" + _pick(rng, LEXICON_WEIGHTS)
                elif op == "tab":
                    lines[index] = lines[index].replace("\t", _pick(rng, [" ", "\t\t", ""]))
                elif op == "token":
                    lines[index] = _pick(rng, ["", " ", "GOOD", "two words"]) + "\t1.0"
                elif op == "duplicate":
                    lines.append(lines[index])
                else:
                    lines = [_pick(rng, ["", "# only a comment"])]
                target.write_text("\n".join(lines) + "\n", encoding="utf-8")
                what = f"{op} at line {index + 1}"
            command = _pick(rng, ["ingest", "label", "crossval", "evaluate"])
            code, err = _run(
                [command, "--config", str(work / "config.json"), "--model", "naive_bayes,maxent"],
                capsys,
            )
            named = _refused_by_ingest(code, err, target)
            yield f"case {case}: {command} after {what} in {target.name}", code, err, NOT_INTERNAL, named

    _check(cases())


def test_mutated_model_files_never_exit_3(base, tmp_path, capsys):
    rng = np.random.default_rng(1004)

    def cases():
        for case in range(N_CASES):
            work = _fresh_copy(base, tmp_path, case)
            model = _pick(rng, MODEL_ORDER)
            path = work / "out" / f"model_{_pick(rng, ['alpha', 'beta'])}_{model}.json"
            if rng.random() < 0.25:
                data, what = _mutate_bytes(rng, path.read_bytes())
                path.write_bytes(data)
            else:
                document = json.loads(path.read_text(encoding="utf-8"))
                what = _mutate_json(rng, document, VALUES)
                path.write_text(_dumps(document), encoding="utf-8")
            code, err = _run(
                ["evaluate", "--config", str(work / "config.json"), "--model", model], capsys
            )
            # Only the model file changed, so every exit 2 is its refusal.
            named = path if code == 2 else None
            yield f"case {case}: evaluate {path.name} after {what}", code, err, NOT_INTERNAL, named

    _check(cases())
