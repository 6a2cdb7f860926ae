"""Every input file may start with a UTF-8 byte-order mark.

Editors on some platforms write one.  Each reader must load a file with a
BOM exactly as it loads the same file without one: a BOM must neither fail
a header or JSON check nor become part of the first token.
"""

import codecs
import json

import pytest

from conftest import DEMO_DIR
from tweetsent.corpus import load_corpus, load_stopwords, save_corpus
from tweetsent.datagen import make_toy_training_set
from tweetsent.lexicon import load_lexicon
from tweetsent.models import load_model, save_model, train_linear_svm
from tweetsent.pipeline import load_config

CORPUS = DEMO_DIR / "corpus_burgerhouse.jsonl"


def _csv_corpus(tmp_path):
    path = tmp_path / "source.csv"
    save_corpus(load_corpus(CORPUS)[:20], path, format="csv")
    return path.read_bytes()


def _config(tmp_path):
    payload = {
        "topics": {"burgerhouse": str(CORPUS)},
        "lexicon": str(DEMO_DIR / "lexicon.tsv"),
        "stopwords": str(DEMO_DIR / "stopwords.txt"),
        "seed": 3,
    }
    return json.dumps(payload).encode("utf-8")


def _model(tmp_path):
    path = tmp_path / "source.json"
    save_model(train_linear_svm(make_toy_training_set()), path)
    return path.read_bytes()


def _resaved_model(path):
    """The bytes a loaded model saves to: equal bytes, equal models."""
    out = path.with_suffix(".resaved")
    save_model(load_model(path), out)
    return out.read_bytes()


# name -> (file suffix, the file's bytes without a BOM, loader)
INPUTS = {
    "jsonl corpus": (".jsonl", lambda tmp_path: CORPUS.read_bytes(), load_corpus),
    "csv corpus": (".csv", _csv_corpus, load_corpus),
    # The first line is a word, not a comment, so a kept BOM would change it.
    "stopwords": (".txt", lambda tmp_path: b"the\na\n", load_stopwords),
    "lexicon": (".tsv", lambda tmp_path: b"good\t2.0\nbad\t-2.0\n", load_lexicon),
    "config": (".json", _config, load_config),
    "model": (".json", _model, _resaved_model),
}


@pytest.mark.parametrize("name", INPUTS)
def test_a_byte_order_mark_loads_like_the_same_file_without_one(name, tmp_path):
    suffix, content, load = INPUTS[name]
    data = content(tmp_path)
    plain = tmp_path / f"plain{suffix}"
    plain.write_bytes(data)
    marked = tmp_path / f"marked{suffix}"
    marked.write_bytes(codecs.BOM_UTF8 + data)
    assert load(marked) == load(plain)
