"""Seeded input generators for the benchmark workloads.

Each generator writes a pipeline config plus the corpora, lexicon and
stopwords it names into one directory; the program under test receives
only those files.  The same seed always writes the same bytes.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
from tweetsent import datagen
from tweetsent.corpus import load_corpus, save_corpus

DEFAULT_SEED = 42

# report-wide: datagen tweets plus Zipf-drawn filler words, which widen the
# vocabulary from 63 to ~230 terms per topic, where bagging's all-column
# split search and maxent's dense n x V products dominate.  Few documents
# keep one `report` near 6 s, so a run holds enough commands for a steady
# median.
WIDE_DOCS = 30
WIDE_FILLER_VOCAB = 2000
WIDE_FILLER_PER_DOC = 12
WIDE_ZIPF_S = 1.0

# score-1k: only prediction and model I/O are timed on it.  ROADMAP's
# "2 x 2000" size takes ~10 s an `evaluate` and ~12 s a `train` on a shared
# 2-vCPU VM, which leaves a run too few commands for a steady median.
SCORE_DOCS = 1000


# workload -> the `tweetsent` subcommand it times.  README.md says why each
# workload is there and why BENCHMARK.json gates only report-wide and score-1k.
WORKLOADS = {"report-demo": "report", "report-wide": "report", "score-1k": "evaluate"}


def generate(name: str, seed: int, out: Path, demo_dir: Path, docs: int | None = None) -> Path:
    """Write workload ``name``'s inputs into ``out``; returns the config path.

    ``docs`` overrides the documents per topic (the smoke test uses a tiny
    size); ``None`` keeps the workload's own size.
    """
    out.mkdir(parents=True, exist_ok=True)
    if name == "report-demo":
        return _demo_copy(seed, out, demo_dir, docs)
    if name == "report-wide":
        files = datagen.write_demo_data(out, seed=seed, docs_per_topic=docs or WIDE_DOCS)
        _append_filler(files.corpora, seed)
        return files.config
    if name == "score-1k":
        return datagen.write_demo_data(out, seed=seed, docs_per_topic=docs or SCORE_DOCS).config
    raise ValueError(f"unknown workload {name!r}")


def _demo_copy(seed: int, out: Path, demo_dir: Path, docs: int | None) -> Path:
    """The bundled demo with the run seed replaced, optionally truncated."""
    config = json.loads((demo_dir / "config.json").read_text(encoding="utf-8"))
    config["seed"] = seed
    config["out_dir"] = "report"
    for name in [config["lexicon"], config["stopwords"], *config["topics"].values()]:
        shutil.copyfile(demo_dir / name, out / name)
    if docs is not None:
        for name in config["topics"].values():
            lines = (out / name).read_text(encoding="utf-8").splitlines(keepends=True)
            (out / name).write_text("".join(lines[:docs]), encoding="utf-8")
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _filler_words(n: int) -> list[str]:
    """``n`` made-up consonant-vowel words that are no lexicon, stopword or
    datagen word, so appending them leaves every weak label unchanged."""
    taken = set(
        datagen.POSITIVE_WORDS + datagen.NEGATIVE_WORDS + datagen.EXTRA_POSITIVE
        + datagen.EXTRA_NEGATIVE + datagen.NEUTRAL_FILLERS + datagen.STOPWORDS
    )
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    words = []
    i = 0
    while len(words) < n:
        word = "".join(syllables[(i // len(syllables) ** k) % len(syllables)] for k in range(3))
        if word not in taken:
            words.append(word)
        i += 1
    return words


def _append_filler(corpora: tuple[Path, ...], seed: int) -> None:
    words = np.array(_filler_words(WIDE_FILLER_VOCAB))
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    p = ranks**-WIDE_ZIPF_S
    p /= p.sum()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    for path in corpora:
        tweets = [
            replace(t, text=t.text + " " + " ".join(rng.choice(words, size=WIDE_FILLER_PER_DOC, p=p)))
            for t in load_corpus(path)
        ]
        save_corpus(tweets, path)
