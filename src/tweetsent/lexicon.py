"""Polarity-lexicon scoring: the unsupervised weak-labeling stage.

A lexicon is a plain mapping of lowercase tokens to signed weights. A
document's score is the sum of the weights of its tokens (zero for unknown
tokens, counted with multiplicity), added left to right from 0.0, and the
label follows the sign of the score: positive score -> Positive, negative
-> Negative, exactly zero -> Neutral. These weak labels are what the
supervised models train on. :func:`label_corpus` labels a whole corpus,
given as token sequences, in one call.

Known limitation: there is no negation handling, so "not good" scores
the same as "good".
"""

from __future__ import annotations

import enum
import logging
import math
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from .exceptions import LexiconError, errors_of, located, read_input

logger = logging.getLogger(__name__)

__all__ = [
    "SentimentLabel",
    "CANONICAL_LABELS",
    "load_lexicon",
    "label_corpus",
]


class SentimentLabel(enum.IntEnum):
    """Three-valued sentiment class.

    The integer values fix the canonical order (Positive < Neutral <
    Negative) used for deterministic tie-breaking everywhere.
    """

    POSITIVE = 0
    NEUTRAL = 1
    NEGATIVE = 2

    def __str__(self) -> str:
        return self.name.capitalize()

    @property
    def tag(self) -> str:
        """Lowercase name used in file formats ("positive", ...)."""
        return self.name.lower()

    @classmethod
    def from_tag(cls, tag: str) -> "SentimentLabel":
        try:
            return cls[tag.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown sentiment label {tag!r}") from None


CANONICAL_LABELS: tuple[SentimentLabel, ...] = (
    SentimentLabel.POSITIVE,
    SentimentLabel.NEUTRAL,
    SentimentLabel.NEGATIVE,
)


def load_lexicon(path: str | Path) -> dict[str, float]:
    """Parse a lexicon TSV file (token<TAB>weight per line) into its
    token -> signed weight mapping.

    Lines starting with "#" are comments. A token repeated later in the
    file overrides the earlier weight, with a logged warning. Tokens are
    lowercased on load.

    Raises:
        LexiconError: unreadable or non-UTF-8 file, malformed line,
            unparseable or non-finite weight (each named by the file and
            the line), or a file with no entries at all.
    """
    text = read_input(path, LexiconError, "lexicon file")
    entries: dict[str, float] = {}
    with errors_of(path):
        # read_input has already turned "\r\n" and "\r" into "\n".
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            token = parts[0].strip().lower()
            try:
                if len(parts) != 2:
                    raise LexiconError(f"expected 'token<TAB>weight', got {line!r}")
                if not token or any(ch.isspace() for ch in token):
                    raise LexiconError(f"invalid token {parts[0]!r}")
                try:
                    weight = float(parts[1])
                except ValueError:
                    raise LexiconError(f"unparseable weight {parts[1]!r}") from None
                if not math.isfinite(weight):
                    raise LexiconError(f"weight {parts[1]!r} is not finite")
            except LexiconError as exc:
                raise located(f"line {lineno}", exc) from exc
            if token in entries:
                logger.warning(
                    "lexicon %s line %d: duplicate token %r, overriding %g with %g",
                    path, lineno, token, entries[token], weight,
                )
            entries[token] = weight
    if not entries:
        raise LexiconError(f"lexicon file {path} contains no entries")
    if not (any(w > 0 for w in entries.values()) and any(w < 0 for w in entries.values())):
        logger.warning(
            "lexicon %s has no %s entries; every document will lean one way",
            path,
            "negative" if any(w > 0 for w in entries.values()) else "positive",
        )
    return entries


def label_corpus(
    lexicon: Mapping[str, float], token_sequences: Iterable[Sequence[str]]
) -> tuple[tuple[SentimentLabel, ...], tuple[float, ...]]:
    """The label and the score of every token sequence, in order.

    A score adds its tokens' weights left to right from 0.0 in one loop.
    Built-in ``sum`` compensates float sums from Python 3.12 on, so it
    would round some scores, and flip some labels, differently by version.

    Raises:
        LexiconError: a partial sum overflows, so a score is not finite.
    """
    weight = lexicon.get
    labels, scores = [], []
    for position, tokens in enumerate(token_sequences):
        score = 0.0
        for token in tokens:
            score += weight(token, 0.0)
        if not math.isfinite(score):
            raise LexiconError(
                f"the score of document {position} (0-based) is {score}: "
                "the lexicon weights overflow when added"
            )
        scores.append(score)
        if score > 0:
            labels.append(SentimentLabel.POSITIVE)
        elif score < 0:
            labels.append(SentimentLabel.NEGATIVE)
        else:
            labels.append(SentimentLabel.NEUTRAL)
    return tuple(labels), tuple(scores)
