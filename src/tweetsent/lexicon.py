"""Polarity-lexicon scoring: the unsupervised weak-labeling stage.

A lexicon maps lowercase tokens to signed weights. A document's score is
the sum of the weights of its tokens (zero for unknown tokens, counted
with multiplicity), and the label follows the sign of the score:
positive score -> Positive, negative -> Negative, exactly zero ->
Neutral. These weak labels are what the supervised models train on.

Known limitation: there is no negation handling, so "not good" scores
the same as "good".
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import CleanDocument
from .exceptions import LexiconError

logger = logging.getLogger(__name__)

__all__ = [
    "SentimentLabel",
    "CANONICAL_LABELS",
    "Lexicon",
    "LabeledDocument",
    "load_lexicon",
    "score_document",
    "label_for_score",
    "label_document",
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


@dataclass(frozen=True)
class Lexicon:
    """Token -> signed polarity weight mapping."""

    entries: dict[str, float]

    def weight(self, token: str) -> float:
        return self.entries.get(token, 0.0)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class LabeledDocument:
    """A cleaned document plus its sentiment label.

    ``score`` is the lexicon score that produced the label; it is None
    for labels supplied externally (gold annotations).
    """

    doc: CleanDocument
    label: SentimentLabel
    score: float | None


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse a lexicon TSV file (token<TAB>weight per line).

    Lines starting with "#" are comments. A token repeated later in the
    file overrides the earlier weight, with a logged warning. Tokens are
    lowercased on load.

    Raises:
        LexiconError: missing file, malformed line (named by number),
            unparseable or non-finite weight, or a file with no entries at all.
    """
    path = Path(path)
    if not path.is_file():
        raise LexiconError(f"lexicon file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LexiconError(f"{path} is not UTF-8 text ({exc.reason})") from exc
    entries: dict[str, float] = {}
    # read_text has already turned "\r\n" and "\r" into "\n".
    for lineno, stripped in enumerate(text.split("\n"), start=1):
        if not stripped.strip() or stripped.lstrip().startswith("#"):
            continue
        parts = stripped.split("\t")
        if len(parts) != 2:
            raise LexiconError(
                f"line {lineno}: expected 'token<TAB>weight', got {stripped!r}"
            )
        token = parts[0].strip().lower()
        if not token or any(ch.isspace() for ch in token):
            raise LexiconError(f"line {lineno}: invalid token {parts[0]!r}")
        try:
            weight = float(parts[1])
        except ValueError:
            raise LexiconError(
                f"line {lineno}: unparseable weight {parts[1]!r}"
            ) from None
        if not math.isfinite(weight):
            raise LexiconError(f"line {lineno}: weight {parts[1]!r} is not finite")
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
    return Lexicon(entries=entries)


def score_document(lex: Lexicon, tokens: Iterable[str]) -> float:
    """Sum the lexicon weights of the tokens (multiplicity counts).

    Tokens absent from the lexicon contribute zero.
    """
    return float(sum(lex.entries.get(tok, 0.0) for tok in tokens))


def label_for_score(score: float) -> SentimentLabel:
    """Sign rule: >0 Positive, <0 Negative, exactly 0 Neutral."""
    if score > 0:
        return SentimentLabel.POSITIVE
    if score < 0:
        return SentimentLabel.NEGATIVE
    return SentimentLabel.NEUTRAL


def label_document(lex: Lexicon, tokens: Iterable[str]) -> tuple[SentimentLabel, float]:
    """Score one token sequence and apply the sign rule."""
    score = score_document(lex, tokens)
    return label_for_score(score), score


def label_corpus(
    lex: Lexicon, docs: Sequence[CleanDocument]
) -> tuple[list[LabeledDocument], dict[SentimentLabel, int]]:
    """Weak-label every document; also return class-distribution counts.

    Order is preserved and the counts always sum to len(docs).
    """
    labeled = []
    counts = {label: 0 for label in CANONICAL_LABELS}
    for doc in docs:
        label, score = label_document(lex, doc.tokens)
        labeled.append(LabeledDocument(doc=doc, label=label, score=score))
        counts[label] += 1
    return labeled, counts
