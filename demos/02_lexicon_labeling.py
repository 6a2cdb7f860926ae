"""
Weak labeling with a polarity lexicon
=====================================

The toolkit never requires hand-annotated tweets.  Instead, a lexicon maps
words to signed polarity weights; a document's score is the sum of its
tokens' weights, and the sign of the score is the label.  These weak labels
then serve as training targets for the supervised models.  One call,
label_corpus, labels a whole list of token sequences.
"""

from pathlib import Path

from tweetsent.corpus import clean_corpus, load_corpus, load_stopwords
from tweetsent.lexicon import CANONICAL_LABELS, label_corpus, load_lexicon

DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"

# ---------------------------------------------------------------------------
# 1. A lexicon is a TSV file: token<TAB>weight, '#' comments allowed.
#    Strong words carry bigger weights than mild ones.
lexicon = load_lexicon(DEMO / "lexicon.tsv")
print(f"lexicon with {len(lexicon)} entries")
strongest = sorted(lexicon.items(), key=lambda kv: kv[1])
print("most negative:", strongest[:3])
print("most positive:", strongest[-3:])
print()

# ---------------------------------------------------------------------------
# 2. Scoring sums weights over tokens (absent tokens contribute zero);
#    the sign rule maps score>0 to Positive, <0 to Negative, ==0 to Neutral.
examples = [
    ["tasty", "burger", "love"],
    ["soggy", "fries", "awful"],
    ["ordered", "a", "burger"],
    ["love", "hate"],  # opposite words can cancel to Neutral
]
for tokens, label, score in zip(examples, *label_corpus(lexicon, examples)):
    print(f"  {' '.join(tokens):24s} score {score:+5.1f} -> {label}")
print()

# ---------------------------------------------------------------------------
# 3. Labels are invariant under rescaling the whole lexicon by a positive
#    constant: only the sign of the score matters.
doubled = {t: 2.0 * w for t, w in lexicon.items()}
tokens = ["tasty", "slow", "service"]
(label,), (score,) = label_corpus(lexicon, [tokens])
print("original score:", score, "->", label)
(label,), (score,) = label_corpus(doubled, [tokens])
print("doubled score: ", score, "->", label)
print()

# ---------------------------------------------------------------------------
# 4. label_corpus labels the token sequences of a whole cleaned corpus;
#    tallying the labels gives the sentiment distribution — the weak-label
#    view of public opinion.
stopwords = load_stopwords(DEMO / "stopwords.txt")
for topic_file in ("corpus_burgerhouse.jsonl", "corpus_espressobar.jsonl"):
    documents = clean_corpus(load_corpus(DEMO / topic_file), stopwords)
    labels, _ = label_corpus(lexicon, [doc.tokens for doc in documents])
    shares = {label.tag: labels.count(label) / len(labels) for label in CANONICAL_LABELS}
    print(f"{topic_file}:")
    for tag, share in shares.items():
        print(f"  {tag:8s} {share:6.1%}")
