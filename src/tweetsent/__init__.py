"""Tweet sentiment toolkit: corpus cleaning, lexicon weak labeling,
bag-of-words/TF-IDF features, six from-scratch classifiers, and a
precision/recall/F1 + k-fold evaluation harness with a topic-comparison
pipeline.
"""

__version__ = "0.1.0"
