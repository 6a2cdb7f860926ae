"""Tweet sentiment toolkit: corpus cleaning, lexicon weak labeling,
bag-of-words/TF-IDF features, six from-scratch classifiers, and a
precision/recall/F1 + k-fold evaluation harness with a topic-comparison
pipeline.
"""

from .corpus import (
    CleanDocument,
    HourHistogram,
    RawTweet,
    clean_corpus,
    clean_text,
    hourly_histogram,
    load_corpus,
    load_stopwords,
    save_corpus,
    tokenize,
)
from .evaluation import (
    ClassMetrics,
    ConfusionMatrix,
    CVResult,
    MacroMetrics,
    accuracy,
    confusion_matrix,
    cross_validate,
    f1_from_precision_recall,
    k_fold_split,
    macro_average,
    per_class_metrics,
    precision_recall_f1,
)
from .exceptions import (
    ConfigError,
    CorpusError,
    DataError,
    LexiconError,
    ModelFormatError,
    TrainingError,
    TweetsentError,
)
from .features import (
    COUNTS,
    TFIDF,
    DocTermMatrix,
    SparseVector,
    Vocabulary,
    build_count_matrix,
    build_vocabulary,
    idf,
    tfidf_transform,
    vectorize_counts,
)
from .lexicon import (
    CANONICAL_LABELS,
    LabeledDocument,
    Lexicon,
    SentimentLabel,
    label_corpus,
    label_document,
    label_for_score,
    load_lexicon,
    score_document,
)
from .models import (
    DecisionTreeModel,
    EnsembleModel,
    LinearModel,
    Model,
    NaiveBayesModel,
    Prediction,
    TrainingSet,
    load_model,
    save_model,
    train_bagging,
    train_decision_tree,
    train_linear_svm,
    train_maxent,
    train_naive_bayes,
    train_random_forest,
)
from .pipeline import (
    ModelReport,
    RunConfig,
    RunResult,
    TopicReport,
    compare_topics,
    load_config,
    run_pipeline,
)

__version__ = "0.1.0"
