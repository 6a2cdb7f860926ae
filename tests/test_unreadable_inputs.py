"""Every loader refuses an input file it cannot read with its own error.

One function reads every input file, so a missing path and a directory fail
alike in each loader: with the loader's own error class, which the CLI maps
to exit 1 (config) or 2 (data), and a message that names the path.
"""

import pytest

from tweetsent.corpus import load_corpus, load_stopwords
from tweetsent.exceptions import ConfigError, CorpusError, LexiconError, ModelFormatError
from tweetsent.lexicon import load_lexicon
from tweetsent.models import load_model
from tweetsent.pipeline import load_config

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
