"""The bundled demo data is what the generator writes.

The golden tests are pinned to ``data/demo/``; this test pins that data to
``python -m tweetsent.datagen --out DIR`` at its defaults (seed 42, 500
documents per topic), so a generator change cannot go unnoticed.
"""

from tweetsent import datagen


def test_the_generator_writes_the_bundled_demo_data(demo_dir, tmp_path, capsys):
    assert datagen.main(["--out", str(tmp_path)]) == 0
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    # Files only: a run without --out writes its report directory there.
    bundled = {path.name: path.read_bytes() for path in demo_dir.iterdir() if path.is_file()}
    assert sorted(written) == sorted(bundled)
    for name, data in bundled.items():
        assert written[name] == data, f"{name} differs from the generator's output"
