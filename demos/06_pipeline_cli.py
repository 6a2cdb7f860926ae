"""
The end-to-end pipeline and its report bundle
=============================================

One call — run_pipeline(config) — ingests each topic's corpus, weak-labels
it, trains all six classifiers, cross-validates them, and writes a report
bundle whose files are byte-identical across reruns.  This script drives it
on the bundled demonstration data and then proves the determinism claim on
a freshly generated corpus pair.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from tweetsent.datagen import write_demo_data
from tweetsent.pipeline import load_config, run_pipeline

DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"

# ---------------------------------------------------------------------------
# 1. A run is described by one JSON config: topic -> corpus file, lexicon,
#    stopwords, seed, fold count. Keyword overrides beat the file.
# Every file this script writes goes under workdir, removed at the end.
scratch = tempfile.TemporaryDirectory(prefix="tweetsent-demo-")
workdir = Path(scratch.name)
config = load_config(DEMO / "config.json", out_dir=str(workdir / "report"))
print("topics:", config.topic_names())
print(f"seed={config.seed} folds={config.folds} models={len(config.models)}")
print()

# ---------------------------------------------------------------------------
# 2. Run everything. Expect a few seconds: two 500-document corpora times
#    six models times four cross-validation folds.
result = run_pipeline(config)
print(f"bundle written to {result.out_dir}:")
for name in sorted(result.manifest["files"]):
    entry = result.manifest["files"][name]
    print(f"  {name:32s} {entry['bytes']:6d} bytes  sha256={entry['sha256'][:12]}…")
print()

# ---------------------------------------------------------------------------
# 3. Each topic's report carries the sentiment distribution and the metric
#    table (fractions here; the CSV in the bundle shows percentages).
for report in result.reports:
    dist = {label: count for label, count in report.distribution.items()}
    print(f"topic {report.topic!r}: {report.documents} documents, "
          f"distribution {dist}")
    for row in report.models:
        print(f"  {row.display_name:14s} P={row.precision:.3f} "
              f"R={row.recall:.3f} F={row.fscore:.3f} "
              f"CV={row.cross_validate:.3f}±{row.cross_validate_std:.3f}")
print()

# ---------------------------------------------------------------------------
# 4. With exactly two topics the bundle gains a comparison: share deltas,
#    positive/negative ratios, and per-model metric deltas (second minus
#    first).
comparison = result.comparison
print("comparison:", comparison["topics"][0], "vs", comparison["topics"][1])
for topic, ratio in comparison["positive_negative_ratio"].items():
    print(f"  positive:negative ratio for {topic}: {ratio:.3f}")
print(f"  note: {comparison['note']}")
print()

# ---------------------------------------------------------------------------
# 5. Determinism, demonstrated: generate a small corpus pair, run the
#    pipeline twice into different directories, and compare every file
#    byte for byte.
data_dir = workdir / "fresh-data"
write_demo_data(data_dir, seed=11, docs_per_topic=60)
base = load_config(data_dir / "config.json")
first = run_pipeline(replace(base, out_dir=workdir / "run-one"))
second = run_pipeline(replace(base, out_dir=workdir / "run-two"))
names = sorted(p.name for p in first.out_dir.iterdir())
assert names == sorted(p.name for p in second.out_dir.iterdir())
identical = all(
    (first.out_dir / name).read_bytes() == (second.out_dir / name).read_bytes()
    for name in names
)
print(f"reran on fresh data: {len(names)} files, byte-identical = {identical}")
print()
scratch.cleanup()

# ---------------------------------------------------------------------------
# 6. The same machinery is scriptable from the shell; each subcommand runs
#    a prefix of the pipeline (exit codes: 0 ok, 1 usage/config, 2 data,
#    3 internal):
#
#      tweetsent ingest   --config data/demo/config.json
#      tweetsent label    --config data/demo/config.json --format csv
#      tweetsent train    --config data/demo/config.json --model svm --out models/
#      tweetsent evaluate --config data/demo/config.json --model svm --out models/
#      tweetsent crossval --config data/demo/config.json --folds 4
#      tweetsent report   --config data/demo/config.json --out report/
#      tweetsent compare  --config data/demo/config.json
#
print("try the CLI next, e.g.: tweetsent report --config data/demo/config.json "
      "--out /tmp/report")
