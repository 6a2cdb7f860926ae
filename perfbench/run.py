"""tweetsent benchmark: time the CLI end to end on seeded workloads, check
every output, and give per-layer numbers from a separate traced run.

    python3 perfbench/run.py --workload report-wide --seed 42 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

Run from anywhere; it uses the ``src`` and ``data`` of the checkout it sits
in and writes only under ``.bench_work/`` there.  Each workload runs in a
closed loop with one client: a timed CLI command starts only after the
previous one has exited, while the next is expected to end within
``--seconds`` (and, untraced, until at least three commands have run).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
``traced.py`` once plus untraced commands to compare against, and reports
the per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEMO = ROOT / "data" / "demo"

# setup_s is measured before and after the timed commands, so that its median
# spans two moments of a noisy machine.  Repeats per side:
IMPORT_REPEATS = 5  # report workloads: fresh-interpreter `import tweetsent.cli`
TRAIN_REPEATS = 1  # score-1k: `tweetsent train`
COMMAND_TIMEOUT_S = 150  # a hung command is killed and counted as failed
# Timed commands per untraced run, however long they take.
MIN_TIMED_RUNS = 3


class SetupFailed(Exception):
    """A command the timed runs depend on failed; no result is printed."""


@dataclass(frozen=True)
class Command:
    wall_s: float
    rss_mb: float
    ok: bool


def run_command(args: list, log: Path) -> tuple[float, float, int]:
    """Run one child to completion, its stdout to ``log`` and stderr to
    ``log.err``; returns (wall seconds, peak RSS in MB, exit code)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as out, open(f"{log}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in args], stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"{log.name}: exit {proc.returncode}: {stderr_tail(log)}", file=sys.stderr)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def stderr_tail(log: Path) -> str:
    return Path(f"{log}.err").read_text(encoding="utf-8", errors="replace")[-2000:]


class OutputCheck:
    """Outputs must equal the pinned reference (default seed and size) or,
    for any other input, the first run's bytes."""

    def __init__(self, expected: dict[str, str]) -> None:
        self.expected = dict(expected)

    def matches(self, outputs: dict[str, str]) -> bool:
        return all(self.expected.setdefault(name, text) == text for name, text in outputs.items())


def bundle_outputs(out_dir: Path, topics: list[str]) -> dict[str, str]:
    """The pinned files of a report bundle, after checking every file's
    SHA-256 and size against ``manifest.json``."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    for name, entry in manifest["files"].items():
        data = (out_dir / name).read_bytes()
        if len(data) != entry["bytes"] or hashlib.sha256(data).hexdigest() != entry["sha256"]:
            raise ValueError(f"{name} does not match manifest.json")
    pinned = [f"{kind}_{topic}.{ext}" for topic in topics for kind, ext in (("metrics", "csv"), ("distribution", "json"))]
    missing = set(pinned) - set(manifest["files"])
    if missing:
        raise ValueError(f"bundle lacks {sorted(missing)}")
    return {name: (out_dir / name).read_text(encoding="utf-8") for name in pinned}


def evaluate_outputs(text: str, topics: list[str]) -> dict[str, str]:
    rows = text.splitlines()
    if len(rows) != 1 + len(topics) * 6 or not rows[0].startswith("topic,model,"):
        raise ValueError("evaluate printed an unexpected table")
    return {"evaluate.csv": text}


class Workbench:
    """One workload's generated inputs, work directory and output check."""

    def __init__(self, name: str, seed: int, docs: int | None, work: Path) -> None:
        import workloads
        from tweetsent.pipeline import load_config, load_topic_data

        self.command = workloads.WORKLOADS[name]
        self.work = work
        self.config = workloads.generate(name, seed, self.work / "inputs", DEMO, docs)
        config = load_config(self.config)
        self.topics = list(config.topic_names())
        matrices = [d.matrices["counts"] for d in load_topic_data(config)]
        self.shape = {
            "docs": sum(m.n_docs for m in matrices),
            "terms": sum(m.n_terms for m in matrices),
            "nnz": sum(m.nnz for m in matrices),
        }
        pinned = seed == workloads.DEFAULT_SEED and docs is None
        reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
        self.check = OutputCheck(reference[name] if pinned else {})
        self.models_dir = self.work / "models"
        self.models_dir.mkdir()
        self.runs = 0

    def cli(self, *args) -> list:
        return [sys.executable, "-m", "tweetsent.cli", *args, "--config", self.config]

    def timed_command(self) -> Command:
        """One run of the workload's timed CLI command, with its output check."""
        self.runs += 1
        log = self.work / f"run{self.runs}.log"
        if self.command == "report":
            out = self.work / "report"
            shutil.rmtree(out, ignore_errors=True)
            wall, rss, code = run_command(self.cli("report", "--out", out), log)
            read = lambda: bundle_outputs(out, self.topics)  # noqa: E731
        else:
            wall, rss, code = run_command(self.cli("evaluate", "--format", "csv", "--out", self.models_dir), log)
            read = lambda: evaluate_outputs(log.read_text(encoding="utf-8"), self.topics)  # noqa: E731
        return Command(wall, rss, code == 0 and self._matches(read, log))

    def _matches(self, read, log: Path) -> bool:
        try:
            if self.check.matches(read()):
                return True
            reason = "output differs from the reference"
        except (OSError, ValueError, KeyError) as exc:
            reason = str(exc)
        print(f"check failed ({log.name}): {reason}", file=sys.stderr)
        return False

    def closed_loop(self, seconds: float, min_runs: int) -> list[Command]:
        """Timed commands back to back, at least ``min_runs``, then more
        while the next one (as long as the median so far) ends within
        ``seconds``: a run never overshoots by a whole command."""
        commands: list[Command] = []
        start = time.perf_counter()
        while len(commands) < min_runs or (
            time.perf_counter() - start + statistics.median(c.wall_s for c in commands) <= seconds
        ):
            commands.append(self.timed_command())
        return commands

    def setup_walls(self) -> list[float]:
        """Wall times of the program work the timed command depends on."""
        log = self.work / "setup.log"
        if self.command == "evaluate":
            args, repeats = self.cli("train", "--out", self.models_dir), TRAIN_REPEATS
        else:
            args, repeats = [sys.executable, "-c", "import tweetsent.cli"], IMPORT_REPEATS
        walls = []
        for _ in range(repeats):
            wall, _, code = run_command(args, log)
            if code != 0:
                raise SetupFailed(f"{args} failed")
            walls.append(wall)
        return walls

    def end_to_end(self, seconds: float) -> tuple[list[Command], dict, dict]:
        # Warm-up: the first import writes the bytecode caches later ones read.
        run_command([sys.executable, "-c", "import tweetsent.cli"], self.work / "warmup.log")
        setup = self.setup_walls()
        commands = self.closed_loop(seconds, MIN_TIMED_RUNS)
        setup += self.setup_walls()
        wall = statistics.median(c.wall_s for c in commands)
        metrics = {
            "wall_s": (wall, "s"),
            "docs_per_s": (self.shape["docs"] / wall, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (max(c.rss_mb for c in commands), "MB"),
        }
        setup_what = "`train` runs" if self.command == "evaluate" else "imports"
        notes = {
            "wall_s": f"median of {len(commands)} `{self.command}` runs",
            "setup_s": f"median of {len(setup)} {setup_what}, half before and half after",
            "peak_rss_mb": "max over the timed runs",
        }
        return commands, metrics, notes

    def per_layer(self, seconds: float) -> tuple[list[Command], dict, dict]:
        start = time.perf_counter()
        trace_file = self.work / "trace.json"
        traced_dir = self.work / "traced"
        wall, rss, code = run_command(
            [sys.executable, BENCH / "traced.py", "--config", self.config, "--work", traced_dir, "--out", trace_file],
            self.work / "traced.log",
        )
        if code != 0:
            raise SetupFailed("the traced run failed")
        trace = json.loads(trace_file.read_text(encoding="utf-8"))
        ok = self._matches(
            lambda: {
                **bundle_outputs(traced_dir / "report", self.topics),
                **evaluate_outputs(trace["evaluate_csv"], self.topics),
            },
            self.work / "traced.log",
        )
        # The untraced commands use the models the traced run saved.
        self.models_dir = traced_dir / "models"
        commands = self.closed_loop(seconds - (time.perf_counter() - start), 1)
        untraced = statistics.median(c.wall_s for c in commands)
        phase = trace["phases"][self.command]
        traced_command = trace["metrics"]["cli.import_s"] + phase["total_s"]
        metrics = {name: (value, unit_of(name)) for name, value in trace["metrics"].items()}
        metrics["trace.traced_command_s"] = (traced_command, "s")
        metrics["trace.untraced_command_s"] = (untraced, "s")
        metrics["trace.overhead_pct"] = (100 * (traced_command / untraced - 1), "%")
        metrics["trace.coverage_pct"] = (100 * phase["covered_s"] / untraced, "%")
        notes = {
            "trace.untraced_command_s": f"median of {len(commands)} untraced `{self.command}` runs",
            "trace.traced_command_s": f"import + traced {self.command} phase",
            "trace.coverage_pct": f"{phase['covered_s']:.3f} s of top-level {self.command} spans / untraced wall",
        }
        return [Command(wall, rss, ok), *commands], metrics, notes


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "%" if name.endswith("_pct") else "count"


def machine_facts() -> str:
    import numpy

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
        f"openblas_threads={openblas_threads()} (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')})"
    )


def openblas_threads() -> str:
    """The thread count numpy's bundled OpenBLAS uses, if it can be asked."""
    import ctypes
    import glob

    import numpy

    for lib in glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, docs: int | None) -> dict:
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Workbench(name, seed, docs, work)
        if trace:
            commands, metrics, notes = bench.per_layer(seconds)
        else:
            commands, metrics, notes = bench.end_to_end(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not c.ok for c in commands)
    shape = ", ".join(f"{v} {k}" for k, v in bench.shape.items())
    print(f"\n{name} (seed {seed}, {'traced' if trace else 'untraced'}): {shape}")
    for metric, (value, unit) in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.4f}"
        print(f"  {metric:34} {shown} {unit:6} {notes.get(metric, '')}".rstrip())
    print(f"  {'failed_runs':34} {failed:>9d}/{len(commands)}")
    return {
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--docs", type=int, default=None, help="documents per topic (smoke test)")
    args = parser.parse_args(argv)

    for needed in (SRC / "tweetsent" / "cli.py", DEMO / "config.json"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload == "all":
        runs = [(name, trace) for name in workloads.WORKLOADS for trace in (False, True)]
    elif args.workload in workloads.WORKLOADS:
        runs = [(args.workload, bool(args.trace))]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")

    # On SIGTERM, unwind so the running child is killed and reaped and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    print(machine_facts())
    results = {}
    try:
        for name, trace in runs:
            results[name, trace] = run_workload(name, args.seed, args.seconds, trace, args.docs)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{m}": v for (name, _), r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
