"""straingrid benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload converge-small --seed 0 --seconds 55 --trace 0

Generates the workload's configs from the seed, then calls
``straingrid.cli.main(argv)`` in-process in a closed loop (the next unit
starts when the previous one has returned and been checked). With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. Scratch
output goes to ``.perfbench/work`` and is removed at the end; a full
result record, and the spans of a traced run, go to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

# numpy links a threaded OpenBLAS and sizes its pool when it is first
# imported: one thread per process keeps the sweep's two workers within
# the machine's two cores. So this precedes every numpy import.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import ROOT as ROOT_SPAN  # noqa: E402
from spans import SpanRecorder, hooks, layer_metrics, unit_slices  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, sweep_values,  # noqa: E402
                       unit_argv, write_configs)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench" / "work"
RESULTS = ROOT / ".perfbench" / "results"
SETUP_REPEATS = 15


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_import():
    """Import straingrid from the checkout as if for the first time."""
    for name in [m for m in sys.modules if m == "straingrid" or m.startswith("straingrid.")]:
        del sys.modules[name]
    return importlib.import_module("straingrid.cli")


def set_up(config: Path) -> float:
    """Seconds to import straingrid, load and validate a config, build the
    model and compute the closed-form background."""
    start = perf_counter()
    fresh_import()
    from straingrid.config import build_model, collect_issues, load_config
    from straingrid.replicator import setup_from_model
    doc = load_config(config)
    if collect_issues(doc):
        raise ValueError(f"{config} does not validate")
    setup_from_model(build_model(doc))
    return perf_counter() - start


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Runs and checks units of one workload on the run's configs."""

    def __init__(self, workload, configs, work: Path, references):
        self.workload = workload
        self.configs = configs
        self.work = work
        self.references = references     # one per config, or None
        self.first_hashes: dict[int, dict] = {}
        self.count = 0

    def check(self, out: Path, config: int) -> list[str]:
        w = self.workload
        reference = self.references[config] if self.references else None
        if w.command == "compare":
            return checks.check_compare(out, reference)
        if w.command == "simulate":
            return checks.check_simulate(out, w.P, w.N, reference)
        return checks.check_sweep(out, sweep_values(w), w.P, w.N)

    def unit(self, index: int, jobs=None, recorder=None) -> dict:
        w = self.workload
        config = index % len(self.configs)
        out = self.work / f"unit_{self.count:04d}"
        self.count += 1
        argv = unit_argv(w, self.configs[config], out, jobs)
        main = sys.modules["straingrid.cli"].main
        if recorder is not None:
            main = recorder.wrap(ROOT_SPAN, main)
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        seconds = perf_counter() - start

        summary = None
        if code != 0:
            problems = [f"exit {code!r}: {sink.getvalue().strip()[-500:]}"]
        else:
            try:
                problems = self.check(out, config)
                if w.command == "compare":
                    summary = checks.compare_summary(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable artifacts: {exc!r}"]
        hashes = checks.artifact_hashes(out) if out.exists() else {}
        first = self.first_hashes.setdefault(config, hashes)
        identical = hashes == first
        if w.command == "simulate" and not identical:
            problems.append("rerun is not byte-identical to the first unit")
        result = {"config": config, "seconds": seconds, "problems": problems,
                  "identical": identical, "bytes_out": tree_bytes(out) if out.exists() else 0}
        if summary is not None:
            result["summary"] = summary
        shutil.rmtree(out, ignore_errors=True)
        return result


def timed_units(runner: Runner, seconds: float, jobs=None, step=None) -> list:
    """Units in a closed loop for `seconds`, at least one per config.
    The first unit warms up: it is checked but not timed."""
    step = step or (lambda index: runner.unit(index, jobs))
    start = perf_counter()
    done = [runner.unit(0, jobs)]
    index = 1
    while perf_counter() - start < seconds or index <= len(runner.configs):
        done.append(step(index))
        index += 1
    return done


def traced_run(runner: Runner, seconds: float, jobs, spans_path: Path, notes: list):
    """Untraced and traced unit of the same config, in pairs."""
    recorder = SpanRecorder()
    missing: list[str] = []

    def pair(index):
        plain = runner.unit(index, jobs)
        with hooks(recorder, missing):
            traced = runner.unit(index, jobs, recorder)
        return plain, traced

    warm, *pairs = timed_units(runner, seconds, jobs, step=pair)
    recorder.dump(spans_path)
    per_unit = [layer_metrics(*piece, bytes_out=traced["bytes_out"])
                for piece, (_, traced) in zip(unit_slices(recorder), pairs)]
    metrics = {key: statistics.median(m[key] for m in per_unit) for key in per_unit[0]}
    metrics["trace.overhead_s"] = statistics.median(
        traced["seconds"] - plain["seconds"] for plain, traced in pairs)
    if missing:
        notes.append("missing hooks: " + ", ".join(sorted(set(missing))))
    return [warm, *(unit for p in pairs for unit in p)], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        fresh_import()
    except ImportError as exc:
        print(f"cannot import straingrid from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
               references=(checks.load_reference()["workloads"].get(args.workload)
                           if args.seed == DEFAULT_SEED else None))


def run(workload, seed: int, seconds: float, trace: int, references=None) -> int:
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-seed{seed}-trace{trace}"
    notes = []
    try:
        configs = write_configs(workload, seed, work)
        setup_s = statistics.median(set_up(configs[0]) for _ in range(SETUP_REPEATS))
        runner = Runner(workload, configs, work, references)
        if trace:
            jobs = 1 if workload.command == "sweep" else None
            if jobs:
                notes.append("traced sweep runs with --jobs 1 so every span is in one process")
            units, metrics = traced_run(runner, seconds, jobs,
                                        RESULTS / f"{tag}-spans.json", notes)
        else:
            units = timed_units(runner, seconds)
            metrics = {"wall_s": statistics.median(u["seconds"] for u in units[1:]),
                       "setup_s": setup_s,
                       "peak_rss_mb": peak_rss_mb()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for u in units if u["problems"])
    record = {
        "workload": workload.name, "trace": trace, "environment": environment(seed),
        "units": units, "fail_frac": failed / len(units), "notes": notes,
        "hashes": runner.first_hashes, "metrics": metrics,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    units_line = " ".join(f"{u['seconds']:.3f}" for u in units)
    print(f"{workload.name} seed {seed}: {len(units)} units (first is warm-up), "
          f"fail_frac {failed / len(units):.3g}; unit seconds: {units_line}")
    for note in notes:
        print(note)
    for u in units:
        for problem in u["problems"]:
            print(f"FAILED config {u['config']}: {problem}")
    print("environment: " + json.dumps(record["environment"]))
    print(f"result record: {RESULTS / (tag + '.json')}")
    unit_of = metric_units()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def metric_units():
    """Metric name -> unit, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return table.__getitem__


if __name__ == "__main__":
    sys.exit(main())
