"""annealtune benchmark: one workload, run by one closed-loop client.

    python3 bench/run.py --workload synthetic-study --seed 1 --seconds 50 --trace 0

The client calls ``annealtune.cli.main`` in-process, each call after the
previous one returns, on inputs generated from ``--seed`` (see inputs.py),
cycling through the workload's inputs for ``--seconds``. It then checks the
outputs and prints one line per metric, an environment line, and, last, a
JSON object with the keys correct, attempted, failed and metrics. With
``--trace 1`` it calls for half the time untraced, then replays the same
calls, for the other half, with every annealtune module traced (tracer.py),
and reports per-layer metrics and the tracing overhead on the replayed calls
instead. setup_s is timed on fresh interpreters (setup_probe.py). Exits 1
when a check fails and 2 when the annealtune sources are missing. See
README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any

import inputs
from measures import hypervolume, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "setup_probe.py")
OUT = os.path.join(ROOT, ".bench_out")

#: set-ups, each in a fresh interpreter, per timed run; setup_s is their median
SETUP_REPS = 9
#: fewest timed calls per run, so that the tail lies at or above the median
MIN_CALLS = 20
#: a timed loop stops starting calls after this long, however few it made
HARD_STOP_S = 120.0
#: longest a set-up may take before it counts as failed
SETUP_TIMEOUT_S = 30.0


@dataclass
class Job:
    """One distinct ``annealtune`` invocation of a workload."""

    source: str  # the generated input file
    argv: list[str]
    out: str  # output directory
    cache: str | None = None

    def reset(self) -> None:
        """Give the next call a fresh evaluation cache file."""
        if self.cache and os.path.exists(self.cache):
            os.unlink(self.cache)


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _dominates(a: tuple[float, int], b: tuple[float, int]) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and a != b


def _read_front(path: str) -> list[tuple[tuple, float, int]]:
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    return [
        (tuple(sorted(e["config"].items())), e["error_rate"], e["flops"]) for e in entries
    ]


class TuneWorkload:
    """``annealtune tune`` on generated run configs."""

    def __init__(self, with_cache: bool, reruns: int) -> None:
        self.with_cache = with_cache
        self.reruns = reruns  # jobs run twice to compare their outputs byte for byte

    def jobs(self, paths: list[str], out: str) -> list[Job]:
        jobs = []
        for i, path in enumerate(paths):
            directory = os.path.join(out, f"run-{i:03d}")
            cache = os.path.join(out, f"cache-{i:03d}.jsonl") if self.with_cache else None
            argv = ["tune", "--config", path, "--output-dir", directory]
            jobs.append(Job(path, argv + (["--cache", cache] if cache else []), directory, cache))
        return jobs

    def check(self, cli, jobs: list[Job], checks: Checks, out: str) -> None:
        """Two runs of one config write byte-identical trace and archive."""
        for i, job in enumerate(jobs[: self.reruns]):
            rerun_dir = os.path.join(out, f"rerun-{i}")
            os.makedirs(rerun_dir)
            again = self.jobs([job.source], rerun_dir)[0]
            again.reset()
            rc = _invoke(cli, again.argv, io.StringIO())
            checks.expect(rc == 0, f"rerun of {job.source} exited {rc}")
            for name in ("trace.jsonl", "archive.json"):
                first, second = (os.path.join(d, name) for d in (job.out, again.out))
                same = rc == 0 and _read_bytes(first) == _read_bytes(second)
                checks.expect(same, f"{name} differs between two runs of {job.source}")


WORKLOADS = {
    "synthetic-study": TuneWorkload(with_cache=False, reruns=2),
    "textcnn-study": TuneWorkload(with_cache=True, reruns=1),
}


def _read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _invoke(cli, argv: list[str], sink: io.StringIO) -> int | None:
    """One command-line call with its standard output captured; None when
    it raised instead of returning an exit code."""
    sink.seek(0)
    sink.truncate()
    try:
        with contextlib.redirect_stdout(sink):
            return cli.main(argv)
    except Exception:  # a crash is a failed call, counted; the loop goes on
        traceback.print_exc()
        return None


@dataclass
class Call:
    job: int
    seconds: float
    rc: int | None


def _call(cli, jobs: list[Job], i: int, sink: io.StringIO) -> Call:
    jobs[i].reset()
    t0 = time.perf_counter()
    rc = _invoke(cli, jobs[i].argv, sink)
    return Call(i, time.perf_counter() - t0, rc)


def closed_loop(cli, jobs: list[Job], seconds: float, min_calls: int) -> list[Call]:
    """Cycle through the jobs, one call at a time, until ``seconds`` have
    passed and at least ``min_calls`` calls have been made."""
    sink = io.StringIO()
    calls: list[Call] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(calls) >= min_calls):
            return calls
        calls.append(_call(cli, jobs, len(calls) % len(jobs), sink))


def replay(cli, jobs: list[Job], order: list[Call], tracer, seconds: float) -> list[Call]:
    """The same calls again, in order, each under its own trace run id, until
    ``seconds`` have passed."""
    sink = io.StringIO()
    calls: list[Call] = []
    start = time.perf_counter()
    for run_id, previous in enumerate(order):
        if calls and time.perf_counter() - start >= seconds:
            break
        tracer.run_id = run_id
        calls.append(_call(cli, jobs, previous.job, sink))
    return calls


def timed_setups(workload: str, seed: int, work: str, checks: Checks) -> list[float]:
    """Run SETUP_REPS set-ups one after another, each in a fresh interpreter,
    and return the time from starting each to its ``ready`` line."""
    times = []
    for k in range(SETUP_REPS):
        argv = [sys.executable, PROBE, "--workload", workload, "--seed", str(seed),
                "--out", os.path.join(work, f"setup-{k}")]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            try:
                if not select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)[0]:
                    raise subprocess.TimeoutExpired(argv, SETUP_TIMEOUT_S)
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                rc = proc.wait(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = None
        ok = rc == 0 and line.strip() == "ready"
        checks.expect(ok, f"set-up {k} exited {rc}")
        if ok:
            times.append(elapsed)
    return times


# --- environment ----------------------------------------------------------------


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS library numpy loaded, asked through ctypes."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict[str, Any]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    commit = None  # a checkout without git history
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# --- metrics --------------------------------------------------------------------


def _tail(samples: list[float]) -> tuple[float, float]:
    """tail(), or the slowest sample when too few were taken for the rule."""
    try:
        return tail(samples)
    except ValueError:
        return (max(samples), 100.0) if samples else (0.0, 0.0)


def end_to_end(setup: list[float], calls: list[Call], evals: list[int], quality: dict) -> dict:
    times = [c.seconds for c in calls]
    run_tail, pct = _tail(times)
    return {
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "evals_per_s": (sum(evals[c.job] for c in calls) / sum(times), "1/s"),
        "run_s.p50": (statistics.median(times), "s"),
        "run_s.tail": (run_tail, "s", f"p{pct:.1f} of {len(times)} calls"),
        "hypervolume": (quality["hypervolume"], "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, built: list, traced: list[Call], untraced: list[Call], quality: dict) -> dict:
    from tracer import LAYERS

    s = tracer.summary()
    c, peak = tracer.counters, tracer.maxima

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def own(name):
        return s[name]["self_s"] if name in s else 0.0

    def total(name):
        return s[name]["total_s"] if name in s else 0.0

    def ratio(part, whole):
        return part / whole if whole else 0.0

    trainings = tracer.durations("textcnn.train")
    train_tail, train_pct = _tail(trainings)
    wall = sum(x.seconds for x in traced)
    untraced_wall = sum(x.seconds for x in untraced)
    m: dict[str, tuple] = {
        "textcnn.forward.calls": (calls("textcnn.forward") + calls("textcnn.forward_eval"), "count"),
        "textcnn.forward.self_s": (own("textcnn.forward") + own("textcnn.forward_eval"), "s"),
        "textcnn.forward.flops": (c["textcnn.forward.flops"], "flop", "computed, train-mode passes"),
        "textcnn.forward.gflops_per_s": (
            ratio(c["textcnn.forward.flops"], own("textcnn.forward")) / 1e9, "GFLOP/s",
            "computed FLOPs over train-mode forward self time"),
        "textcnn.backward.calls": (calls("textcnn.backward"), "count"),
        "textcnn.backward.self_s": (own("textcnn.backward"), "s"),
        "textcnn.rmsprop_update.calls": (calls("textcnn.rmsprop_update"), "count"),
        "textcnn.rmsprop_update.self_s": (own("textcnn.rmsprop_update"), "s"),
        "textcnn.accuracy.s": (total("textcnn.accuracy"), "s"),
        "textcnn.train.calls": (calls("textcnn.train"), "count"),
        "textcnn.train.self_s": (own("textcnn.train"), "s"),
        "textcnn.epochs": (c["textcnn.epochs"], "count"),
        "textcnn.train_samples": (c["textcnn.train_samples"], "count"),
        "training_s.p50": (statistics.median(trainings) if trainings else 0.0, "s"),
        "training_s.tail": (train_tail, "s", f"p{train_pct:.1f} of {len(trainings)} trainings"),
        "evaluator.evaluate.calls": (calls("evaluator.evaluate"), "count"),
        "evaluator.evaluate.self_s": (own("evaluator.evaluate"), "s"),
        "evaluator.cache.lookups": (c["evaluator.cache.get.calls"], "count"),
        "evaluator.cache.hit_ratio": (
            ratio(c["evaluator.cache.hits"], c["evaluator.cache.get.calls"]), "ratio",
            f"{c['evaluator.cache.hits']} hits of {c['evaluator.cache.get.calls']} lookups"),
        "evaluator.cache.put.self_s": (own("evaluator.cache.put"), "s"),
        "evaluator.trainings": (sum(e.trainings for e in built), "count"),
        "evaluator.early_stop_ratio": (
            ratio(c["textcnn.early_stops"], calls("textcnn.train")), "ratio",
            f"{c['textcnn.early_stops']} of {calls('textcnn.train')} trainings"),
        "evaluator.estimate_flops.calls": (calls("evaluator.estimate_flops"), "count"),
        "evaluator.estimate_flops.self_s": (own("evaluator.estimate_flops"), "s"),
        "annealer.run.calls": (calls("annealer.run"), "count"),
        "annealer.run.self_s": (own("annealer.run"), "s"),
        "annealer.step.calls": (calls("annealer.step"), "count"),
        "annealer.accept_ratio": (
            ratio(c["annealer.step.accepted"], calls("annealer.step")), "ratio",
            f"{c['annealer.step.accepted']} of {calls('annealer.step')} steps"),
        "annealer.evaluations": (c["annealer.evaluations"], "count"),
        **{
            f"annealer.stop.{reason}": (c[f"annealer.stop.{reason}"], "count")
            for reason in ("budget", "temperature", "stagnation", "schedule")
        },
        "search_space.neighbor.calls": (calls("search_space.neighbor"), "count"),
        "search_space.neighbor.self_s": (own("search_space.neighbor"), "s"),
        "pareto.insert.calls": (calls("pareto.insert"), "count"),
        "pareto.insert.self_s": (own("pareto.insert"), "s"),
        "pareto.insert.added_ratio": (
            ratio(c["pareto.insert.added"], calls("pareto.insert")), "ratio",
            f"{c['pareto.insert.added']} of {calls('pareto.insert')} inserts"),
        "pareto.archive.max_size": (peak["pareto.archive.max_size"], "count"),
        "pareto.scalar_deterioration.calls": (c["pareto.scalar_deterioration.calls"], "count"),
        "pareto.dominates.calls": (c["pareto.dominates.calls"], "count"),
        "corpus.load.s": (total("corpus.load"), "s"),
        "corpus.make_splits.s": (total("corpus.make_splits"), "s"),
        "corpus.sentences": (peak["corpus.sentences"], "count"),
        "corpus.vocab_size": (peak["corpus.vocab_size"], "count"),
        "cli.outputs.self_s": (sum(own(n) for n in s if n.startswith("cli.outputs.")), "s"),
        "cli.outputs.bytes": (c["cli.outputs.bytes"], "bytes"),
        "cli.tune.calls": (calls("cli.tune"), "count"),
        **{
            f"layer.{layer}.self_s": (
                sum(row["self_s"] for n, row in s.items() if n.split(".")[0] == layer), "s")
            for layer in LAYERS
        },
        "best_error_rate": (quality["best_error_rate"], "fraction"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.spans": (len(tracer.starts), "count"),
    }
    return m


# --- the run --------------------------------------------------------------------


def run(args: argparse.Namespace, work: str) -> int:
    workload = WORKLOADS[args.workload]
    checks = Checks()
    setup = [] if args.trace else timed_setups(args.workload, args.seed, work, checks)

    from annealtune import cli

    paths = inputs.generate(args.workload, args.seed, os.path.join(work, "inputs"))
    out = os.path.join(work, "out")
    os.makedirs(out)
    jobs = workload.jobs(paths, out)
    if args.trace:
        from tracer import Tracer, instrument

        untraced = closed_loop(cli, jobs, args.seconds / 2, len(jobs))
        tracer = Tracer()
        built = instrument(tracer)
        try:
            calls = replay(cli, jobs, untraced, tracer, args.seconds / 2)
        finally:
            tracer.restore()
        made = untraced + calls
        untraced = untraced[: len(calls)]
    else:
        calls = made = closed_loop(cli, jobs, args.seconds, max(MIN_CALLS, len(jobs)))

    # --- checks, outside the timed region
    failed_calls = [c for c in made if c.rc != 0]
    for c in failed_calls[:5]:
        print(f"call failed: {jobs[c.job].argv} exited {c.rc}", file=sys.stderr)
    ran = sorted({c.job for c in made})
    volumes, best_errors = [], []
    evals = [0] * len(jobs)
    for i in ran:
        job = jobs[i]
        try:
            front = _read_front(os.path.join(job.out, "archive.json"))
            with open(os.path.join(job.out, "calibration.json"), encoding="utf-8") as fh:
                evals[i] = json.load(fh)["evaluations"]
        except (OSError, ValueError, KeyError) as exc:
            checks.expect(False, f"no readable outputs for {job.source}: {exc}")
            continue
        points = [(err, flops) for _, err, flops in front]
        checks.expect(
            bool(points) and not any(_dominates(a, b) for a in points for b in points),
            f"front of {job.source} is empty or holds a dominated entry",
        )
        flops_max = cli.build_evaluator(cli.load_run_config(job.source)).flops_max
        volumes.append(hypervolume([(err, flops / flops_max) for err, flops in points]))
        best_errors.append(min((err for err, _ in points), default=1.0))
    workload.check(cli, [jobs[i] for i in ran], checks, out)
    quality = {
        "hypervolume": statistics.fmean(volumes) if volumes else 0.0,
        "best_error_rate": statistics.fmean(best_errors) if best_errors else 1.0,
    }

    if args.trace:
        metrics = per_layer(tracer, built, calls, untraced, quality)
        layer_total = sum(v[0] for k, v in metrics.items() if k.startswith("layer."))
        checks.expect(
            layer_total <= metrics["trace.wall_s"][0],
            f"layer self times add up to {layer_total} s, more than the traced wall time",
        )
    else:
        metrics = end_to_end(setup, calls, evals, quality)

    attempted = len(made) + checks.attempted
    failed = len(failed_calls) + len(checks.failures)
    for message in checks.failures:
        print(f"check failed: {message}", file=sys.stderr)
    metrics["failed_ratio"] = (failed / attempted, "ratio", f"{failed} of {attempted} operations")

    env = environment()
    for name, (value, unit, *note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note[0]})" if note else ""))
    print("environment: " + json.dumps(env, sort_keys=True))

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{int(args.trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "environment": env, "failures": checks.failures,
             "metrics": {k: list(v) for k, v in metrics.items()}},
            fh, indent=2,
        )
    if args.trace:
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.npz"))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        reported = {m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v[0], "unit": v[1]} for k, v in metrics.items() if k in reported
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "annealtune", "__init__.py")):
        print(f"error: no annealtune sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
