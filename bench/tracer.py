"""In-memory span tracing of annealtune's modules, from outside the package.

``instrument`` replaces functions and methods at the names their callers
look up (``annealtune.cli.run``, ``annealtune.annealer.step``,
``ParetoArchive.insert`` ...) with wrappers that record a span per call:
name, start, end, parent span and run id. ``Tracer.restore`` puts the
originals back. Spans live in flat arrays until ``Tracer.write`` saves them
at the end of a run; per-layer metrics come from ``Tracer.summary``.
"""

from __future__ import annotations

import collections
import time
from array import array
from typing import Any, Callable

import numpy as np

from measures import self_times

#: the package's modules; a span's layer is the prefix of its name
LAYERS = ("cli", "corpus", "evaluator", "textcnn", "annealer", "search_space", "pareto")

Hook = Callable[[tuple, dict, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.runs = array("l")
        self.counters: collections.Counter = collections.Counter()
        self.maxima: dict[str, float] = collections.defaultdict(float)
        self.run_id = -1
        self._current = -1
        self._patches: list[tuple[Any, str, Any]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._current)
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self._current = idx
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._current = self.parents[idx]

    # --- wrappers ---------------------------------------------------------

    def span(
        self,
        fn: Callable,
        name: str | Callable[[tuple, dict], str],
        after: Hook | None = None,
    ) -> Callable:
        """Wrap ``fn`` to record one span per call; ``name`` may pick the
        span name from the call's arguments. ``after`` sees (args, kwargs,
        result) once the span is closed."""
        fixed = None if callable(name) else self.name_id(name)

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(args, kwargs))
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def count(self, fn: Callable, name: str, after: Hook | None = None) -> Callable:
        """Wrap ``fn`` to count calls as ``<name>.calls`` without a span,
        for functions too small and frequent to time one by one."""
        counters = self.counters
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[key] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> Callable:
        """Replace ``owner.attr`` by ``make(original)``; return the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return original

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s (self time) and total_s (duration)."""
        own = self_times(self.starts, self.ends, self.parents)
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names
        }
        for i, nid in enumerate(self.name_ids):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += own[i]
            row["total_s"] += self.ends[i] - self.starts[i]
        return out

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [
            self.ends[i] - self.starts[i]
            for i, n in enumerate(self.name_ids)
            if n == nid
        ]

    def write(self, path: str) -> None:
        """Save every span as numpy arrays: name (index into ``names``),
        start, end, parent (-1 for a root) and run."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_ids, dtype=np.uint16),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            run=np.frombuffer(self.runs, dtype=np.int64),
        )


def instrument(tracer: Tracer) -> list:
    """Wrap annealtune's public entry points, and the output writers of the
    command line, at the names their callers look up. Returns the list that
    collects every text-CNN evaluator the command line builds."""
    from annealtune import annealer, cli, evaluator, pareto, textcnn

    c, peak = tracer.counters, tracer.maxima
    span, patch = tracer.span, tracer.patch
    flops_of = evaluator.estimate_flops  # unwrapped: for the FLOPs counter only

    # cli: the subcommands and every output writer
    patch(cli, "main", lambda f: span(f, "cli.main"))
    patch(cli, "cmd_tune", lambda f: span(f, "cli.tune"))
    for writer in ("archive_text", "archive_json", "trace_jsonl", "calibration_json"):
        patch(cli, writer, lambda f, w=writer: span(f, f"cli.outputs.{w}"))

    def wrote(args, kwargs, result):
        c["cli.outputs.bytes"] += len(args[1].encode())

    patch(cli, "_atomic_write", lambda f: span(f, "cli.outputs.atomic_write", wrote))

    # corpus: called by the command line while it builds the evaluator
    def loaded(args, kwargs, result):
        train, test, _ = result
        peak["corpus.sentences"] = max(peak["corpus.sentences"], len(train) + len(test))

    def split(args, kwargs, result):
        peak["corpus.vocab_size"] = max(peak["corpus.vocab_size"], result.vocab_size)

    patch(cli, "load_trec", lambda f: span(f, "corpus.load", loaded))
    patch(cli, "make_splits", lambda f: span(f, "corpus.make_splits", split))

    # evaluator
    built: list = []

    def build(args, kwargs, result):
        if hasattr(result, "trainings"):
            built.append(result)

    patch(cli, "build_evaluator", lambda f: span(f, "evaluator.build", build))
    for cls in (evaluator.SyntheticEvaluator, evaluator.TextCnnEvaluator):
        patch(cls, "evaluate", lambda f: span(f, "evaluator.evaluate"))
    patch(evaluator, "estimate_flops", lambda f: span(f, "evaluator.estimate_flops"))

    def looked_up(args, kwargs, result):
        c["evaluator.cache.hits"] += result is not None

    patch(evaluator.EvaluationCache, "get", lambda f: tracer.count(f, "evaluator.cache.get", looked_up))
    patch(evaluator.EvaluationCache, "put", lambda f: span(f, "evaluator.cache.put"))

    # textcnn: called by the evaluator (train) and by train itself
    def trained(args, kwargs, result):
        model, train_x = args[0], args[1]
        settings = args[5] if len(args) > 5 else kwargs["settings"]
        epochs = len(result[1])
        samples = epochs * len(train_x)
        c["textcnn.epochs"] += epochs
        c["textcnn.train_samples"] += samples
        c["textcnn.early_stops"] += epochs < settings.max_epochs
        shape = {f"kernel_count_w{w}": f.shape[0] for w, f in model.conv_filters.items()}
        shape["fc_units"] = model.w1.shape[1]
        per_pass = flops_of(
            shape, train_x.shape[1], model.embedding.shape[1], model.class_count
        ).total
        c["textcnn.forward.flops"] += samples * per_pass

    def forward_name(args, kwargs):
        train_mode = kwargs.get("train_mode", args[2] if len(args) > 2 else False)
        return "textcnn.forward" if train_mode else "textcnn.forward_eval"

    patch(textcnn, "train", lambda f: span(f, "textcnn.train", trained))
    patch(textcnn, "forward", lambda f: span(f, forward_name))
    for name in ("backward", "rmsprop_update", "accuracy"):
        patch(textcnn, name, lambda f, n=name: span(f, f"textcnn.{n}"))

    # annealer: the command line calls run, run calls step
    def ran(args, kwargs, result):
        c["annealer.evaluations"] += result.evaluations
        c[f"annealer.stop.{result.stop_reason}"] += 1

    def stepped(args, kwargs, result):
        c["annealer.step.accepted"] += result.accepted

    patch(cli, "run", lambda f: span(f, "annealer.run", ran))
    patch(annealer, "step", lambda f: span(f, "annealer.step", stepped))

    # search_space
    patch(annealer, "neighbor", lambda f: span(f, "search_space.neighbor"))

    # pareto
    def inserted(args, kwargs, result):
        c["pareto.insert.added"] += result is pareto.ArchiveAction.ADDED
        peak["pareto.archive.max_size"] = max(peak["pareto.archive.max_size"], len(args[0]))

    patch(pareto.ParetoArchive, "insert", lambda f: span(f, "pareto.insert", inserted))
    patch(pareto, "dominates", lambda f: tracer.count(f, "pareto.dominates"))
    patch(annealer, "scalar_deterioration", lambda f: tracer.count(f, "pareto.scalar_deterioration"))
    return built
