"""Objective evaluation: configuration -> (error rate, FLOPs).

Contains the forward-pass FLOPs estimator, instant synthetic objectives for
exercising the annealer, the early-termination rule for poor trainings, a
persistent evaluation cache, and the real text-CNN evaluator. Each
evaluator is built from a RunConfig, which owns its search space, seed,
objective kind and epoch limit. Only the text-CNN evaluator imports
numpy, hashlib, ctypes and the text CNN, so a synthetic run starts without
them.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Mapping, Protocol

from .corpus import DataError, PreparedCorpus
from .pareto import ObjectiveVector
from .search_space import (
    SYNTHETIC_PREFIX, WINDOWS, Configuration, RunConfig, SearchSpace
)

#: the embedding width of every network, text CNN and synthetic alike
EMBEDDING_DIM = 50
#: early_termination_check's rule for every training: the margin over
#: chance the first epoch must clear, and the epochs without a new best
EARLY_STOP_MARGIN = 0.02
EARLY_STOP_PATIENCE = 3

#: the synthetic objectives' sentence length and class count
SYNTHETIC_SENTENCE_LENGTH = 10
SYNTHETIC_CLASS_COUNT = 6
_SPHERE_PROXY = SYNTHETIC_PREFIX + "sphere_proxy"


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss. Raised by ``textcnn.train``;
    defined here so that catching it does not import numpy."""


#: (window, its filter-count hyperparameter), ascending window size
_KERNEL_COUNTS = tuple((w, f"kernel_count_w{w}") for w in WINDOWS)
#: the hyperparameters estimate_flops reads: the network's shape
_SHAPE_NAMES = tuple(name for _, name in _KERNEL_COUNTS) + ("fc_units",)


@dataclass(frozen=True)
class FlopsBreakdown:
    conv_flops: tuple[int, ...]  # one entry per window, ascending window size
    fc_flops: int

    @property
    def total(self) -> int:
        return sum(self.conv_flops) + self.fc_flops


def estimate_flops(
    config: Configuration | Mapping[str, int],
    sentence_length: int,
    embedding_dim: int,
    class_count: int,
) -> FlopsBreakdown:
    """Forward-pass FLOPs, counting each multiply-accumulate as 2 operations.

    Convolution of f filters of height w over n positions costs
    f * (n - w + 1) * 2*w*k; the two fully connected stages cost
    2 * sum(f) * units + 2 * units * classes. Pooling, dropout, and
    activations are excluded from the count. ``config`` may also be a plain
    mapping that holds the filter counts and ``fc_units``, such as the
    shape ``flops_ceiling`` passes or a configuration's ``mapping``.
    """
    n, k = sentence_length, embedding_dim
    conv = []
    total_filters = 0
    for w, name in _KERNEL_COUNTS:
        if w > n:
            raise ValueError(f"window {w} exceeds sentence length {n}")
        f = int(config[name])
        conv.append(f * (n - w + 1) * 2 * w * k)
        total_filters += f
    units = int(config["fc_units"])
    fc = 2 * total_filters * units + 2 * units * class_count
    return FlopsBreakdown(conv_flops=tuple(conv), fc_flops=fc)


def flops_ceiling(
    space: SearchSpace, sentence_length: int, embedding_dim: int, class_count: int
) -> int:
    """Largest FLOPs total the space can produce.

    Valid because the estimate is monotone in every filter count and in the
    fully connected width: the all-maximum configuration attains the bound.
    """
    shape = {
        name: max(int(v) for v in space.domain(name).values) for name in _SHAPE_NAMES
    }
    return estimate_flops(shape, sentence_length, embedding_dim, class_count).total


class ObjectiveEvaluator(Protocol):
    """What the annealer needs from an objective."""

    space: SearchSpace
    flops_max: int
    #: (sentence length, embedding width, class count): estimate_flops's shape
    network: tuple[int, int, int]

    def evaluate(self, config: Configuration) -> ObjectiveVector: ...


class SyntheticEvaluator:
    """Deterministic, instantaneous objectives for testing the search loop,
    built from a run config whose objective kind is synthetic.

    synthetic:sphere_proxy: error = mean squared index fraction over the
    mutable domains (0 at all-first-index, 1 at all-last-index).

    synthetic:deceptive_trap: with t the mean index fraction, error = 0.05
    exactly at t = 1 (narrow global optimum) and 0.25 + 0.5*t elsewhere, a
    wide basin whose slope points away from the global optimum.

    Both report flops from the estimator under the fixed synthetic
    network-shape constants, estimated once per network shape. A run
    config's space has at least 2 configurations, so some domain is mutable.
    The tables evaluate reads are built once, with the evaluator.
    """

    network = (SYNTHETIC_SENTENCE_LENGTH, EMBEDDING_DIM, SYNTHETIC_CLASS_COUNT)

    def __init__(self, run_config: RunConfig) -> None:
        from operator import itemgetter

        kind = run_config.objective_kind
        if not kind.startswith(SYNTHETIC_PREFIX):
            raise ValueError(f"objective_kind {kind!r} is not a synthetic objective")
        self.run_config = run_config
        self.space = run_config.space
        self.flops_max = flops_ceiling(self.space, *self.network)
        #: a configuration's mapping -> its shape (the _SHAPE_NAMES values),
        #: and shape -> its estimate_flops total
        self._shape = itemgetter(*_SHAPE_NAMES)
        self._flops: dict[tuple, int] = {}
        #: (name, value -> index fraction) of each mutable domain in space
        #: order, as pinned domains carry no signal
        self._fractions = tuple(
            (d.name, {v: i / (len(d.values) - 1) for i, v in enumerate(d.values)})
            for d in self.space.mutable
        )
        self._sphere = kind == _SPHERE_PROXY

    def evaluate(self, config: Configuration) -> ObjectiveVector:
        values = config.mapping
        shape = self._shape(values)
        flops = self._flops.get(shape)
        if flops is None:
            flops = self._flops[shape] = estimate_flops(values, *self.network).total
        # summed left to right, not by sum(): from Python 3.12 sum()
        # compensates float rounding, which moves the last bits
        total = 0.0
        if self._sphere:
            for name, table in self._fractions:
                f = table[values[name]]
                total += f * f
            error = total / len(self._fractions)
        else:
            for name, table in self._fractions:
                total += table[values[name]]
            t = total / len(self._fractions)
            error = 0.05 if t >= 1.0 else 0.25 + 0.5 * t
        return ObjectiveVector(error_rate=error, flops=flops)


def early_termination_check(validation_history: list[float], class_count: int) -> bool:
    """Whether to stop a hopeless training early.

    True when the first epoch lands below chance + EARLY_STOP_MARGIN, or
    when the best accuracy has not strictly improved for
    EARLY_STOP_PATIENCE consecutive epochs; train calls it as each epoch ends.
    """
    if validation_history[0] < 1.0 / class_count + EARLY_STOP_MARGIN:
        return True
    first_best = validation_history.index(max(validation_history))
    return len(validation_history) - 1 - first_best >= EARLY_STOP_PATIENCE


def _parse_record(line: bytes) -> tuple[str, ObjectiveVector] | None:
    """(key, value) of one evaluation cache line; None if it is not one: a
    str key, a JSON number error rate and JSON integer flops (a bool is none)."""
    try:
        record = json.loads(line)
        key, rate, flops = record["key"], record["error_rate"], record["flops"]
        if type(key) is str and type(rate) in (int, float) and type(flops) is int:
            return key, ObjectiveVector(float(rate), flops)
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
        pass
    return None


#: how every line EvaluationCache.put writes begins
_RECORD_START = b'{"key": "'


class EvaluationCache:
    """Cache key -> ObjectiveVector; optionally persisted as JSON lines.

    An interrupted run restarted against the same cache file skips every
    training it already finished. Each record is appended as one line, so an
    interruption can only leave bytes after the file's last newline that
    begin a record or are whitespace: loading truncates the file to drop
    them. Any other such bytes, and a malformed line that ends in a newline,
    are a DataError that leaves the file untouched, and so is a path that
    cannot be read and appended to (a missing directory, a directory, a file
    without read or write permission): that fails here, before any training
    is spent on it, and again on a later failed append.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._memory: dict[str, ObjectiveVector] = {}
        if path is None:
            return
        try:
            with open(path, "a+b") as fh:
                fh.seek(0)
                data = fh.read()
                whole = data.rfind(b"\n") + 1
                lines = data[:whole].splitlines(keepends=True)
                tail = data[whole:]  # an append cut short, or not a cache
                torn = tail.startswith(_RECORD_START) or _RECORD_START.startswith(tail)
                if not (torn or tail.isspace()):
                    lines.append(tail)
                for lineno, line in enumerate(lines, 1):
                    if not line.strip():
                        continue
                    record = _parse_record(line) if line.endswith(b"\n") else None
                    if record is None:
                        raise DataError(
                            f"{path}:{lineno}: malformed evaluation cache line"
                        )
                    key, value = record
                    self._memory[key] = value
                if whole < len(data):
                    fh.truncate(whole)  # so the next append starts a fresh line
        except OSError as exc:
            raise DataError(f"evaluation cache {path}: {exc.strerror}") from None

    def _append(self, text: str) -> None:
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DataError(f"evaluation cache {self.path}: {exc.strerror}") from None

    def get(self, key: str) -> ObjectiveVector | None:
        return self._memory.get(key)

    def put(self, key: str, value: ObjectiveVector) -> None:
        self._memory[key] = value
        if self.path is not None:
            record = {"key": key, "error_rate": value.error_rate, "flops": value.flops}
            self._append(json.dumps(record) + "\n")


def _corpus_fingerprint(corpus: PreparedCorpus) -> str:
    """Digest of everything a training reads from the corpus."""
    import hashlib

    h = hashlib.sha256(f"{corpus.vocab_size}:{corpus.class_count}".encode())
    for array in (
        corpus.train_ids,
        corpus.train_labels,
        corpus.validation_ids,
        corpus.validation_labels,
    ):
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())  # C order, whatever the memory layout
    return h.hexdigest()


#: glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Have the C allocator serve blocks up to 32 MiB from the heap and hand
    the heap top back to the kernel only past 64 MiB free.

    By default glibc maps numpy's larger temporaries (window matrices, conv
    outputs, Rmsprop terms) fresh and trims the heap after they are freed,
    so every training step faults the same pages in again. Once per process;
    where the C library has no mallopt this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


class TextCnnEvaluator:
    """Trains a fresh text CNN per configuration and scores it on the
    validation split, under a ``textcnn`` run config's seed and max_epochs.

    Results are cached under a key covering the configuration, the seed,
    the prepared corpus, max_epochs, EMBEDDING_DIM, the early-stop rule and
    the text CNN's parameter dtype, so a shared cache never answers for
    another corpus or training setting.
    """

    def __init__(
        self, run_config: RunConfig, corpus: PreparedCorpus, cache: EvaluationCache
    ) -> None:
        from .textcnn import DTYPE

        kind = run_config.objective_kind
        if kind != "textcnn":
            raise ValueError(f"objective_kind {kind!r} is not textcnn")
        self.run_config, self.corpus, self.cache = run_config, corpus, cache
        self.space = run_config.space
        self.network = (corpus.sentence_length, EMBEDDING_DIM, corpus.class_count)
        self.flops_max = flops_ceiling(self.space, *self.network)
        self.trainings = 0
        context = {"max_epochs": run_config.max_epochs, "embedding_dim": EMBEDDING_DIM,
                   "early_stop_margin": EARLY_STOP_MARGIN,
                   "early_stop_patience": EARLY_STOP_PATIENCE,
                   "corpus": _corpus_fingerprint(corpus), "dtype": DTYPE.name}
        self._context = json.dumps(context, sort_keys=True)

    def evaluate(self, config: Configuration) -> ObjectiveVector:
        import hashlib

        import numpy as np

        from . import textcnn

        run_config, corpus = self.run_config, self.corpus
        seed = run_config.seed_number
        payload = json.dumps(
            {"config": [[k, v] for k, v in config.items], "seed": seed}, sort_keys=True
        )
        digest = hashlib.sha256(payload.encode()).hexdigest()
        key = hashlib.sha256(f"{self._context}:{digest}".encode()).hexdigest()
        flops = estimate_flops(config, *self.network).total
        cached = self.cache.get(key)
        if cached is not None:
            if cached.flops != flops:
                raise DataError(
                    f"evaluation cache {self.cache.path}: {cached.flops} flops "
                    f"recorded for a configuration of {flops}"
                )
            return cached
        _keep_freed_heap()
        # per-(config, seed) stream so re-evaluations replay identically
        model_seed = int(digest[:16], 16)
        model = textcnn.init_model(
            config,
            vocab_size=corpus.vocab_size,
            embedding_dim=self.network[1],
            class_count=corpus.class_count,
            rng=np.random.default_rng(model_seed),
        )
        settings = textcnn.TrainingSettings(
            float(config["learning_rate"]),
            int(config["batch_size"]),
            run_config.max_epochs,
            model_seed,
        )
        try:
            _, history = textcnn.train(
                model,
                corpus.train_ids,
                corpus.train_labels,
                corpus.validation_ids,
                corpus.validation_labels,
                settings,
                early_stop=functools.partial(
                    early_termination_check, class_count=corpus.class_count
                ),
            )
        except DivergenceError as exc:
            raise DivergenceError(f"{exc} (config {dict(config.items)})") from exc
        self.trainings += 1
        best_acc = max(history)
        result = ObjectiveVector(error_rate=1.0 - best_acc, flops=flops)
        self.cache.put(key, result)
        return result
