"""Shared test oracles and builders: run configs and run config files,
holdout splits, finite-difference gradients, comparison metrics,
trace lines, a record of the evaluators the command line builds, a
stand-in ``open`` and the mark of a test that needs numpy.
numpy and the text CNN are imported only by the helpers that use them, so
numpy-free tests can import this module."""

import errno
import importlib.util
import json
import os
import random
from dataclasses import fields

import pytest
from annealtune import cli
from annealtune.corpus import hold_out, make_splits
from annealtune.search_space import RunConfig

#: RunConfig's field defaults (MISSING for required fields)
RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}

#: a test that builds a text-CNN corpus or trains a text CNN; a test module
#: that needs numpy throughout starts with pytest.importorskip("numpy")
needs_numpy = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy is not installed"
)

#: a restriction of 36 configurations, for a synthetic run in milliseconds
SMALL_SPACE = {
    "kernel_count_w3": [256, 100, 32],
    "kernel_count_w4": [32],
    "kernel_count_w5": [32],
    "conv_dropout": ["0.1"],
    "fc_units": [512, 128, 16],
    "fc_dropout": ["0.1"],
    "activation": ["relu", "tanh"],
    "learning_rate": ["0.001", "0.002"],
    "batch_size": [64],
}


#: the required keys of a synthetic:sphere_proxy run config at seed 40
SPHERE_RUN = {
    "seed_number": 40,
    "ratio_init": 0.9,
    "iteration_budget": 250,
    "initial_acceptance_probability": 0.5,
    "cooling_rate": 0.8,
    "objective_kind": "synthetic:sphere_proxy",
}


def write_run_config(path, **overrides) -> str:
    """Write a SPHERE_RUN run config over SMALL_SPACE, with ``overrides`` on
    top (``space=None`` keeps the whole default space), to ``path``; return
    the path as text."""
    path.write_text(json.dumps({**SPHERE_RUN, "space": SMALL_SPACE, **overrides}))
    return str(path)


def holdout_splits(data, test_fraction, ratio_init, seed):
    """make_splits of ``data`` less a held-out test share, drawn as
    prepare_corpus draws the bundled corpus's."""
    rng = random.Random(seed)
    pool, test = hold_out(data, 0, round(test_fraction * len(data)), rng)
    return make_splits(pool, test, ratio_init, rng)


def make_run_config(space, **overrides) -> RunConfig:
    """A SPHERE_RUN RunConfig over ``space``, with ``overrides`` on top."""
    return RunConfig(**{**SPHERE_RUN, "space": space, **overrides})


def text_cnn_run_config(space, **settings) -> RunConfig:
    """A textcnn ``make_run_config`` over ``space`` whose seed and
    ``max_epochs`` keep their defaults, apart from those in ``settings``."""
    assert set(settings) <= {"seed_number", "max_epochs"}, settings
    return make_run_config(space, objective_kind="textcnn", **settings)


def finite_difference_gradients(model, ids, labels, mask_seed, eps=1e-4):
    """Central differences of a (B, n) batch's summed loss over every
    parameter, replaying identical dropout masks through a reseeded
    generator."""
    import numpy as np

    from annealtune.textcnn import forward, loss

    def loss_at() -> float:
        rng = np.random.default_rng(mask_seed)
        probs, _ = forward(model, ids, train_mode=True, rng=rng)
        return loss(probs, labels)

    grads = {}
    for name, arr in model.parameters().items():
        grad = np.zeros_like(arr)
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            f_plus = loss_at()
            flat[i] = original - eps
            f_minus = loss_at()
            flat[i] = original
            gflat[i] = (f_plus - f_minus) / (2 * eps)
        grads[name] = grad
    return grads


def relative_error(a, b) -> float:
    import numpy as np

    denom = max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def trace_line(record) -> str:
    """What ``json.dumps`` writes for a StepRecord's trace object; the
    oracle for the line ``cli.trace_jsonl`` writes for the record."""
    return json.dumps({
        "iteration": record.iteration,
        "temperature": record.temperature,
        "current": record.current_config.as_dict(),
        "current_objectives": [
            record.current_objectives.error_rate, record.current_objectives.flops
        ],
        "candidate": record.candidate_config.as_dict(),
        "candidate_objectives": [
            record.candidate_objectives.error_rate, record.candidate_objectives.flops
        ],
        "delta_f": record.delta_f,
        "probability": record.probability,
        "accepted": record.accepted,
        "archive": record.archive_action.value,
    })


def record_evaluators(monkeypatch) -> list:
    """The list to which every evaluator ``cli.build_evaluator`` builds from
    now on is appended, such as a TextCnnEvaluator whose ``trainings`` a
    test reads after the command."""
    built, build = [], cli.build_evaluator

    def recorded(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_evaluator", recorded)
    return built


def open_refusing_reads(file, mode="r", *args, **kwargs):
    """``open``, except that a mode that reads gets what a write-only file
    gives a user other than root."""
    if "r" in mode or "+" in mode:
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), file)
    return open(file, mode, *args, **kwargs)
