"""Shared test oracles and builders: run configs and run config files,
holdout splits, float64 copies of text-CNN models, finite-difference
gradients, comparison metrics, trace lines, a record of the evaluators the
command line builds, a stand-in ``open``, the mark of a test that needs
numpy, command lines and their inputs, output-directory snapshots, and the
text-CNN golden run config over a small TREC corpus. Test modules share
code through this module alone, never by importing one another.
numpy and the text CNN are imported only by the helpers that use them, so
numpy-free tests can import this module."""

import errno
import importlib.util
import json
import os
import random

import pytest
from annealtune import cli
from annealtune.corpus import hold_out, make_splits
from annealtune.search_space import RunConfig

#: a test that builds a text-CNN corpus or trains a text CNN; a test module
#: that needs numpy throughout starts with pytest.importorskip("numpy")
needs_numpy = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy is not installed"
)

#: the restriction of 36 configurations that write_run_config writes, for a
#: synthetic run in milliseconds
SPHERE_SPACE = {
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
    """Write a SPHERE_RUN run config over SPHERE_SPACE, with ``overrides`` on
    top (``space=None`` keeps the whole default space), to ``path``; return
    the path as text."""
    path.write_text(json.dumps({**SPHERE_RUN, "space": SPHERE_SPACE, **overrides}))
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


def float64_model(model):
    """A copy of ``model`` with every parameter cast to float64, so that its
    passes and training run in float64: the precision the finite-difference
    and reference comparisons' tolerances were set for."""
    from dataclasses import replace

    import numpy as np

    def cast(arrays):
        return {w: arr.astype(np.float64) for w, arr in arrays.items()}

    return replace(
        model,
        embedding=model.embedding.astype(np.float64),
        conv_filters=cast(model.conv_filters),
        conv_bias=cast(model.conv_bias),
        **cast({name: getattr(model, name) for name in ("w1", "b1", "w2", "b2")}),
    )


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


#: JSON nested deeper than the decoder recurses
DEEP_JSON = "[" * 100_000
#: ``eval --set`` pairs naming one configuration of the default space
TOP1_SETS = [
    "--set", "kernel_count_w3=100",
    "--set", "kernel_count_w4=64",
    "--set", "kernel_count_w5=32",
    "--set", "conv_dropout=0.4",
    "--set", "fc_units=64",
    "--set", "fc_dropout=0.4",
    "--set", "activation=tanh",
    "--set", "learning_rate=0.002",
    "--set", "batch_size=64",
]

#: a restriction of 8 configurations, for a synthetic ``tune`` in milliseconds
BASE_TUNE_SPACE = {
    "kernel_count_w3": [256, 100],
    "kernel_count_w4": [32],
    "kernel_count_w5": [32],
    "conv_dropout": ["0.1"],
    "fc_units": [512, 16],
    "fc_dropout": ["0.1"],
    "activation": ["relu", "tanh"],
    "learning_rate": ["0.001"],
    "batch_size": [64],
}

#: a restriction of 2 configurations, for ``oracle``
BASE_ORACLE_SPACE = {"fc_units": [16, 32], **{
    name: values[:1] for name, values in BASE_TUNE_SPACE.items() if name != "fc_units"
}}


def base_argv(command: str, tmp_path) -> list[str]:
    """A working command line for ``command`` that writes into ``tmp_path``."""
    if command == "plan":
        return ["plan"]
    config = write_run_config(
        tmp_path / "rc.json", iteration_budget=30, probe_count=4,
        space=BASE_TUNE_SPACE if command == "tune" else BASE_ORACLE_SPACE,
    )
    if command == "tune":
        return ["tune", "--config", config, "--output-dir", str(tmp_path / "out")]
    return ["oracle", "--config", config, "--output", str(tmp_path / "front.txt")]


def temp_files(directory) -> list:
    """The names of the temp files ``cli`` left in ``directory``."""
    return [p.name for p in directory.iterdir() if p.name.startswith(".tmp-")]


def snapshot(directory) -> dict:
    """Name -> bytes of each regular file in ``directory``."""
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


def trec_corpus(directory) -> str:
    """Write a small TREC-format corpus that no classifier separates (class
    keywords mixed with shared words, a fifth of the labels redrawn) and
    its dataset manifest; return the manifest's path."""
    rng = random.Random(0)
    keywords = {
        "HUM": ("who", "person", "name"),
        "LOC": ("where", "city", "place"),
        "NUM": ("how", "many", "year"),
    }
    shared = [f"w{i}" for i in range(12)]

    def lines(per_class: int) -> str:
        text = []
        for label, words in keywords.items():
            for _ in range(per_class):
                tokens = [
                    rng.choice(words) if rng.random() < 0.4 else rng.choice(shared)
                    for _ in range(rng.randint(5, 7))
                ]
                shown = rng.choice(list(keywords)) if rng.random() < 0.2 else label
                text.append(f"{shown}:x {' '.join(tokens)}\n")
        return "".join(text)

    train, test = directory / "train.label", directory / "test.label"
    train.write_text(lines(12))
    test.write_text(lines(3))
    manifest = directory / "dataset.json"
    manifest.write_text(json.dumps({"kind": "trec", "train": str(train), "test": str(test)}))
    return str(manifest)


#: 64 configurations; the filter counts and fc width trade FLOPs against error
TEXT_CNN_SPACE = {
    "kernel_count_w3": [32, 100],
    "kernel_count_w4": [32, 100],
    "kernel_count_w5": [32],
    "conv_dropout": ["0.1", "0.5"],
    "fc_units": [16, 32],
    "fc_dropout": ["0.1"],
    "activation": ["relu", "tanh"],
    "learning_rate": ["0.005", "0.01"],
    "batch_size": [64],
}


def write_text_cnn_run_config(directory, seed: int) -> str:
    """Write the text-CNN golden run config of ``seed``, over trec_corpus,
    into ``directory``; return its path."""
    config = directory / "rc.json"
    config.write_text(json.dumps({
        "seed_number": seed,
        "ratio_init": 0.6,
        "iteration_budget": 30,
        "initial_acceptance_probability": 0.5,
        "cooling_rate": 0.8,
        "probe_count": 8,
        "max_epochs": 3,
        "objective_kind": "textcnn",
        "dataset_path": trec_corpus(directory),
        "space": TEXT_CNN_SPACE,
    }))
    return str(config)
