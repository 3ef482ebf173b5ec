"""Golden outputs: ``annealtune tune`` on two fixed synthetic run configs
and three fixed text-CNN run configs, and ``annealtune oracle`` on one fixed
restricted space.

The expected values are sha256 digests of every file each command writes,
the text-CNN runs' ``--cache`` file included. A change meant to keep the
program's outputs byte-identical must leave them passing; a deliberate
change to what ``tune`` or ``oracle`` writes must update the digests in the
same change and say why. The synthetic objectives need no numpy, so no BLAS
build can move their digests. Python floats alone do not make them hold on
every interpreter: from Python 3.12 ``sum()`` of floats compensates
rounding, so the program adds its floats in explicit left-to-right loops,
and the digests hold on Python 3.10 to 3.13.
``test_tune_outputs_hold_under_compensated_sum`` checks that on any one
interpreter. A text-CNN run's outputs follow from its predicted labels
(error rates are counts over the validation split, FLOPs are integers), so
numpy or BLAS can move those digests only by flipping a prediction; they
are skipped where numpy is missing.
"""

import builtins
import hashlib
import importlib.util
import json
import math
import random
import sys

import pytest

import annealtune.cli as cli

DESCENDING_SPACE = {
    "kernel_count_w3": [256, 160, 128, 100, 96, 64, 32],
    "kernel_count_w4": [256, 160, 128, 100, 96, 64, 32],
    "kernel_count_w5": [256, 160, 128, 100, 96, 64, 32],
    "fc_units": [512, 256, 128, 64, 32, 16],
}

GOLDEN = [
    (
        {
            "seed_number": 1234,
            "ratio_init": 0.9,
            "iteration_budget": 600,
            "initial_acceptance_probability": 0.5,
            "cooling_rate": 0.9,
            "objective_kind": "synthetic:sphere_proxy",
            "space": DESCENDING_SPACE,
        },
        {
            "trace.jsonl": (
                "2362bd55088d4112cfa1938e4daa2dabf36168423617570b3df59bea09384dc2"
            ),
            "archive.json": (
                "a3082688e7cfa66ae1288e7ca6c4d929dd1df63b21fee02ab479604d5451799a"
            ),
            "archive.txt": (
                "4ddf9ffb0248a0957018a05ea9ae6bd79e4e69fa1f65d4995143cc8861bca5fd"
            ),
            "calibration.json": (
                "c6ffe505dade19deb0419dd7dfc4ca956e8e73412e5d1bee86f4f72e1a61cbb5"
            ),
        },
    ),
    (
        {
            "seed_number": 99,
            "ratio_init": 0.9,
            "iteration_budget": 600,
            "initial_acceptance_probability": 0.6,
            "cooling_rate": 0.95,
            "objective_kind": "synthetic:deceptive_trap",
            "probe_count": 30,
            "space": DESCENDING_SPACE,
        },
        {
            "trace.jsonl": (
                "0832823d3a9616775047db3ed165139e3778a379e090b665c708d7a40259091b"
            ),
            "archive.json": (
                "950237d9abb4574a2e189ac3dd94456b3a7ebf0188e170063ce84afda313a05f"
            ),
            "archive.txt": (
                "978807f726814d99a1954d5098a4326339cdc8c4ea4522a37412fb6d1a1a2262"
            ),
            "calibration.json": (
                "1f7238992ba351b1871a0a5e6eab7c868c73503551a79b66eced1d081ed09108"
            ),
        },
    ),
]


@pytest.mark.parametrize(
    "run_config,digests", GOLDEN, ids=["sphere_proxy", "deceptive_trap"]
)
def test_tune_outputs_match_recorded_digests(tmp_path, run_config, digests):
    assert tune_digests(tmp_path, run_config) == digests


_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum()`` as Python 3.12 and later compute it over floats: Neumaier's
    compensated summation. Anything but an all-float input, ints included,
    goes to the interpreter's own ``sum()``."""
    items = list(iterable)
    if not items or not all(type(x) is float for x in items):
        return _builtin_sum(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@pytest.mark.parametrize(
    "run_config,digests", GOLDEN, ids=["sphere_proxy", "deceptive_trap"]
)
def test_tune_outputs_hold_under_compensated_sum(
    tmp_path, monkeypatch, run_config, digests
):
    # the same bytes whichever summation sum() does, so on every interpreter
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert tune_digests(tmp_path, run_config) == digests


@pytest.mark.skipif(
    sys.version_info < (3, 12), reason="sum() compensates from Python 3.12"
)
def test_compensated_sum_matches_the_interpreters_sum():
    # so that the test above sees what Python 3.12 and later would compute
    rng = random.Random(0)
    for _ in range(2000):
        xs = [
            rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12)
            for _ in range(rng.randint(1, 12))
        ]
        assert compensated_sum(xs) == _builtin_sum(xs), xs


def tune_digests(tmp_path, run_config) -> dict[str, str]:
    """Digests of what ``annealtune tune`` writes for ``run_config``."""
    config = tmp_path / "rc.json"
    config.write_text(json.dumps(run_config))
    out = tmp_path / "out"
    assert cli.main(["tune", "--config", str(config), "--output-dir", str(out)]) == 0
    return digests_of(out)


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

#: seed -> digests of a run whose archive holds more than one error rate and
#: whose trace both accepts and rejects steps
TEXT_CNN_GOLDEN = {
    28: {
        "trace.jsonl": (
            "4fc0afec9bee41789ed6db19037672cb335ddc0c46ec96a488df79ef6dd8be36"
        ),
        "archive.json": (
            "afc2c7b8a627475eec0b6d792459d3b68a3139a00ef296bfd996c50d03a31a3d"
        ),
        "archive.txt": (
            "6303165228de4612b89609be64781058fd50bb0449582cae65de07c208f7119e"
        ),
        "calibration.json": (
            "cc596d9e247ac88d664b3a17a38e7ac85aa18742af0e650a2ce0f643be8e4ba8"
        ),
        "cache.jsonl": (
            "35acfac95dfdc4b8d2be864a5d5a1ab8401e39cca588be5c80aac8a27ce78f76"
        ),
    },
    31: {
        "trace.jsonl": (
            "7385054644f33cdcefce9ec5df00dd8ffb3ee52e401ad904010896f64d304226"
        ),
        "archive.json": (
            "c909a15635f8af3ce0bd81acab4a640c88ab8acd6835d1e0dd1f6aaaea955533"
        ),
        "archive.txt": (
            "f5e6f84cdbbfc1b7b29140b45642a449b46d6cc76b3bd9c2beae202f375a07c3"
        ),
        "calibration.json": (
            "2a5a7ea13fa50ed43904701c4de978b77afba7922a5f10bb76f47a2d29380895"
        ),
        "cache.jsonl": (
            "5fea43f6623776f2b3cec2b1ad0ae47e0050114c3491ec84dba365cec8f3da51"
        ),
    },
    33: {
        "trace.jsonl": (
            "1f3965699329d8ad804a718a49dfb9b86c7db0372cfe1b0e38c7e577c40f89d7"
        ),
        "archive.json": (
            "c0be8d936cdb8e2bb4548c59e42e72cdf86a8f0dd7fe33ac21b08bf940ef7e29"
        ),
        "archive.txt": (
            "dbc0d3b4780537ef7a7a643a47305ac3dd1265dca70211e8e42f76fa63d9d2e5"
        ),
        "calibration.json": (
            "166cc8823f2f4c4e5c903cd352a80b79c4ee99da965f8e432d75173529793968"
        ),
        "cache.jsonl": (
            "36556f55c295be0caebb3ef265e000e5f736b9a70f66144646068b8aea10ad80"
        ),
    },
}


@pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy is not installed"
)
@pytest.mark.parametrize("seed", sorted(TEXT_CNN_GOLDEN))
def test_text_cnn_tune_outputs_match_recorded_digests(tmp_path, seed):
    config = tmp_path / "rc.json"
    config.write_text(json.dumps({
        "seed_number": seed,
        "ratio_init": 0.6,
        "iteration_budget": 30,
        "initial_acceptance_probability": 0.5,
        "cooling_rate": 0.8,
        "probe_count": 8,
        "max_epochs": 3,
        "objective_kind": "textcnn",
        "dataset_path": trec_corpus(tmp_path),
        "space": TEXT_CNN_SPACE,
    }))
    out = tmp_path / "out"
    out.mkdir()
    argv = ["tune", "--config", str(config), "--output-dir", str(out),
            "--cache", str(out / "cache.jsonl")]
    assert cli.main(argv) == 0
    assert digests_of(out) == TEXT_CNN_GOLDEN[seed]
    # what makes the digests cover more than one path through the search
    entries = json.loads((out / "archive.json").read_text())["entries"]
    assert len({e["error_rate"] for e in entries}) > 1
    steps = (out / "trace.jsonl").read_text().splitlines()[1:]
    assert {json.loads(line)["accepted"] for line in steps} == {True, False}


#: several multi-valued domains, some listed against the default order, so
#: the restriction's value order reaches the index-based objectives
ORACLE_SPACE = {
    "kernel_count_w3": [256, 100, 32],
    "kernel_count_w4": [160, 32],
    "kernel_count_w5": [32, 64],
    "conv_dropout": ["0.1"],
    "fc_units": [512, 64, 16],
    "fc_dropout": ["0.5", "0.1"],
    "activation": ["tanh", "relu", "elu"],
    "learning_rate": ["0.01", "0.001"],
    "batch_size": [64],
}

ORACLE_DIGESTS = {
    "front.txt": (
        "0b22c91e1c84ae015dfc7b8b4ce95643556e1665e834d52bdde6e2581f6afaa7"
    ),
    "front.json": (
        "b9fa89286e39d2045518b1fcd030f99ed1caddef76eee969000a6aba6f0fcc90"
    ),
}


def test_oracle_outputs_match_recorded_digests(tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        ["oracle", "--objective", "sphere_proxy", "--space",
         json.dumps(ORACLE_SPACE), "--cap", "1000", "--top-k", "5",
         "--output", str(out / "front.txt")]
    )
    assert code == 0
    assert digests_of(out) == ORACLE_DIGESTS


def digests_of(directory) -> dict[str, str]:
    """sha256 of every file in ``directory``, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in directory.iterdir()
    }
