"""Golden outputs: ``annealtune tune`` on two fixed synthetic run configs
and ``annealtune oracle`` on one fixed restricted space.

The expected values are sha256 digests of every file each command writes.
A change meant to keep the program's outputs byte-identical must leave them
passing; a deliberate change to what ``tune`` or ``oracle`` writes must
update the digests in the same change and say why. Only synthetic
objectives are used, and these need no numpy, so no BLAS build can move a
digest. Python floats alone do not make them hold on every interpreter:
from Python 3.12 ``sum()`` of floats compensates rounding, so the program
adds its floats in explicit left-to-right loops, and the digests hold on
Python 3.10 to 3.13. ``test_tune_outputs_hold_under_compensated_sum``
checks that on any one interpreter.
"""

import builtins
import hashlib
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
