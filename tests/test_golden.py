"""Golden outputs: ``annealtune tune`` on two fixed synthetic run configs.

The expected values are sha256 digests of ``trace.jsonl`` and
``archive.json``. A change meant to keep the program's outputs
byte-identical must leave them passing; a deliberate change to what
``tune`` writes must update the digests in the same change and say why.
Only synthetic objectives are used: they run on Python floats, so no BLAS
build can move a digest.
"""

import hashlib
import json

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
        },
    ),
]


@pytest.mark.parametrize(
    "run_config,digests", GOLDEN, ids=["sphere_proxy", "deceptive_trap"]
)
def test_tune_outputs_match_recorded_digests(tmp_path, run_config, digests):
    config = tmp_path / "rc.json"
    config.write_text(json.dumps(run_config))
    out = tmp_path / "out"
    assert cli.main(["tune", "--config", str(config), "--output-dir", str(out)]) == 0
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in digests
    }
    assert got == digests
