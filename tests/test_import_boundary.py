"""Which commands load the text-CNN stack.

A command that trains no CNN (plan, and tune, eval and oracle on a
synthetic run config) must run without numpy, ``annealtune.textcnn``,
hashlib and ctypes: the package imports each where a text-CNN evaluator,
its cache key or an encoded corpus is first built, or, for ctypes (the
allocator policy), where a CNN first trains. Every case runs in a fresh
interpreter, since this one may have loaded them long ago. The file imports
no numpy, so it runs where numpy is missing.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest
from helpers import write_run_config

import annealtune

TEXT_CNN_STACK = ("numpy", "annealtune.textcnn", "hashlib", "ctypes")

#: one command line in a fresh interpreter; prints its exit code and which
#: modules of the text-CNN stack it loaded as the last line
PROBE = f"""
import json, sys
from annealtune import cli
code = cli.main(sys.argv[1:])
stack = {TEXT_CNN_STACK!r}
print(json.dumps({{"code": code, "loaded": [m for m in stack if m in sys.modules]}}))
"""

SETS = [
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


def run_fresh(tmp_path, *argv: str) -> dict:
    src = os.path.dirname(os.path.dirname(annealtune.__file__))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )},
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def run_config(tmp_path, **overrides) -> str:
    """A run config over the default space, which holds SETS."""
    return write_run_config(tmp_path / "rc.json", space=None, **overrides)


COMMANDS_WITHOUT_CNN = {
    "plan": lambda tmp_path: ["plan"],
    "oracle": lambda tmp_path: [
        "oracle", "--config", write_run_config(tmp_path / "rc.json"),
        "--output", str(tmp_path / "front.txt"),
    ],
    "synthetic tune": lambda tmp_path: [
        "tune", "--config", run_config(tmp_path), "--output-dir", str(tmp_path / "out"),
    ],
    "synthetic eval": lambda tmp_path: ["eval", "--config", run_config(tmp_path), *SETS],
}


@pytest.mark.parametrize("command", sorted(COMMANDS_WITHOUT_CNN))
def test_command_without_cnn_loads_no_text_cnn_stack(tmp_path, command):
    result = run_fresh(tmp_path, *COMMANDS_WITHOUT_CNN[command](tmp_path))
    assert result == {"code": 0, "loaded": []}


def test_text_cnn_eval_loads_the_stack(tmp_path):
    if importlib.util.find_spec("numpy") is None:
        pytest.skip("numpy is not installed")
    config = run_config(tmp_path, objective_kind="textcnn", max_epochs=1)
    result = run_fresh(tmp_path, "eval", "--config", config, *SETS)
    assert result == {"code": 0, "loaded": list(TEXT_CNN_STACK)}
