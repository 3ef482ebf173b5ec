"""What the command line's numeric flags accept, and where outputs go.

The command line has no numeric flag: a removed one is a usage error
(exit 1), whatever its value. ``eval`` takes its settings from a run
config, whose bad values are refused before its dataset manifest is read.
An output path that cannot be written is a usage error that names it; the
command then writes none of its outputs and leaves no temp file. The file
imports neither numpy nor hypothesis, so it runs where they are missing:
no case here builds a text-CNN corpus.
"""

import pytest
from helpers import write_run_config

import annealtune.cli as cli

SETS = [
    "--set", "kernel_count_w3=32",
    "--set", "kernel_count_w4=32",
    "--set", "kernel_count_w5=32",
    "--set", "conv_dropout=0.1",
    "--set", "fc_units=16",
    "--set", "fc_dropout=0.1",
    "--set", "activation=relu",
    "--set", "learning_rate=0.001",
    "--set", "batch_size=64",
]

#: a restriction of 8 configurations, for a synthetic ``tune`` in milliseconds
TUNE_SPACE = {
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
ORACLE_SPACE = {"fc_units": [16, 32], **{
    name: values[:1] for name, values in TUNE_SPACE.items() if name != "fc_units"
}}

BIG = str(10**400)
VALUES = ["x", "1.5", "-1", "0", "nan", "inf", BIG]


def base_argv(command: str, tmp_path) -> list[str]:
    """A working command line for ``command`` that writes into ``tmp_path``."""
    if command == "plan":
        return ["plan"]
    config = write_run_config(
        tmp_path / "rc.json", iteration_budget=30, probe_count=4,
        space=TUNE_SPACE if command == "tune" else ORACLE_SPACE,
    )
    if command == "tune":
        return ["tune", "--config", config, "--output-dir", str(tmp_path / "out")]
    return ["oracle", "--config", config, "--output", str(tmp_path / "front.txt")]


#: flags the command line no longer has, which every value leaves unrecognized
REMOVED_FLAGS = [
    ("plan", "--t-init"),
    ("plan", "--t-final"),
    ("plan", "--budget"),
    ("plan", "--cooling-rates"),
    ("tune", "--top-k"),
    ("oracle", "--top-k"),
]


@pytest.mark.parametrize("text", VALUES, ids=["x", "1.5", "-1", "0", "nan", "inf", "big"])
@pytest.mark.parametrize(
    "command,flag", REMOVED_FLAGS, ids=[" ".join(k) for k in REMOVED_FLAGS]
)
def test_every_numeric_flag_takes_every_value(tmp_path, capsys, command, flag, text):
    assert cli.main([*base_argv(command, tmp_path), flag, text]) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: unrecognized arguments: {flag} {text}\n", err


@pytest.mark.parametrize(
    "key,value", [("ratio_init", 1.5), ("max_epochs", 0), ("probe_count", 1)],
    ids=["ratio_init", "max_epochs", "probe_count"],
)
def test_bad_setting_is_refused_before_the_manifest_is_read(tmp_path, capsys, key, value):
    config = write_run_config(
        tmp_path / "rc.json", objective_kind="textcnn",
        dataset_path=str(tmp_path / "missing.json"), **{key: value},
    )
    assert cli.main(["eval", "--config", config, *SETS]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: bad run config: {key} ")


def temp_files(directory) -> list:
    return [p.name for p in directory.iterdir() if p.name.startswith(".tmp-")]


def test_output_dir_that_is_a_file_is_usage_error(tmp_path, capsys):
    argv = base_argv("tune", tmp_path)
    blocker = tmp_path / "out"
    blocker.write_text("not a directory")
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot write {blocker}"), err
    assert blocker.read_text() == "not a directory"
    assert temp_files(tmp_path) == []


def test_output_that_is_a_directory_is_usage_error(tmp_path, capsys):
    argv = base_argv("oracle", tmp_path)
    (tmp_path / "front.txt").mkdir()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot write {tmp_path / 'front.txt'}"), err
    assert temp_files(tmp_path) == []


def snapshot(directory) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


def test_tune_writes_no_output_when_one_cannot_be_written(tmp_path, capsys):
    argv = base_argv("tune", tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "archive.txt").write_text("an earlier run's archive")
    (out / "trace.jsonl").mkdir()
    before = snapshot(out)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: cannot write {out / 'trace.jsonl'}: Is a directory\n"
    assert snapshot(out) == before
    assert temp_files(out) == []


def test_oracle_writes_no_output_when_one_cannot_be_written(tmp_path, capsys):
    argv = base_argv("oracle", tmp_path)
    (tmp_path / "front.txt").write_text("an earlier front")
    (tmp_path / "front.json").mkdir()
    before = snapshot(tmp_path)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: cannot write {tmp_path / 'front.json'}: Is a directory\n"
    assert snapshot(tmp_path) == before
    assert temp_files(tmp_path) == []
