"""What the command line's numeric flags accept, and where outputs go.

A flag that sets a run setting takes ``RunConfig``'s rule for that key
(``search_space.checked_setting``); every other numeric flag takes the same
number rule with its own floor. A value the rule refuses is a usage error
(exit 1) that names the flag, raised before any file is read; a value the
rule takes but a later check refuses is still a usage error. ``eval`` takes
its settings from a run config, whose bad values are refused before its
dataset manifest is read. An output path that cannot be written is a usage
error that names it; the command then writes none of its outputs and leaves
no temp file. The file imports neither numpy nor hypothesis, so it runs
where they are missing: no case here builds a text-CNN corpus.
"""

import math

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


#: (command, flag) -> (int or float, floor, ceiling, whether it lies in (0, 1)),
#: written out here rather than read from the package
FLAGS = {
    ("plan", "--t-init"): (float, None, None, False),
    ("plan", "--t-final"): (float, None, None, False),
    ("plan", "--budget"): (int, 1, 2**53, False),
    ("plan", "--cooling-rates"): (float, None, None, True),
    ("tune", "--top-k"): (int, 0, None, False),
    ("oracle", "--top-k"): (int, 0, None, False),
}


def rule_refuses(convert, floor, ceiling, unit_range, text: str) -> bool:
    # an int flag takes digits as int() reads them; other text is judged as
    # the float it reads, which must be finite, and integral for an int flag
    try:
        number = int(text) if convert is int and text.lstrip("-").isdigit() else float(text)
    except ValueError:
        return True
    if isinstance(number, float) and not math.isfinite(number):
        return True
    return (
        (convert is int and number != int(number))
        or (floor is not None and number < floor)
        or (ceiling is not None and number > ceiling)
        or (unit_range and not 0.0 < number < 1.0)
    )


@pytest.mark.parametrize("text", VALUES, ids=["x", "1.5", "-1", "0", "nan", "inf", "big"])
@pytest.mark.parametrize("command,flag", list(FLAGS), ids=[" ".join(k) for k in FLAGS])
def test_every_numeric_flag_takes_every_value(tmp_path, capsys, command, flag, text):
    code = cli.main([*base_argv(command, tmp_path), flag, text])
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("usage error: "), err
    if rule_refuses(*FLAGS[command, flag], text):
        assert code == 1
        assert err.startswith(f"usage error: argument {flag}: "), err


@pytest.mark.parametrize(
    "key,value", [("ratio_init", 1.5), ("max_epochs", 0), ("embedding_dim", 1001)],
    ids=["ratio_init", "max_epochs", "embedding_dim"],
)
def test_bad_setting_is_refused_before_the_manifest_is_read(tmp_path, capsys, key, value):
    config = write_run_config(
        tmp_path / "rc.json", objective_kind="textcnn",
        dataset_path=str(tmp_path / "missing.json"), **{key: value},
    )
    assert cli.main(["eval", "--config", config, *SETS]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: bad run config: {key} ")


def test_flag_takes_the_run_config_message(capsys):
    assert cli.main(["plan", "--budget", BIG]) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: argument --budget: iteration_budget is above {2**53}\n"


@pytest.mark.parametrize("text", ["inf", "nan", "-inf"])
def test_non_finite_temperature_is_refused(capsys, text):
    # "--t-init -inf" would read -inf as an option, so the value is joined on
    assert cli.main(["plan", f"--t-init={text}"]) == 1
    assert capsys.readouterr().err == "usage error: argument --t-init: is not finite\n"


def test_fractional_budget_is_refused_and_integral_text_taken(capsys):
    assert cli.main(["plan", "--budget", "1.5"]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: argument --budget: iteration_budget is not an integer\n"
    assert cli.main(["plan", "--budget", "10.0"]) == 0
    taken = capsys.readouterr().out
    assert cli.main(["plan", "--budget", "10"]) == 0
    assert taken == capsys.readouterr().out


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
