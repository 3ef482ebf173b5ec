"""How ``tune`` and ``oracle`` write their output files.

``tune`` streams each step's trace line to disk as the step ends, so its
memory does not grow with the iteration budget. Both commands refuse an
output they cannot write before the first evaluation, give their files the
mode a new file gets under the umask, and write all their files or none,
also when the run is interrupted. The file imports no numpy, so it runs
where numpy is missing.
"""

import json
import os
import stat
import tracemalloc

import pytest
from test_flag_rules import base_argv, snapshot, temp_files
from test_input_errors import RUN_CONFIG

import annealtune.cli as cli
from annealtune.evaluator import SyntheticEvaluator

RUN_OUTPUTS = ("archive.txt", "archive.json", "trace.jsonl", "calibration.json")


def outputs(command: str, tmp_path) -> list:
    if command == "tune":
        return [tmp_path / "out" / name for name in RUN_OUTPUTS]
    return [tmp_path / "front.txt", tmp_path / "front.json"]


def modes(command: str, tmp_path) -> list[int]:
    return [stat.S_IMODE(p.stat().st_mode) for p in outputs(command, tmp_path)]


@pytest.mark.parametrize("command", ["tune", "oracle"])
def test_outputs_get_the_umasks_mode(tmp_path, command):
    argv = base_argv(command, tmp_path)
    old = os.umask(0o027)
    try:
        assert cli.main(argv) == 0
        assert modes(command, tmp_path) == [0o640] * len(outputs(command, tmp_path))
        os.umask(0o022)  # a rerun's files replace the earlier ones, mode included
        assert cli.main(argv) == 0
        assert modes(command, tmp_path) == [0o644] * len(outputs(command, tmp_path))
    finally:
        os.umask(old)


def test_failed_write_removes_its_temp_file(tmp_path):
    # a lone surrogate has no UTF-8 encoding, so writing the temp fails
    with pytest.raises(UnicodeEncodeError):
        cli._atomic_write(str(tmp_path / "archive.txt"), "\ud800")
    assert list(tmp_path.iterdir()) == []


def must_not_evaluate(self, config):
    pytest.fail("evaluated before the outputs were judged writable")


#: each unwritable tune output -> how to make it so in the output directory
UNWRITABLE = {
    "output-dir-is-a-file": lambda out: out.write_text("not a directory"),
    "trace-is-a-directory": lambda out: (out / "trace.jsonl").mkdir(parents=True),
}


@pytest.mark.parametrize("case", list(UNWRITABLE))
def test_unwritable_output_is_refused_before_any_evaluation(
    tmp_path, capsys, monkeypatch, case
):
    monkeypatch.setattr(SyntheticEvaluator, "evaluate", must_not_evaluate)
    argv = base_argv("tune", tmp_path)
    out = tmp_path / "out"
    UNWRITABLE[case](out)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"usage error: cannot write {out}")
    assert temp_files(tmp_path) == []
    assert not out.is_dir() or temp_files(out) == []


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "earlier-run"])
def test_interrupted_tune_leaves_no_new_file(tmp_path, monkeypatch, existing):
    argv = base_argv("tune", tmp_path)
    out = tmp_path / "new" / "out"
    argv[argv.index("--output-dir") + 1] = str(out)
    if existing:
        out.mkdir(parents=True)
        (out / "archive.txt").write_text("an earlier run's archive")
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    contents = snapshot(out) if existing else {}
    evaluate, calls = SyntheticEvaluator.evaluate, []

    def interrupted(self, config):
        calls.append(config)
        if len(calls) == 20:  # past calibration, with trace lines written
            raise KeyboardInterrupt
        return evaluate(self, config)

    monkeypatch.setattr(SyntheticEvaluator, "evaluate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(argv)
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
    if existing:
        assert snapshot(out) == contents


def test_oracle_output_named_like_its_json_front_is_usage_error(tmp_path, capsys):
    argv = base_argv("oracle", tmp_path)
    argv[argv.index("--output") + 1] = str(tmp_path / "front.json")
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error: --output ends in .json")
    assert list(tmp_path.iterdir()) == []


def test_trace_memory_does_not_grow_with_the_budget(tmp_path):
    # cooling_rate 0.1 makes one outer step hold the whole budget, so the run
    # takes all 5,000 steps; keeping them costs about 18 MiB
    config = tmp_path / "rc.json"
    config.write_text(json.dumps({**RUN_CONFIG, "iteration_budget": 5000,
                                  "cooling_rate": 0.1}))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert cli.main(["tune", "--config", str(config), "--output-dir", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(out / "trace.jsonl", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 1 + 5000
    assert peak < 4 * 2**20, peak
