"""How ``tune`` and ``oracle`` write their output files.

``tune`` streams each step's trace line to disk as the step ends, so its
memory does not grow with the iteration budget. Both commands refuse an
output they cannot write before the first evaluation, give their files the
mode a new file gets under the umask, and write all their files or none,
also when the run is interrupted; a text-CNN ``oracle`` rerun against the
same ``--cache`` then trains only what the interrupted run did not. The
file imports no numpy, so it runs where numpy is missing; the text-CNN case
needs it and skips itself there.
"""

import errno
import json
import os
import stat
import tracemalloc

import pytest
from helpers import (
    SPHERE_RUN,
    base_argv,
    needs_numpy,
    record_evaluators,
    snapshot,
    temp_files,
    write_text_cnn_run_config,
)

import annealtune.cli as cli
from annealtune.evaluator import SyntheticEvaluator, TextCnnEvaluator

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


@pytest.mark.parametrize("command,existing", [
    ("tune", False),
    ("tune", True),
    pytest.param("oracle", False, marks=needs_numpy),
], ids=["new-dir", "earlier-run", "oracle-text-cnn"])
def test_interrupted_tune_leaves_no_new_file(tmp_path, monkeypatch, command, existing):
    # oracle runs the text-CNN golden run config against an evaluation cache,
    # which keeps what was trained before the interrupt for the rerun
    out = tmp_path / "new" / "out"
    if command == "tune":
        argv = base_argv("tune", tmp_path)
        argv[argv.index("--output-dir") + 1] = str(out)
        evaluator_class, interrupt_at = SyntheticEvaluator, 20
    else:
        cache = tmp_path / "cache.jsonl"
        oracle = ["oracle", "--config", write_text_cnn_run_config(tmp_path, 28)]
        argv = [*oracle, "--cache", str(cache), "--output", str(out / "front.txt")]
        evaluator_class, interrupt_at = TextCnnEvaluator, 10
    if existing:
        out.mkdir(parents=True)
        (out / "archive.txt").write_text("an earlier run's archive")
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    contents = snapshot(out) if existing else {}
    evaluate, calls = evaluator_class.evaluate, []

    def interrupted(self, config):
        calls.append(config)
        if len(calls) == interrupt_at:  # tune: past calibration, with trace lines
            raise KeyboardInterrupt
        return evaluate(self, config)

    monkeypatch.setattr(evaluator_class, "evaluate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(argv)
    after = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    if existing:
        assert snapshot(out) == contents
    if command == "tune":
        assert after == before
        return
    # the cache alone is new, holding the trainings before the interrupt
    assert after == sorted([*before, cache.relative_to(tmp_path)])
    assert len(cache.read_text().splitlines()) == interrupt_at - 1
    monkeypatch.setattr(evaluator_class, "evaluate", evaluate)
    built = record_evaluators(monkeypatch)
    assert cli.main(argv) == 0
    cold = tmp_path / "cold"
    assert cli.main([*oracle, "--output", str(cold / "front.txt")]) == 0
    assert [e.trainings for e in built] == [64 - (interrupt_at - 1), 64]
    assert snapshot(out) == snapshot(cold)


@pytest.mark.parametrize("command,output,named", [
    ("oracle", "blocker/front.txt", "blocker/front.txt"),
    ("tune", "blocker", "blocker/archive.txt"),
    ("tune", "blocker/out", "blocker/out/archive.txt"),
], ids=["oracle-output", "tune-output-dir", "tune-output-dir-below"])
def test_output_below_a_regular_file_is_not_a_directory(
    tmp_path, capsys, command, output, named
):
    argv = base_argv(command, tmp_path)
    argv[argv.index("--output" if command == "oracle" else "--output-dir") + 1] = str(
        tmp_path / output
    )
    (tmp_path / "blocker").write_text("a file")
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: cannot write {tmp_path / named}: Not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "rc.json"]


@needs_numpy
@pytest.mark.parametrize("command", ["tune", "oracle"])
def test_refused_output_leaves_no_new_cache(tmp_path, capsys, command):
    # the objective, and so the cache file, is built only once the outputs
    # are judged writable
    cache, blocker, directory = (tmp_path / n for n in ("new.jsonl", "blocker", "dir"))
    blocker.write_text("a file")
    directory.mkdir()
    output = {"tune": ["--output-dir", str(blocker)],
              "oracle": ["--output", str(directory)]}[command]
    argv = [command, "--config", write_text_cnn_run_config(tmp_path, 28),
            "--cache", str(cache), *output]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error: cannot write ")
    assert not cache.exists()


def test_unwritable_trace_temp_leaves_no_new_cache(tmp_path, capsys, monkeypatch):
    # the trace temp is made before the objective, and so the cache file: a
    # user other than root meets this error in a read-only output directory
    atomic_write = cli._atomic_write

    def refusing_the_trace(path, content):
        if os.path.basename(path) == "trace.jsonl":
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        return atomic_write(path, content)

    monkeypatch.setattr(cli, "_atomic_write", refusing_the_trace)
    cache, out = tmp_path / "new.jsonl", tmp_path / "out"
    argv = ["tune", "--config", write_text_cnn_run_config(tmp_path, 28),
            "--cache", str(cache), "--output-dir", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: cannot write {out / 'trace.jsonl'}: Permission denied\n"
    assert not cache.exists()
    assert not out.exists()


def test_oracle_output_named_like_its_json_front_is_usage_error(tmp_path, capsys):
    argv = base_argv("oracle", tmp_path)
    argv[argv.index("--output") + 1] = str(tmp_path / "front.json")
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error: --output ends in .json")
    assert [p.name for p in tmp_path.iterdir()] == ["rc.json"]


#: an oracle --output that cannot be written -> the usage error it gives
REFUSED_OUTPUTS = {
    "name-too-long": ("x" * 300, f"cannot write {'x' * 300}: File name too long"),
    # the text front's name fits in 255 bytes, the JSON front's does not
    "json-name-too-long": (
        "a" * 252, f"cannot write {'a' * 252}.json: File name too long"
    ),
    "empty": ("", "--output '' has no file name"),
    "ends-in-a-separator": ("sub/", "--output 'sub/' has no file name"),
}


@pytest.mark.parametrize("case", list(REFUSED_OUTPUTS))
def test_refused_oracle_output_leaves_no_temp_file_or_directory(
    tmp_path, capsys, monkeypatch, case
):
    # run from a directory below tmp_path, beside which "" would put a temp
    output, message = REFUSED_OUTPUTS[case]
    argv = base_argv("oracle", tmp_path)
    argv[argv.index("--output") + 1] = output
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_longest_output_names_are_written(tmp_path, capsys, monkeypatch):
    # 250 bytes and the 255 of its JSON front fit a 255-byte name limit
    argv = base_argv("oracle", tmp_path)
    argv[argv.index("--output") + 1] = "a" * 250
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert os.path.isfile("a" * 250) and os.path.isfile("a" * 250 + ".json")


def test_trace_memory_does_not_grow_with_the_budget(tmp_path):
    # cooling_rate 0.1 makes one outer step hold the whole budget, so the run
    # takes all 5,000 steps; keeping them costs about 18 MiB
    config = tmp_path / "rc.json"
    config.write_text(json.dumps({**SPHERE_RUN, "iteration_budget": 5000,
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
