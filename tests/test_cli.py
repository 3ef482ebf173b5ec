import ctypes
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from helpers import (
    DEEP_JSON,
    TOP1_SETS,
    needs_numpy,
    open_refusing_reads,
    trace_line,
    write_run_config,
)

import annealtune.cli as cli
import annealtune.evaluator as evaluator
from annealtune.annealer import CalibrationError, StepRecord
from annealtune.pareto import ArchiveAction, ObjectiveVector
from annealtune.search_space import Configuration, brief


def eval_argv(tmp_path, *args, **overrides) -> list[str]:
    """``eval`` with ``args`` on write_run_config's run config, over the
    default space, with ``overrides``."""
    config = write_run_config(tmp_path / "rc.json", space=None, **overrides)
    return ["eval", "--config", config, *args]


def eval_on(tmp_path, dataset, *args, **overrides) -> list[str]:
    """``eval`` of TOP1_SETS with ``args``, scored by the text CNN on the
    dataset manifest at ``dataset``."""
    return eval_argv(tmp_path, *TOP1_SETS, *args, objective_kind="textcnn",
                     dataset_path=str(dataset), **overrides)


class TestPlan:
    def test_default_table_rows(self, capsys):
        assert cli.main(["plan"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [line.split() for line in lines[1:]]
        got = [(r[3], r[4], r[5]) for r in rows]
        assert got == [
            ("0.99", "156.2", "1.6"),
            ("0.95", "30.6", "8.1"),
            ("0.9", "14.9", "16.7"),
            ("0.85", "9.6", "25.8"),
            ("0.8", "7.0", "35.5"),
        ]

    def test_unknown_flag_is_usage_error(self):
        assert cli.main(["plan", "--no-such-flag"]) == 1


class TestTune:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        config = write_run_config(tmp_path / "rc.json")
        out = tmp_path / "out"
        assert cli.main(["tune", "--config", config, "--output-dir", str(out)]) == 0
        for name in ("archive.txt", "archive.json", "trace.jsonl",
                     "calibration.json"):
            assert (out / name).exists(), name
        payload = json.loads((out / "archive.json").read_text())
        assert payload["format_version"] == 1
        assert payload["entries"]
        first_line = (out / "trace.jsonl").read_text().splitlines()[0]
        assert json.loads(first_line)["format_version"] == 1
        assert (out / "archive.txt").read_text().startswith("# annealtune")
        assert not [p for p in os.listdir(out) if p.startswith(".tmp")]

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        config = write_run_config(tmp_path / "rc.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["tune", "--config", config, "--output-dir", str(out1)]) == 0
        assert cli.main(["tune", "--config", config, "--output-dir", str(out2)]) == 0
        for name in ("trace.jsonl", "archive.json", "archive.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_cooling_below_final_temperature_stops_on_temperature(
        self, tmp_path, capsys
    ):
        # test_annealer's run of the same name, as a run config
        config = write_run_config(
            tmp_path / "rc.json", seed_number=1, iteration_budget=100,
            cooling_rate=0.5923859632105352, space=None,
        )
        out = str(tmp_path / "out")
        assert cli.main(["tune", "--config", config, "--output-dir", out]) == 0
        assert capsys.readouterr().out.startswith(
            "stop reason: temperature; evaluations: 120\n"
        )

    def test_top_k_block_uses_display_labels(self, tmp_path):
        config = write_run_config(tmp_path / "rc.json")
        out = tmp_path / "out"
        cli.main(["tune", "--config", config, "--output-dir", str(out)])
        text = (out / "archive.txt").read_text()
        assert "filter num of win 3" in text
        assert "activation function" in text
        assert "Learning Rate" in text
        assert "Batch size" in text

    def test_unknown_config_key_usage_error(self, tmp_path):
        path = tmp_path / "rc.json"
        write_run_config(path)
        raw = json.loads(path.read_text())
        raw["coolingrate"] = 0.9
        path.write_text(json.dumps(raw))
        assert cli.main(
            ["tune", "--config", str(path), "--output-dir", str(tmp_path / "o")]
        ) == 1

    def test_missing_dataset_manifest_is_data_error(self, tmp_path):
        config = write_run_config(
            tmp_path / "rc.json",
            objective_kind="textcnn",
            dataset_path=str(tmp_path / "absent.json"),
            iteration_budget=5,
        )
        out = tmp_path / "out"
        assert cli.main(["tune", "--config", config, "--output-dir", str(out)]) == 2
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize(
        "manifest,missing",
        [
            ({"kind": "mr", "pos": "x"}, "neg"),
            ({"kind": "cr"}, "path"),
            ({"kind": "trec", "train": "x"}, "test"),
        ],
        ids=["mr", "cr", "trec"],
    )
    def test_manifest_missing_key_is_data_error(
        self, tmp_path, capsys, manifest, missing
    ):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(manifest))
        config = write_run_config(
            tmp_path / "rc.json", objective_kind="textcnn", dataset_path=str(dataset)
        )
        out = tmp_path / "out"
        assert cli.main(["tune", "--config", config, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{manifest['kind']} dataset manifest lacks key {missing!r}" in err

    def test_unknown_synthetic_objective_usage_error(self, tmp_path):
        config = write_run_config(
            tmp_path / "rc.json", objective_kind="synthetic:rosenbrock"
        )
        out = tmp_path / "out"
        assert cli.main(["tune", "--config", config, "--output-dir", str(out)]) == 1

    def write_textcnn_config(self, tmp_path):
        return write_run_config(
            tmp_path / "rc.json", iteration_budget=6, objective_kind="textcnn",
            probe_count=2, max_epochs=3, space={
                "kernel_count_w3": [32], "kernel_count_w4": [32],
                "kernel_count_w5": [32], "conv_dropout": ["0.1"],
                "fc_units": [16], "fc_dropout": ["0.1"],
                "activation": ["relu", "tanh"],
                "learning_rate": ["0.002", "0.004"], "batch_size": [64],
            },
        )

    @needs_numpy
    def test_evaluation_cache_resumes_without_retraining(self, tmp_path):
        config_path = self.write_textcnn_config(tmp_path)
        cache = tmp_path / "cache.jsonl"
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["tune", "--config", str(config_path), "--cache",
                         str(cache), "--output-dir", str(out1)]) == 0
        cached_lines = len(cache.read_text().splitlines())
        assert cached_lines > 0
        assert cli.main(["tune", "--config", str(config_path), "--cache",
                         str(cache), "--output-dir", str(out2)]) == 0
        # the second run re-used every evaluation: no new cache entries
        assert len(cache.read_text().splitlines()) == cached_lines
        assert (out1 / "trace.jsonl").read_bytes() == (
            out2 / "trace.jsonl"
        ).read_bytes()

    @needs_numpy
    def test_cache_torn_by_an_interruption_resumes(self, tmp_path):
        config_path = self.write_textcnn_config(tmp_path)
        cache = tmp_path / "cache.jsonl"
        out1, out2 = tmp_path / "a", tmp_path / "b"
        tune = ["tune", "--config", str(config_path), "--cache", str(cache)]
        assert cli.main([*tune, "--output-dir", str(out1)]) == 0
        whole = cache.read_bytes()
        cache.write_bytes(whole[: len(whole) - 10])  # cut the last record
        assert cli.main([*tune, "--output-dir", str(out2)]) == 0
        assert (out1 / "trace.jsonl").read_bytes() == (
            out2 / "trace.jsonl"
        ).read_bytes()
        # the retrained record replaced the torn one
        assert cache.read_bytes() == whole

    @needs_numpy
    def test_malformed_cache_line_is_data_error(self, tmp_path, capsys):
        config_path = self.write_textcnn_config(tmp_path)
        cache = tmp_path / "cache.jsonl"
        # no objectives; a key that is not a string; JSON nested too deeply
        for line in ('{"key": "a"}', '{"key": [1], "error_rate": 0.5, "flops": 1}',
                     DEEP_JSON):
            cache.write_text(line + '\n{"key": "b", "error_rate": 0.5, "flops": 1}\n')
            code = cli.main(["tune", "--config", str(config_path), "--cache",
                             str(cache), "--output-dir", str(tmp_path / "out")])
            assert code == 2
            err = capsys.readouterr().err
            assert f"{cache}:1: malformed evaluation cache line" in err

    @needs_numpy
    @pytest.mark.parametrize(
        "cache,reason",
        [("no-such-dir/cache.jsonl", "No such file"), (".", "Is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_unusable_cache_path_is_data_error(self, tmp_path, capsys, cache, reason):
        config_path = self.write_textcnn_config(tmp_path)
        out = tmp_path / "out"
        outputs = {"tune": ["--output-dir", str(out)],
                   "oracle": ["--output", str(out / "front.txt")]}
        for command, output in outputs.items():
            code = cli.main([command, "--config", str(config_path), "--cache",
                             str(tmp_path / cache), *output])
            assert code == 2, command
            err = capsys.readouterr().err
            assert "evaluation cache" in err and reason in err
            assert not out.exists()

    @needs_numpy
    def test_cache_path_that_holds_no_cache_is_left_untouched(self, tmp_path, capsys):
        config_path = self.write_textcnn_config(tmp_path)  # one line, no newline
        notes = tmp_path / "notes.txt"
        notes.write_text("my only line")
        out = tmp_path / "out"
        for cache in (tmp_path / "rc.json", notes):
            before = cache.read_bytes()
            code = cli.main(["tune", "--config", config_path, "--cache", str(cache),
                             "--output-dir", str(out)])
            assert code == 2, cache
            err = capsys.readouterr().err
            assert err == f"data error: {cache}:1: malformed evaluation cache line\n"
            assert cache.read_bytes() == before
            assert not out.exists()

    @pytest.mark.parametrize("command", ["tune", "oracle"])
    def test_cache_that_is_an_output_is_usage_error(
        self, tmp_path, capsys, monkeypatch, command
    ):
        config_path = self.write_textcnn_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        if command == "tune":
            output = ["--output-dir", str(out)]
            names = ["archive.txt", "archive.json", "trace.jsonl", "calibration.json"]
        else:
            output = ["--output", str(out / "front.txt")]
            names = ["front.txt", "front.json"]
        # each output, also named relative to the working directory and
        # through a link to the output directory
        (tmp_path / "link").symlink_to(out, target_is_directory=True)
        for cache in [str(out / n) for n in names] + [f"out/../out/{names[-1]}",
                                                      f"link/{names[0]}"]:
            code = cli.main([command, "--config", config_path, "--cache", cache,
                             *output])
            assert code == 1, cache
            assert capsys.readouterr().err == (
                f"usage error: --cache {brief(cache)} is also an output of this command\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize("command", ["tune", "oracle"])
    def test_synthetic_objective_never_opens_the_cache(self, tmp_path, command):
        config = write_run_config(tmp_path / "rc.json")
        output = {"tune": ["--output-dir", str(tmp_path / "out")],
                  "oracle": ["--output", str(tmp_path / "front.txt")]}[command]
        cache = tmp_path / "missing-dir" / "cache.jsonl"
        argv = [command, "--config", config, "--cache", str(cache), *output]
        assert cli.main(argv) == 0
        assert not cache.parent.exists()

    @needs_numpy
    def test_unreadable_cache_is_data_error(self, tmp_path, capsys, monkeypatch):
        config_path = self.write_textcnn_config(tmp_path)
        cache, out = tmp_path / "cache.jsonl", tmp_path / "out"
        cache.write_text("")
        monkeypatch.setattr(evaluator, "open", open_refusing_reads, raising=False)
        code = cli.main(["tune", "--config", str(config_path), "--cache",
                         str(cache), "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"data error: evaluation cache {cache}: Permission denied\n"
        assert not out.exists()

    @needs_numpy
    def test_failed_cache_append_is_data_error(self, tmp_path, capsys, monkeypatch):
        config_path = self.write_textcnn_config(tmp_path)
        cache, out = tmp_path / "cache.jsonl", tmp_path / "out"
        build_evaluator = cli.build_evaluator

        def then_cache_becomes_directory(config, cache_path):
            evaluator = build_evaluator(config, cache_path)
            cache.unlink()
            cache.mkdir()
            return evaluator

        monkeypatch.setattr(cli, "build_evaluator", then_cache_becomes_directory)
        code = cli.main(["tune", "--config", str(config_path), "--cache",
                         str(cache), "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"data error: evaluation cache {cache}: Is a directory\n"
        assert not out.exists()

    @needs_numpy
    def test_cached_flops_the_configuration_cannot_have_is_data_error(
        self, tmp_path, capsys
    ):
        config_path = self.write_textcnn_config(tmp_path)
        cache = tmp_path / "cache.jsonl"
        tune = ["tune", "--config", str(config_path), "--cache", str(cache)]
        assert cli.main([*tune, "--output-dir", str(tmp_path / "a")]) == 0
        first, *rest = cache.read_text().splitlines(keepends=True)
        record = json.loads(first)
        record["flops"] = 10**12
        cache.write_text(json.dumps(record) + "\n" + "".join(rest))
        capsys.readouterr()
        assert cli.main([*tune, "--output-dir", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: evaluation cache {cache}: "), err
        assert "1000000000000 flops" in err
        assert not (tmp_path / "b").exists()

    @needs_numpy
    def test_empty_validation_split_is_data_error(self, tmp_path, capsys):
        # 1 training sentence per class: ratio_init 0.9 puts it in train
        train, test = tmp_path / "train.label", tmp_path / "test.label"
        train.write_text("HUM:x who is it ?\nLOC:x where is it ?\n")
        test.write_text("HUM:x who was it ?\n")
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(
            {"kind": "trec", "train": str(train), "test": str(test)}
        ))
        config = write_run_config(
            tmp_path / "rc.json", objective_kind="textcnn", dataset_path=str(dataset)
        )
        out = tmp_path / "out"
        assert cli.main(["tune", "--config", config, "--output-dir", str(out)]) == 2
        assert "validation split is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_top_k_is_an_unrecognized_argument(self, tmp_path, capsys):
        config = write_run_config(tmp_path / "rc.json")
        out = tmp_path / "out"
        code = cli.main(["tune", "--config", config, "--output-dir", str(out),
                         "--top-k", "5"])
        assert code == 1
        assert capsys.readouterr().err == (
            "usage error: unrecognized arguments: --top-k 5\n"
        )
        assert not out.exists()

    def test_calibration_failure_maps_to_exit_3(self, tmp_path, monkeypatch):
        def boom(config, evaluator, on_step):
            raise CalibrationError("no deteriorating step")

        monkeypatch.setattr(cli, "run", boom)
        config = write_run_config(tmp_path / "rc.json")
        out = tmp_path / "out"
        assert cli.main(["tune", "--config", config, "--output-dir", str(out)]) == 3
        assert not out.exists() or not list(out.iterdir())


class TestTraceJsonl:
    def test_every_line_is_what_json_dumps_writes(self):
        edge = Configuration((("id", 'quote " and \u00e9'), ("n", 10**18)))
        plain = Configuration((("id", "x"), ("n", 3)))
        records = [
            StepRecord(1, 5e-324, plain, ObjectiveVector(5e-324, 0), edge,
                       ObjectiveVector(0.1 + 0.2, 10**18), -0.0, 1.0, True,
                       ArchiveAction.ADDED),
            StepRecord(2, 1.0, edge, ObjectiveVector(1.0, 10**18), plain,
                       ObjectiveVector(0.0, 7), 0.1 + 0.2, 5e-324, False,
                       ArchiveAction.REJECTED_DOMINATED),
            # both zeros on one line
            StepRecord(3, 0.1 + 0.2, plain, ObjectiveVector(0.0, 7), plain,
                       ObjectiveVector(5e-324, 7), -0.0, 1.0, False,
                       ArchiveAction.REJECTED_DOMINATED),
        ]
        assert json.loads(cli.TRACE_HEADER) == {"format_version": 1, "kind": "trace"}
        assert cli.TRACE_HEADER.endswith("}\n")
        for r in records:
            line = cli.trace_jsonl(r)
            assert json.dumps(json.loads(line)) + "\n" == line
            # text equality: unlike ==, it tells 0.0 from -0.0
            assert line == trace_line(r) + "\n"

    def test_run_lines_reuse_only_what_a_lone_record_would_write(
        self, tmp_path, monkeypatch
    ):
        # a run hands trace_jsonl the texts of the previous line; every line
        # must still be the one json.dumps writes, and the one trace_jsonl
        # writes for the record alone, across accepted and rejected steps
        # and the walk's jumps back to an archived base
        records, run = [], cli.run

        def recording_run(config, evaluator, on_step):
            return run(config, evaluator, lambda r: (records.append(r), on_step(r)))

        monkeypatch.setattr(cli, "run", recording_run)
        a = write_run_config(tmp_path / "a.json", seed_number=7)
        b = write_run_config(tmp_path / "b.json")
        assert cli.main(["tune", "--config", a, "--output-dir", str(tmp_path / "a")]) == 0
        records.clear()
        assert cli.main(["tune", "--config", b, "--output-dir", str(tmp_path / "b")]) == 0
        lines = (tmp_path / "b" / "trace.jsonl").read_text().splitlines(keepends=True)
        assert lines[0] == cli.TRACE_HEADER
        assert lines[1:] == [trace_line(r) + "\n" for r in records]
        assert lines[1:] == [cli.trace_jsonl(r) for r in records]
        assert any(r.accepted for r in records[1:])
        assert not all(r.accepted for r in records[1:])
        # a jump: the current is neither the last step's current nor its candidate
        assert any(
            now.current_config is not last.current_config
            and now.current_config is not last.candidate_config
            for last, now in zip(records, records[1:])
        )

        # B after A in one process writes what B alone writes
        src = os.path.dirname(os.path.dirname(cli.__file__))
        subprocess.run(
            [sys.executable, "-m", "annealtune.cli", "tune", "--config", b,
             "--output-dir", str(tmp_path / "alone")],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            )},
            capture_output=True, timeout=120, check=True,
        )
        for name in ("trace.jsonl", "archive.json", "archive.txt", "calibration.json"):
            alone = (tmp_path / "alone" / name).read_bytes()
            assert (tmp_path / "b" / name).read_bytes() == alone, name


#: TREC train lines, test lines and run-config overrides -> exit code and a
#: line of its stdout (exit 0) or stderr; {test} is the test file's path
TREC_CASES = {
    # class B's one line has no token, so B is no output class: fc is
    # two classes' 25344 flops, not three classes' 25472
    "tokenless-class-gets-no-id": (
        ["A:x hello there", "B:x \x01\x02", "A:x hi there", "C:x world again",
         "C:x big world"],
        ["A:x hello"], {"ratio_init": 0.5}, 0, "fc=25344 ",
    ),
    "class-absent-from-training": (
        ["A:x hello there", "A:x hi there"], ["A:x hello", "D:x who"], {}, 2,
        "data error: {test}:2: class 'D' absent from training file\n",
    ),
    "class-vanishes-from-train": (
        ["A:x one two", "A:x three four", "A:x five six", "B:x seven eight",
         "B:x nine ten", "B:x eleven twelve", "C:x only one"],
        ["A:x one"], {"ratio_init": 0.4}, 2,
        "data error: stratification failed: class 2 would vanish from train\n",
    ),
}


class TestEval:
    def test_flops_only_instant(self, tmp_path, capsys):
        assert cli.main(eval_argv(tmp_path, *TOP1_SETS, "--flops-only")) == 0
        out = capsys.readouterr().out
        assert "total=541056" in out

    @needs_numpy
    def test_flops_only_breakdown_follows_the_corpus(self, tmp_path, capsys):
        # 2 classes of 6-token sentences; the synthetic network is (10, 50, 6)
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(dataset_files(tmp_path)["trec"]))
        argv = eval_on(tmp_path, dataset, max_epochs=1)
        assert cli.main([*argv, "--flops-only"]) == 0
        flops_only = capsys.readouterr().out.splitlines()
        assert "total=541056" not in flops_only[0]  # not the synthetic shape
        assert cli.main(argv) == 0
        assert flops_only == capsys.readouterr().out.splitlines()[:1]

    def test_flops_only_missing_manifest_is_data_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert cli.main(eval_on(tmp_path, missing, "--flops-only")) == 2
        assert f"data error: dataset manifest not found: {missing}" in (
            capsys.readouterr().err
        )

    def test_flops_only_empty_manifest_path_is_data_error(self, tmp_path, capsys):
        # "" names no file; it does not stand for the bundled synthetic corpus
        assert cli.main(eval_on(tmp_path, "", "--flops-only")) == 2
        assert capsys.readouterr().err == "data error: dataset manifest not found: \n"

    def test_repeated_name_is_usage_error(self, tmp_path, capsys):
        args = TOP1_SETS + ["--set", "kernel_count_w3=32"]
        assert cli.main(eval_argv(tmp_path, *args, "--flops-only")) == 1
        assert capsys.readouterr().err == (
            "usage error: --set assigns 'kernel_count_w3' twice\n"
        )

    def test_missing_domain_usage_error(self, tmp_path, capsys):
        partial = TOP1_SETS[:-2]  # drop batch_size
        assert cli.main(eval_argv(tmp_path, *partial, "--flops-only")) == 1
        assert "batch_size" in capsys.readouterr().err

    def test_bad_value_usage_error(self, tmp_path):
        args = TOP1_SETS + ["--set", "batch_size=65"]
        assert cli.main(eval_argv(tmp_path, *args, "--flops-only")) == 1

    def test_value_outside_the_restriction_is_usage_error(self, tmp_path, capsys):
        # the run config's space, not the default one, takes the values
        config = write_run_config(tmp_path / "rc.json")
        assert cli.main(["eval", "--config", config, *TOP1_SETS]) == 1
        assert capsys.readouterr().err == (
            "usage error: '64' is not a value of domain 'kernel_count_w4'\n"
        )

    def test_calls_share_no_parsed_values(self, tmp_path, capsys):
        assert cli.main(eval_argv(tmp_path, *TOP1_SETS, "--flops-only")) == 0
        # no --set values carried over: every domain is unassigned again
        assert cli.main(eval_argv(tmp_path, "--flops-only")) == 1
        assert "missing assignment" in capsys.readouterr().err
        # no --flops-only carried over: the configuration is scored
        assert cli.main(eval_argv(tmp_path, *TOP1_SETS)) == 0
        assert "error_rate: " in capsys.readouterr().out

    def test_manifest_missing_key_is_data_error(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps({"kind": "mr", "pos": "x"}))
        assert cli.main(eval_on(tmp_path, dataset)) == 2
        assert "mr dataset manifest lacks key 'neg'" in capsys.readouterr().err

    @needs_numpy
    @pytest.mark.parametrize("case", list(TREC_CASES))
    def test_trec_corpus(self, tmp_path, capsys, case):
        train_lines, test_lines, overrides, code, expected = TREC_CASES[case]
        train, test, manifest = (tmp_path / n for n in ("train.txt", "test.txt", "m.json"))
        train.write_text("\n".join(train_lines) + "\n")
        test.write_text("\n".join(test_lines) + "\n")
        manifest.write_text(
            json.dumps({"kind": "trec", "train": str(train), "test": str(test)})
        )
        assert cli.main(eval_on(tmp_path, manifest, "--flops-only", **overrides)) == code
        captured = capsys.readouterr()
        output = captured.err if code else captured.out
        assert expected.replace("{test}", str(test)) in output

    @needs_numpy
    def test_divergence_names_the_configuration(self, tmp_path, capsys, monkeypatch):
        from annealtune import textcnn
        from annealtune.evaluator import DivergenceError

        def diverge(*args, **kwargs):
            raise DivergenceError("non-finite loss at epoch 1")

        monkeypatch.setattr(textcnn, "train", diverge)
        argv = eval_argv(tmp_path, *TOP1_SETS, objective_kind="textcnn", max_epochs=1)
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: non-finite loss at epoch 1 (config {")
        assert "'kernel_count_w3': 100" in err and "'batch_size': 64" in err
        # oracle's first configuration diverges; it writes no front
        config = write_run_config(tmp_path / "rc.json", objective_kind="textcnn",
                                  max_epochs=1)
        out = tmp_path / "front.txt"
        assert cli.main(["oracle", "--config", config, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: non-finite loss at epoch 1 (config {")
        assert "'kernel_count_w3': 256" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rc.json"]

    @needs_numpy
    def test_full_evaluation_on_bundled_synthetic(self, tmp_path, capsys):
        argv = eval_argv(tmp_path, *TOP1_SETS, objective_kind="textcnn", max_epochs=3)
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "error_rate:" in out
        error = float(out.split("error_rate:")[1].splitlines()[0])
        assert 0.0 <= error <= 1.0


class TestUnreadablePaths:
    """Unusable inputs beside test_input_errors' table of JSON input files
    end in a named error, never in a traceback."""

    def test_dataset_file_directory_is_data_error(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps({"kind": "cr", "path": str(tmp_path)}))
        assert cli.main(eval_on(tmp_path, dataset)) == 2
        assert f"data error: dataset file {tmp_path}:" in capsys.readouterr().err


def dataset_files(tmp_path) -> dict[str, dict]:
    """A working manifest of each kind, over small files in ``tmp_path``."""
    pos, neg, labeled = tmp_path / "pos.txt", tmp_path / "neg.txt", tmp_path / "cr.txt"
    train, test = tmp_path / "train.label", tmp_path / "test.label"
    pos.write_text("".join(f"good fine movie {i}\n" for i in range(10)))
    neg.write_text("".join(f"bad dull movie {i}\n" for i in range(10)))
    labeled.write_text("".join(f"{i % 2}\tword{i % 2} other {i}\n" for i in range(20)))
    train.write_text("".join(
        f"{c}:x what is {c.lower()} thing {i} ?\n" for i in range(6) for c in ("HUM", "LOC")
    ))
    test.write_text("HUM:x who is it ?\nLOC:x where is it ?\n")
    return {
        "mr": {"kind": "mr", "pos": str(pos), "neg": str(neg), "fold_index": 1},
        "cr": {"kind": "cr", "path": str(labeled), "fold_index": 0},
        "trec": {"kind": "trec", "train": str(train), "test": str(test)},
    }


PATH_KEYS = {"pos", "neg", "path", "train", "test"}
JSON_VALUES = {
    "null": None, "bool": True, "int": 3, "string": "x", "list": [1],
    "object": {"a": 1},
}
MANIFEST_KEYS = {
    "mr": ["kind", "pos", "neg", "fold_index"],
    "cr": ["kind", "path", "fold_index"],
    "trec": ["kind", "train", "test"],
}


def json_type_case(kind: str, key: str, json_type: str):
    """A manifest key given a value of a JSON type. A number key given a
    JSON number may be accepted, and then eval builds the corpus, which
    needs numpy."""
    number = key not in {"kind", *PATH_KEYS} and json_type in ("bool", "int")
    return pytest.param(kind, key, json_type, marks=needs_numpy if number else ())


def wrong_type_message(kind: str, key: str, value) -> str | None:
    """The data error a manifest value of the wrong JSON type must give, or
    None if the key can take the value."""
    if key == "kind":
        return "unknown dataset kind"
    if key in PATH_KEYS:
        return None if isinstance(value, str) else f"{kind} dataset manifest key {key!r}"
    if isinstance(value, bool):  # JSON true and false are not numbers
        return f"{kind} dataset manifest key {key!r}"
    try:  # the number keys take what int() and float() convert
        int(value)
    except (TypeError, ValueError):
        return f"{kind} dataset manifest key {key!r}"
    return None


class TestManifestValues:
    @pytest.mark.parametrize(
        "kind,key,value,problem",
        [
            ("cr", "path", 0, "is not a path"),
            ("cr", "path", ["a"], "is not a path"),
            ("trec", "train", None, "is not a path"),
            ("mr", "fold_index", None, "is not a number"),
            ("cr", "fold_index", [], "is not a number"),
            ("mr", "fold_index", "x", "is not a number"),
            ("cr", "fold_index", float("inf"), "is not finite"),
            ("mr", "fold_index", 1.9, "is not an integer"),
            ("cr", "fold_index", "1.5", "is not an integer"),
            ("mr", "fold_index", True, "is not a number"),
        ],
        ids=["path-int", "path-list", "path-null", "fold-index-null",
             "fold-index-list", "fold-index-string", "fold-index-infinite",
             "fold-index-fractional", "fold-index-fractional-text",
             "fold-index-true"],
    )
    def test_wrong_json_type_is_data_error(
        self, tmp_path, capsys, kind, key, value, problem
    ):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps({**dataset_files(tmp_path)[kind], key: value}))
        assert cli.main(eval_on(tmp_path, dataset)) == 2
        message = f"data error: {kind} dataset manifest key {key!r} {problem}"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["mr", "cr"])
    @pytest.mark.parametrize(
        "fold_index,problem",
        [(-1, "is below 0"), (10, "is above 9"), (12, "is above 9")],
        ids=["index-negative", "index-at-folds", "index-above-folds"],
    )
    def test_fold_value_out_of_range_is_data_error(
        self, tmp_path, capsys, kind, fold_index, problem
    ):
        manifest = {**dataset_files(tmp_path)[kind], "fold_index": fold_index}
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(manifest))
        assert cli.main(eval_on(tmp_path, dataset)) == 2
        message = f"data error: {kind} dataset manifest key 'fold_index' {problem}"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,key",
        [("mr", "fold_idx"), ("cr", "class_count"), ("trec", "folds"), ("mr", "folds"),
         ("cr", "folds")],
    )
    def test_key_the_kind_does_not_read_is_data_error(self, tmp_path, capsys, kind, key):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps({**dataset_files(tmp_path)[kind], key: 3}))
        argv = eval_on(tmp_path, dataset, max_epochs=1)
        assert cli.main(argv) == 2
        message = f"data error: {kind} dataset manifest key {key!r} is unknown"
        assert message in capsys.readouterr().err

    @needs_numpy
    def test_no_manifest_is_the_bundled_corpus(self):
        # 2 classes of 50 sentences, 20 of them held out as the test split
        prepared = cli.prepare_corpus(None, 0.9, 40)
        assert prepared.class_count == 2
        assert len(prepared.train_labels) + len(prepared.validation_labels) == 80

    @needs_numpy
    @pytest.mark.parametrize("kind", sorted(MANIFEST_KEYS))
    def test_working_manifest_evaluates(self, tmp_path, capsys, kind):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(dataset_files(tmp_path)[kind]))
        argv = eval_on(tmp_path, dataset, max_epochs=1)
        assert cli.main(argv) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("kind,key,json_type", [
        json_type_case(kind, key, json_type)
        for kind in sorted(MANIFEST_KEYS)
        for key in MANIFEST_KEYS[kind]
        for json_type in sorted(JSON_VALUES)
    ])
    def test_every_key_takes_every_json_type(self, tmp_path, capsys, kind, key, json_type):
        value = JSON_VALUES[json_type]
        manifest = {**dataset_files(tmp_path)[kind], key: value}
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(manifest))
        argv = eval_on(tmp_path, dataset, max_epochs=1)
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        message = wrong_type_message(kind, key, value)
        if message is not None:
            assert code == 2
            assert err.startswith(f"data error: {message}")


class TestOracle:
    def test_front_matches_hand_enumeration(self, tmp_path, capsys):
        # kernel values listed descending, so error grows with the index
        # while flops shrinks: each kernel level trades off against the
        # others, and relu (index 0) beats tanh at equal flops
        restriction = {
            "kernel_count_w3": [256, 100, 32],
            "kernel_count_w4": [32],
            "kernel_count_w5": [32],
            "conv_dropout": ["0.1"],
            "fc_units": [16],
            "fc_dropout": ["0.1"],
            "activation": ["relu", "tanh"],
            "learning_rate": ["0.001"],
            "batch_size": [64],
        }
        config = write_run_config(tmp_path / "rc.json", space=restriction)
        out = tmp_path / "front.txt"
        assert cli.main(["oracle", "--config", config, "--output", str(out)]) == 0
        payload = json.loads((tmp_path / "front.json").read_text())
        fronts = {
            (e["config"]["kernel_count_w3"], e["config"]["activation"])
            for e in payload["entries"]
        }
        # hand enumeration: error = (frac(k3)^2 + frac(act)^2)/2 with flops
        # strictly decreasing in the kernel index, so the front is exactly
        # the three relu configurations
        assert fronts == {(256, "relu"), (100, "relu"), (32, "relu")}

    def test_top_k_is_an_unrecognized_argument(self, tmp_path, capsys):
        config = write_run_config(tmp_path / "rc.json")
        out = tmp_path / "front.txt"
        argv = ["oracle", "--config", config, "--output", str(out), "--top-k", "5"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "usage error: unrecognized arguments: --top-k 5\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "restriction", ['{"fc_units": 16}', '{"fc_units": null}', '{"fc_units": {}}']
    )
    def test_restriction_that_is_not_a_list_is_usage_error(
        self, tmp_path, capsys, restriction
    ):
        config = write_run_config(tmp_path / "rc.json", space=json.loads(restriction))
        out = tmp_path / "front.txt"
        assert cli.main(["oracle", "--config", config, "--output", str(out)]) == 1
        assert "'fc_units' is not a list" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_holds_the_front_not_every_evaluation(self, tmp_path):
        # 7 * 4 * 6 * 4 * 4 * 3 = 8,064 configurations; a list of every
        # evaluated one would peak near 10 MiB
        restriction = {
            "kernel_count_w3": [256, 160, 128, 100, 96, 64, 32],
            "kernel_count_w4": [32],
            "kernel_count_w5": [32],
            "conv_dropout": ["0.1", "0.2", "0.3", "0.4"],
            "fc_units": [512, 256, 128, 64, 32, 16],
            "fc_dropout": ["0.1", "0.2", "0.3", "0.4"],
            "activation": ["relu", "tanh", "elu", "linear"],
            "learning_rate": ["0.001"],
            "batch_size": [64, 128, 256],
        }
        config = write_run_config(tmp_path / "rc.json", space=restriction)
        argv = ["oracle", "--config", config, "--output", str(tmp_path / "f.txt")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_tuned_archive_subset_of_oracle_front(self, tmp_path):
        # synthetic only: on a text-CNN objective tune may archive a
        # configuration that one it never evaluated dominates, so there the
        # tuned archive is only dominated by the front (test_golden's
        # text-CNN oracle test)
        config = write_run_config(tmp_path / "rc.json")
        out = tmp_path / "out"
        assert cli.main(["tune", "--config", config, "--output-dir", str(out)]) == 0
        argv = ["oracle", "--config", config, "--output", str(tmp_path / "front.txt")]
        assert cli.main(argv) == 0
        tuned = json.loads((out / "archive.json").read_text())
        oracle = json.loads((tmp_path / "front.json").read_text())
        oracle_set = {
            (json.dumps(e["config"], sort_keys=True), e["error_rate"], e["flops"])
            for e in oracle["entries"]
        }
        tuned_set = {
            (json.dumps(e["config"], sort_keys=True), e["error_rate"], e["flops"])
            for e in tuned["entries"]
        }
        assert tuned_set <= oracle_set


#: two evals in one fresh interpreter; prints the second one's minor faults
REPEAT_EVAL = """
import io, json, resource, sys
from contextlib import redirect_stdout
from annealtune import cli
argv = json.loads(sys.argv[1])
with redirect_stdout(io.StringIO()):
    assert cli.main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):  # no C library to load by name
        return False


class TestAllocatorPolicy:
    @needs_numpy
    @pytest.mark.skipif(not has_mallopt(), reason="C library has no mallopt")
    def test_repeat_run_faults_in_few_pages(self, tmp_path):
        # freed numpy buffers stay in the heap, so a repeat run reuses their
        # pages; a fresh interpreter, since a long-lived one may already have
        # raised glibc's own mmap threshold (about 325 faults without the policy)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-c", REPEAT_EVAL,
             json.dumps(eval_argv(tmp_path, *TOP1_SETS, objective_kind="textcnn"))],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            )},
            capture_output=True, text=True, timeout=120, check=True,
        )
        faults = int(done.stdout)
        assert faults < 150, faults

    def test_c_library_without_mallopt_is_left_alone(self, monkeypatch):
        class NoMallopt:
            pass

        monkeypatch.setattr(ctypes, "CDLL", lambda name: NoMallopt())
        assert evaluator._keep_freed_heap.__wrapped__() is None
