import ctypes
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from helpers import trace_line
from test_input_errors import DEEP_JSON, TOP1_SETS

import annealtune.cli as cli
from annealtune.annealer import CalibrationError, StepRecord
from annealtune.pareto import ArchiveAction, ObjectiveVector
from annealtune.search_space import Configuration

SMALL_SPACE = {
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


def write_run_config(path, **overrides):
    raw = {
        "seed_number": 40,
        "ratio_init": 0.9,
        "iteration_budget": 250,
        "initial_acceptance_probability": 0.5,
        "cooling_rate": 0.8,
        "objective_kind": "synthetic:sphere_proxy",
        "space": SMALL_SPACE,
    }
    raw.update(overrides)
    path.write_text(json.dumps(raw))
    return str(path)


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

    def test_single_rate(self, capsys):
        assert cli.main(["plan", "--cooling-rates", "0.95"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split()[-2:] == ["30.6", "8.1"]

    def test_inverted_temperatures_is_usage_error(self, capsys):
        assert cli.main(["plan", "--t-init", "0.1", "--t-final", "0.5"]) == 1

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
        run_config = {
            "seed_number": 40,
            "ratio_init": 0.9,
            "iteration_budget": 6,
            "initial_acceptance_probability": 0.5,
            "cooling_rate": 0.8,
            "objective_kind": "textcnn",
            "probe_count": 2,
            "max_epochs": 3,
            "space": {
                "kernel_count_w3": [32], "kernel_count_w4": [32],
                "kernel_count_w5": [32], "conv_dropout": ["0.1"],
                "fc_units": [16], "fc_dropout": ["0.1"],
                "activation": ["relu", "tanh"],
                "learning_rate": ["0.002", "0.004"], "batch_size": [64],
            },
        }
        config_path = tmp_path / "rc.json"
        config_path.write_text(json.dumps(run_config))
        return config_path

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

    @pytest.mark.parametrize(
        "cache,reason",
        [("no-such-dir/cache.jsonl", "No such file"), (".", "Is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_unusable_cache_path_is_data_error(self, tmp_path, capsys, cache, reason):
        config_path = self.write_textcnn_config(tmp_path)
        code = cli.main(["tune", "--config", str(config_path), "--cache",
                         str(tmp_path / cache), "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "evaluation cache" in err and reason in err
        assert not (tmp_path / "out").exists()

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

    def test_empty_validation_split_is_data_error(self, tmp_path, capsys):
        # 2 sentences per class, none held out: ratio_init 0.9 puts both in train
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(
            {"kind": "synthetic", "samples_per_class": 2, "test_fraction": 0}
        ))
        config = write_run_config(
            tmp_path / "rc.json", objective_kind="textcnn", dataset_path=str(dataset)
        )
        out = tmp_path / "out"
        assert cli.main(["tune", "--config", config, "--output-dir", str(out)]) == 2
        assert "validation split is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_top_k_is_usage_error(self, tmp_path):
        config = write_run_config(tmp_path / "rc.json")
        out = tmp_path / "out"
        code = cli.main(["tune", "--config", config, "--output-dir", str(out),
                         "--top-k", "-1"])
        assert code == 1
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


class TestEval:
    def test_flops_only_instant(self, capsys):
        assert cli.main(["eval", *TOP1_SETS, "--flops-only"]) == 0
        out = capsys.readouterr().out
        assert "total=541056" in out

    def test_flops_only_breakdown_follows_the_corpus(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(
            {"kind": "synthetic", "class_count": 40, "vocab_size": 80,
             "samples_per_class": 10}
        ))
        eval_argv = ["eval", *TOP1_SETS, "--corpus", str(dataset)]
        assert cli.main([*eval_argv, "--flops-only"]) == 0
        flops_only = capsys.readouterr().out.splitlines()
        assert cli.main([*eval_argv, "--max-epochs", "1"]) == 0
        assert flops_only == capsys.readouterr().out.splitlines()[:1]

    def test_flops_only_missing_manifest_is_data_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert cli.main(["eval", *TOP1_SETS, "--flops-only", "--corpus", missing]) == 2
        assert f"data error: dataset manifest not found: {missing}" in (
            capsys.readouterr().err
        )

    def test_missing_domain_usage_error(self, capsys):
        partial = TOP1_SETS[:-2]  # drop batch_size
        assert cli.main(["eval", *partial, "--flops-only"]) == 1
        assert "batch_size" in capsys.readouterr().err

    def test_bad_value_usage_error(self):
        args = TOP1_SETS + ["--set", "batch_size=65"]
        assert cli.main(["eval", *args, "--flops-only"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-epochs", "0"],
            ["--embedding-dim", "0"],
            ["--ratio-init", "1.5"],
            ["--flops-only", "--sentence-length", "2"],
            ["--flops-only", "--class-count", "-1000"],
            ["--flops-only", "--class-count", "0"],
            ["--flops-only", "--sentence-length", "0"],
        ],
    )
    def test_out_of_range_setting_is_usage_error(self, capsys, flags):
        assert cli.main(["eval", *TOP1_SETS, *flags]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_calls_share_no_parsed_values(self, tmp_path, capsys):
        assert cli.main(["eval", *TOP1_SETS, "--flops-only"]) == 0
        # no --set values carried over: every domain is unassigned again
        assert cli.main(["eval", "--flops-only"]) == 1
        assert "missing assignment" in capsys.readouterr().err
        # no --flops-only carried over: the manifest is read, and is missing
        missing = str(tmp_path / "missing.json")
        assert cli.main(["eval", *TOP1_SETS, "--corpus", missing]) == 2
        assert f"data error: dataset manifest not found: {missing}" in capsys.readouterr().err

    def test_manifest_missing_key_is_data_error(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps({"kind": "mr", "pos": "x"}))
        assert cli.main(["eval", *TOP1_SETS, "--corpus", str(dataset)]) == 2
        assert "mr dataset manifest lacks key 'neg'" in capsys.readouterr().err

    def test_divergence_names_the_configuration(self, capsys, monkeypatch):
        from annealtune import textcnn
        from annealtune.evaluator import DivergenceError

        def diverge(*args, **kwargs):
            raise DivergenceError("non-finite loss at epoch 1")

        monkeypatch.setattr(textcnn, "train", diverge)
        assert cli.main(["eval", *TOP1_SETS, "--max-epochs", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: non-finite loss at epoch 1 (config {")
        assert "'kernel_count_w3': 100" in err and "'batch_size': 64" in err

    def test_full_evaluation_on_bundled_synthetic(self, capsys):
        code = cli.main(["eval", *TOP1_SETS, "--max-epochs", "3"])
        assert code == 0
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
        assert cli.main(["eval", *TOP1_SETS, "--corpus", str(dataset)]) == 2
        assert f"data error: dataset file {tmp_path}:" in capsys.readouterr().err

    # inline, in-process: the OS refuses an argument this long; test_input_errors
    # judges the restriction given as a file
    @pytest.mark.parametrize("spec", ['{"fc_units": ' + DEEP_JSON], ids=["inline"])
    def test_deeply_nested_space_is_usage_error(self, tmp_path, capsys, spec):
        argv = ["oracle", "--objective", "sphere_proxy", "--space", spec,
                "--output", str(tmp_path / "front.txt")]
        assert cli.main(argv) == 1
        assert "usage error: bad space restriction" in capsys.readouterr().err


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
        "synthetic": {
            "kind": "synthetic", "class_count": 2, "samples_per_class": 10,
            "vocab_size": 40, "seed": 1, "test_fraction": 0.2,
        },
        "mr": {"kind": "mr", "pos": str(pos), "neg": str(neg), "folds": 5,
               "fold_index": 1},
        "cr": {"kind": "cr", "path": str(labeled), "folds": 5, "fold_index": 0},
        "trec": {"kind": "trec", "train": str(train), "test": str(test)},
    }


PATH_KEYS = {"pos", "neg", "path", "train", "test"}
JSON_VALUES = {
    "null": None, "bool": True, "int": 3, "string": "x", "list": [1],
    "object": {"a": 1},
}
MANIFEST_KEYS = {
    "synthetic": ["kind", "class_count", "samples_per_class", "vocab_size", "seed",
                  "test_fraction"],
    "mr": ["kind", "pos", "neg", "folds", "fold_index"],
    "cr": ["kind", "path", "folds", "fold_index"],
    "trec": ["kind", "train", "test"],
}


def wrong_type_message(kind: str, key: str, value) -> str | None:
    """The data error a manifest value of the wrong JSON type must give, or
    None if the key can take the value."""
    if key == "kind":
        return "unknown dataset kind"
    if key in PATH_KEYS:
        return None if isinstance(value, str) else f"{kind} dataset manifest key {key!r}"
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
            ("synthetic", "seed", None, "is not a number"),
            ("synthetic", "test_fraction", [], "is not a number"),
            ("mr", "folds", "x", "is not a number"),
            ("cr", "fold_index", float("inf"), "is not finite"),
            ("synthetic", "samples_per_class", 10.9, "is not an integer"),
            ("synthetic", "samples_per_class", "10.5", "is not an integer"),
            ("synthetic", "seed", 1.5, "is not an integer"),
            ("mr", "folds", 2.9, "is not an integer"),
        ],
        ids=["path-int", "path-list", "path-null", "seed-null", "fraction-list",
             "folds-string", "fold-index-infinite", "samples-fractional",
             "samples-fractional-text",
             "seed-fractional", "folds-fractional"],
    )
    def test_wrong_json_type_is_data_error(
        self, tmp_path, capsys, kind, key, value, problem
    ):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps({**dataset_files(tmp_path)[kind], key: value}))
        assert cli.main(["eval", *TOP1_SETS, "--corpus", str(dataset)]) == 2
        message = f"data error: {kind} dataset manifest key {key!r} {problem}"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [("class_count", 10**6), ("samples_per_class", 10**9), ("vocab_size", 10**8)],
    )
    def test_synthetic_size_above_ceiling_is_data_error(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        def generator_must_not_run(**sizes):
            raise AssertionError(f"synthetic corpus generated at {sizes}")

        monkeypatch.setattr(cli, "synthetic_corpus", generator_must_not_run)
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps({"kind": "synthetic", key: value}))
        assert cli.main(["eval", *TOP1_SETS, "--corpus", str(dataset)]) == 2
        ceiling = cli.MANIFEST_RULES["synthetic"][key][3]
        message = f"data error: synthetic dataset manifest key {key!r} is above {ceiling}"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values,key,problem",
        [
            ({"class_count": 0}, "class_count", "is below 1"),
            ({"class_count": -3}, "class_count", "is below 1"),
            ({"samples_per_class": 0}, "samples_per_class", "is below 1"),
            ({"samples_per_class": -5}, "samples_per_class", "is below 1"),
            ({"vocab_size": 3}, "vocab_size", "is below 4, twice class_count"),
            ({"class_count": 5, "vocab_size": 9}, "vocab_size",
             "is below 10, twice class_count"),
            ({"test_fraction": 1.0}, "test_fraction", "is outside [0, 1)"),
            ({"test_fraction": -0.1}, "test_fraction", "is outside [0, 1)"),
        ],
        ids=["classes-zero", "classes-negative", "samples-zero", "samples-negative",
             "vocab-below-default-classes", "vocab-below-classes", "fraction-one",
             "fraction-negative"],
    )
    def test_synthetic_value_out_of_range_is_data_error(
        self, tmp_path, capsys, monkeypatch, values, key, problem
    ):
        def generator_must_not_run(**sizes):
            raise AssertionError(f"synthetic corpus generated at {sizes}")

        monkeypatch.setattr(cli, "synthetic_corpus", generator_must_not_run)
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps({"kind": "synthetic", **values}))
        assert cli.main(["eval", *TOP1_SETS, "--corpus", str(dataset)]) == 2
        message = f"data error: synthetic dataset manifest key {key!r} {problem}"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["mr", "cr"])
    @pytest.mark.parametrize(
        "values,key,problem",
        [
            ({"folds": 1, "fold_index": 0}, "folds", "is below 2"),
            ({"folds": 0, "fold_index": 0}, "folds", "is below 2"),
            ({"folds": -3}, "folds", "is below 2"),
            ({"folds": 5, "fold_index": 5}, "fold_index", "is outside [0, 5)"),
            ({"folds": 5, "fold_index": 12}, "fold_index", "is outside [0, 5)"),
            ({"folds": 5, "fold_index": -1}, "fold_index", "is outside [0, 5)"),
            ({"fold_index": 10}, "fold_index", "is outside [0, 10)"),
        ],
        ids=["folds-one", "folds-zero", "folds-negative", "index-at-folds",
             "index-above-folds", "index-negative", "index-at-default-folds"],
    )
    def test_fold_value_out_of_range_is_data_error(
        self, tmp_path, capsys, kind, values, key, problem
    ):
        manifest = {**dataset_files(tmp_path)[kind], **values}
        if "folds" not in values:
            del manifest["folds"]
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(manifest))
        assert cli.main(["eval", *TOP1_SETS, "--corpus", str(dataset)]) == 2
        message = f"data error: {kind} dataset manifest key {key!r} {problem}"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,key",
        [("synthetic", "samples_per_clas"), ("mr", "fold_idx"), ("cr", "class_count"),
         ("trec", "folds")],
    )
    def test_key_the_kind_does_not_read_is_data_error(self, tmp_path, capsys, kind, key):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps({**dataset_files(tmp_path)[kind], key: 3}))
        argv = ["eval", *TOP1_SETS, "--max-epochs", "1", "--corpus", str(dataset)]
        assert cli.main(argv) == 2
        message = f"data error: {kind} dataset manifest key {key!r} is unknown"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(MANIFEST_KEYS))
    def test_working_manifest_evaluates(self, tmp_path, capsys, kind):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(dataset_files(tmp_path)[kind]))
        argv = ["eval", *TOP1_SETS, "--max-epochs", "1", "--corpus", str(dataset)]
        assert cli.main(argv) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("json_type", sorted(JSON_VALUES))
    @pytest.mark.parametrize(
        "kind,key", [(k, key) for k in sorted(MANIFEST_KEYS) for key in MANIFEST_KEYS[k]]
    )
    def test_every_key_takes_every_json_type(self, tmp_path, capsys, kind, key, json_type):
        value = JSON_VALUES[json_type]
        manifest = {**dataset_files(tmp_path)[kind], key: value}
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(manifest))
        argv = ["eval", *TOP1_SETS, "--max-epochs", "1", "--corpus", str(dataset)]
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
        out = tmp_path / "front.txt"
        code = cli.main(
            ["oracle", "--objective", "sphere_proxy",
             "--space", json.dumps(restriction),
             "--cap", "100", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "front.json").read_text())
        fronts = {
            (e["config"]["kernel_count_w3"], e["config"]["activation"])
            for e in payload["entries"]
        }
        # hand enumeration: error = (frac(k3)^2 + frac(act)^2)/2 with flops
        # strictly decreasing in the kernel index, so the front is exactly
        # the three relu configurations
        assert fronts == {(256, "relu"), (100, "relu"), (32, "relu")}

    def test_cap_exceeded_is_usage_error(self, tmp_path, capsys):
        code = cli.main(
            ["oracle", "--objective", "sphere_proxy", "--cap", "2",
             "--output", str(tmp_path / "front.txt")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == "usage error: space cardinality 7717500 exceeds cap 2\n"

    def test_negative_top_k_is_usage_error(self, tmp_path):
        out = tmp_path / "front.txt"
        code = cli.main(
            ["oracle", "--objective", "sphere_proxy",
             "--space", json.dumps(SMALL_SPACE),
             "--cap", "100", "--output", str(out), "--top-k", "-1"]
        )
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "restriction", ['{"fc_units": 16}', '{"fc_units": null}', '{"fc_units": {}}']
    )
    def test_restriction_that_is_not_a_list_is_usage_error(
        self, tmp_path, capsys, restriction
    ):
        out = tmp_path / "front.txt"
        argv = ["oracle", "--objective", "sphere_proxy", "--space", restriction,
                "--output", str(out)]
        assert cli.main(argv) == 1
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
        argv = ["oracle", "--objective", "sphere_proxy",
                "--space", json.dumps(restriction), "--output", str(tmp_path / "f.txt")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_tuned_archive_subset_of_oracle_front(self, tmp_path):
        config = write_run_config(tmp_path / "rc.json")
        out = tmp_path / "out"
        cli.main(["tune", "--config", config, "--output-dir", str(out)])
        cli.main(
            ["oracle", "--objective", "sphere_proxy",
             "--space", json.dumps(SMALL_SPACE),
             "--cap", "100", "--output", str(tmp_path / "front.txt")]
        )
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
argv = ["eval", *json.loads(sys.argv[1])]
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
    @pytest.mark.skipif(not has_mallopt(), reason="C library has no mallopt")
    def test_repeat_run_faults_in_few_pages(self):
        # freed numpy buffers stay in the heap, so a repeat run reuses their
        # pages; a fresh interpreter, since a long-lived one may already have
        # raised glibc's own mmap threshold (about 325 faults without the policy)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-c", REPEAT_EVAL, json.dumps(TOP1_SETS)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            )},
            capture_output=True, text=True, timeout=120, check=True,
        )
        faults = int(done.stdout)
        assert faults < 150, faults
