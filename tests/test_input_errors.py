"""Named errors for inputs the CLI refuses: JSON input files it cannot use,
manifest values it judges before reading any dataset file, and outside
values its messages echo, cut short. No case reaches a corpus or a
training, and the file imports no numpy, so it runs where numpy is
missing."""

import json

import pytest

import annealtune.cli as cli

#: JSON nested deeper than the decoder recurses
DEEP_JSON = "[" * 100_000
#: a list nested 500 deep, within the decoder's reach; its repr is 1,000
#: characters
DEEP_LIST = "[" * 500 + "]" * 500

TOP1_SETS = [
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

#: the command lines that read a run config, a dataset manifest or a space
#: restriction from {path} and would write {out}
TUNE = ["tune", "--config", "{path}", "--output-dir", "{out}"]
EVAL = ["eval", *TOP1_SETS, "--flops-only", "--corpus", "{path}"]
ORACLE = ["oracle", "--objective", "sphere_proxy", "--space", "{path}",
          "--output", "{out}"]

#: each JSON input file -> the command line that reads it, the exit code of
#: a file it cannot use, the name its file errors give it, and the prefix of
#: its malformed-JSON error
INPUTS = {
    "run-config": (TUNE, 1, "usage error: run config", "usage error: bad run config:"),
    "manifest": (
        EVAL, 2, "data error: dataset manifest",
        "data error: dataset manifest is not valid JSON:",
    ),
    "space-file": (
        ORACLE, 1, "usage error: space file", "usage error: bad space restriction:"
    ),
}

#: each way the file at a path can be unusable -> how to make it so
FAILURES = {
    "missing": lambda path: None,
    "directory": lambda path: path.mkdir(),
    "undecodable": lambda path: path.write_bytes(b'{"kind": "\xff"}'),
    "nested-too-deeply": lambda path: path.write_text(DEEP_JSON),
}


def fill(command: list[str], path, out) -> list[str]:
    """``command`` with {path} and {out} replaced; str.format would read the
    braces of inline JSON."""
    return [arg.replace("{path}", str(path)).replace("{out}", str(out))
            for arg in command]


@pytest.mark.parametrize("failure", list(FAILURES))
@pytest.mark.parametrize("name", list(INPUTS))
def test_unusable_json_file_is_a_named_error(tmp_path, capsys, name, failure):
    command, code, file_error, malformed = INPUTS[name]
    path, out = tmp_path / "input.json", tmp_path / "out"
    FAILURES[failure](path)
    assert cli.main(fill(command, path, out)) == code
    expected = {
        "missing": f"{file_error} not found: {path}\n",
        "directory": f"{file_error} {path}: ",
    }.get(failure, malformed)
    assert capsys.readouterr().err.startswith(expected)
    assert not out.exists()


RUN_CONFIG = {
    "seed_number": 40, "ratio_init": 0.9, "iteration_budget": 250,
    "initial_acceptance_probability": 0.5, "cooling_rate": 0.8,
    "objective_kind": "synthetic:sphere_proxy",
}


def inline(space: str) -> list[str]:
    """ORACLE with the restriction ``space`` given inline."""
    return [space if arg == "{path}" else arg for arg in ORACLE]


#: each case -> its command line, what it writes to {path} first, and its
#: exit code
ECHO_CASES = {
    "manifest-kind": (EVAL, '{"kind": ' + DEEP_LIST + "}", 2),
    "manifest-key": (EVAL, json.dumps({"kind": "trec", "x" * 1000: 1}), 2),
    "run-config-objective-kind": (
        TUNE, json.dumps({**RUN_CONFIG, "objective_kind": json.loads(DEEP_LIST)}), 1
    ),
    "run-config-key": (TUNE, json.dumps({**RUN_CONFIG, "x" * 1000: 1}), 1),
    "restriction-value-type": (inline('{"fc_units": [' + DEEP_LIST + "]}"), None, 1),
    "restriction-value": (inline(json.dumps({"fc_units": ["x" * 1000]})), None, 1),
    "restriction-domain": (inline(json.dumps({"x" * 1000: [16]})), None, 1),
    "set-pair": (["eval", "--flops-only", "--set", "x" * 1000], None, 1),
    "set-name": (["eval", "--flops-only", "--set", "x" * 1000 + "=1"], None, 1),
    "set-value": (["eval", "--flops-only", "--set", "fc_units=" + "9" * 999], None, 1),
}


@pytest.mark.parametrize("case", list(ECHO_CASES))
def test_echoed_value_is_cut_short(tmp_path, capsys, case):
    command, content, code = ECHO_CASES[case]
    path, out = tmp_path / "input.json", tmp_path / "out"
    if content is not None:
        path.write_text(content)
    assert cli.main(fill(command, path, out)) == code
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(len(line) < 200 for line in lines), lines
    assert not out.exists()


#: each case -> its command line, what it writes to {path} first ({blank}
#: names a file of blank lines), its exit code and the start of its error
NAMED_ERRORS = {
    "run-config-list": (
        TUNE, "[1, 2]", 1,
        "usage error: bad run config: run config must be a key/value mapping",
    ),
    "manifest-list": (
        EVAL, "[1, 2]", 2,
        "data error: dataset manifest must be an object with a 'kind' key",
    ),
    "manifest-without-kind": (
        EVAL, json.dumps({"path": "{blank}"}), 2,
        "data error: dataset manifest must be an object with a 'kind' key",
    ),
    "restriction-bool": (
        inline('{"fc_units": [true]}'), None, 1,
        "usage error: bad space restriction: bool is not a valid domain value",
    ),
    "cr-without-sentence": (
        EVAL, json.dumps({"kind": "cr", "path": "{blank}"}), 2,
        "data error: no sentences in {blank}",
    ),
    "trec-train-without-sentence": (
        EVAL, json.dumps({"kind": "trec", "train": "{blank}", "test": "{blank}"}), 2,
        "data error: no sentences in {blank}",
    ),
}


@pytest.mark.parametrize("case", list(NAMED_ERRORS))
def test_refused_input_is_a_named_error(tmp_path, capsys, case):
    command, content, code, expected = NAMED_ERRORS[case]
    path, out, blank = tmp_path / "input.json", tmp_path / "out", tmp_path / "blank"
    blank.write_text("\n \n")
    if content is not None:
        path.write_text(content.replace("{blank}", str(blank)))
    assert cli.main(fill(command, path, out)) == code
    assert capsys.readouterr().err.startswith(expected.replace("{blank}", str(blank)))
    assert not out.exists()


@pytest.mark.parametrize("kind", ["cr", "trec"])
def test_echoed_dataset_line_is_cut_short(tmp_path, capsys, kind):
    lines = tmp_path / "data.txt"
    lines.write_text("x" * 1000 + "\n")
    keys = {"cr": ["path"], "trec": ["train", "test"]}[kind]
    manifest = tmp_path / "dataset.json"
    manifest.write_text(json.dumps({"kind": kind, **dict.fromkeys(keys, str(lines))}))
    assert cli.main(fill(EVAL, manifest, None)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {lines}:1: malformed")
    assert len(err) < 200 + len(str(lines)), err


def test_manifest_numbers_are_judged_before_its_files_are_read(tmp_path, capsys):
    manifest = tmp_path / "dataset.json"
    absent = str(tmp_path / "absent.txt")
    manifest.write_text(json.dumps({"kind": "mr", "pos": absent, "neg": absent,
                                    "folds": 1}))
    assert cli.main(fill(EVAL, manifest, None)) == 2
    assert capsys.readouterr().err == (
        "data error: mr dataset manifest key 'folds' is below 2\n"
    )
