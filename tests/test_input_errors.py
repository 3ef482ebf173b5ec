"""Named errors for inputs the CLI refuses: JSON input files it cannot use,
manifest values it judges before reading any dataset file, and outside
values its messages echo, cut short. No case reaches a corpus or a
training, and the file imports no numpy, so it runs where numpy is
missing."""

import json

import pytest
from helpers import DEEP_JSON, SPHERE_RUN, TOP1_SETS, write_run_config

import annealtune.cli as cli
from annealtune.search_space import default_search_space

#: a list nested 500 deep, within the decoder's reach; its repr is 1,000
#: characters
DEEP_LIST = "[" * 500 + "]" * 500

#: the command lines that read a run config or a dataset manifest from
#: {path} and would write {out}; {rc} is a text-CNN run config beside
#: {path} whose dataset manifest is {path}
TUNE = ["tune", "--config", "{path}", "--output-dir", "{out}"]
EVAL = ["eval", "--config", "{path}", *TOP1_SETS, "--flops-only"]
EVAL_ON = ["eval", "--config", "{rc}", *TOP1_SETS, "--flops-only"]
ORACLE = ["oracle", "--config", "{path}", "--output", "{out}"]

#: each JSON input file -> the command lines that read it, the exit code of
#: a file they cannot use, the name its file errors give it, and the prefix
#: of its malformed-JSON error
INPUTS = {
    "run-config": (
        [TUNE, EVAL, ORACLE], 1, "usage error: run config",
        "usage error: bad run config:",
    ),
    "manifest": (
        [EVAL_ON], 2, "data error: dataset manifest",
        "data error: dataset manifest is not valid JSON:",
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
    """``command`` with {path}, {out} and {rc} replaced, {rc}'s run config
    written if it is there; str.format would read the braces of inline
    JSON."""
    rc = path.parent / "rc.json"
    if "{rc}" in command:
        write_run_config(rc, objective_kind="textcnn", dataset_path=str(path), space=None)
    return [arg.replace("{path}", str(path)).replace("{out}", str(out))
            .replace("{rc}", str(rc)) for arg in command]


@pytest.mark.parametrize("failure", list(FAILURES))
@pytest.mark.parametrize("name", list(INPUTS))
def test_unusable_json_file_is_a_named_error(tmp_path, capsys, name, failure):
    commands, code, file_error, malformed = INPUTS[name]
    path, out = tmp_path / "input.json", tmp_path / "out"
    FAILURES[failure](path)
    expected = {
        "missing": f"{file_error} not found: {path}\n",
        "directory": f"{file_error} {path}: ",
    }.get(failure, malformed)
    for command in commands:
        assert cli.main(fill(command, path, out)) == code, command[0]
        assert capsys.readouterr().err.startswith(expected), command[0]
        assert not out.exists()


def with_space(space) -> str:
    """SPHERE_RUN's text with ``space`` as its restriction."""
    return json.dumps({**SPHERE_RUN, "space": space})


#: each case -> its command line, what it writes to {path} first, and its
#: exit code
ECHO_CASES = {
    "manifest-kind": (EVAL_ON, '{"kind": ' + DEEP_LIST + "}", 2),
    "manifest-key": (EVAL_ON, json.dumps({"kind": "trec", "x" * 1000: 1}), 2),
    "run-config-objective-kind": (
        TUNE, json.dumps({**SPHERE_RUN, "objective_kind": json.loads(DEEP_LIST)}), 1
    ),
    "run-config-key": (TUNE, json.dumps({**SPHERE_RUN, "x" * 1000: 1}), 1),
    "restriction-value-type": (
        ORACLE, with_space({"fc_units": [json.loads(DEEP_LIST)]}), 1
    ),
    "restriction-value": (ORACLE, with_space({"fc_units": ["x" * 1000]}), 1),
    "restriction-domain": (ORACLE, with_space({"x" * 1000: [16]}), 1),
    "set-pair": ([*EVAL, "--set", "x" * 1000], json.dumps(SPHERE_RUN), 1),
    "set-name": ([*EVAL, "--set", "x" * 1000 + "=1"], json.dumps(SPHERE_RUN), 1),
    "set-value": (
        [*EVAL, "--set", "fc_units=" + "9" * 999], json.dumps(SPHERE_RUN), 1
    ),
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
        EVAL_ON, "[1, 2]", 2,
        "data error: dataset manifest must be an object with a 'kind' key",
    ),
    "manifest-without-kind": (
        EVAL_ON, json.dumps({"path": "{blank}"}), 2,
        "data error: dataset manifest must be an object with a 'kind' key",
    ),
    # a run config without a dataset_path trains on the bundled corpus
    "manifest-synthetic-kind": (
        EVAL_ON, json.dumps({"kind": "synthetic", "class_count": 2}), 2,
        "data error: unknown dataset kind 'synthetic'\n",
    ),
    "restriction-bool": (
        ORACLE, with_space({"fc_units": [True]}), 1,
        "usage error: bad run config: bool is not a valid domain value",
    ),
    # oracle judges its run config as tune does, so a space of one
    # configuration is refused and tune's required keys must be there
    "oracle-one-configuration": (
        ORACLE, with_space({d.name: d.values[:1] for d in default_search_space().domains}),
        1,
        "usage error: bad run config: search space must contain at least 2",
    ),
    "oracle-without-tune-keys": (
        ORACLE, json.dumps({"objective_kind": "synthetic:sphere_proxy"}), 1,
        "usage error: bad run config: missing run config keys",
    ),
    "cr-without-sentence": (
        EVAL_ON, json.dumps({"kind": "cr", "path": "{blank}"}), 2,
        "data error: no sentences in {blank}",
    ),
    "trec-train-without-sentence": (
        EVAL_ON, json.dumps({"kind": "trec", "train": "{blank}", "test": "{blank}"}), 2,
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
    assert cli.main(fill(EVAL_ON, manifest, None)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {lines}:1: malformed")
    assert len(err) < 200 + len(str(lines)), err


def test_manifest_numbers_are_judged_before_its_files_are_read(tmp_path, capsys):
    manifest = tmp_path / "dataset.json"
    absent = str(tmp_path / "absent.txt")
    manifest.write_text(json.dumps({"kind": "mr", "pos": absent, "neg": absent,
                                    "fold_index": 10}))
    assert cli.main(fill(EVAL_ON, manifest, None)) == 2
    assert capsys.readouterr().err == (
        "data error: mr dataset manifest key 'fold_index' is above 9\n"
    )
