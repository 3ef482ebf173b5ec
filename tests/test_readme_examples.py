"""README's examples name only what the package reads.

README.md has two ```json blocks: a run config, whose keys are RunConfig's
required fields, and one dataset manifest of each kind, each naming a kind
of ``cli.MANIFEST_RULES`` and only keys that kind reads. Every
``annealtune`` command in its ```sh blocks parses. A key or option deleted
from the package, or a key added to it as required, fails here until README
follows. Commands are only parsed, so no file they name is read. The file
imports no numpy, so it runs where numpy is missing.
"""

import json
import os
import re
import shlex
from dataclasses import MISSING, fields

import annealtune.cli as cli
from annealtune.search_space import RunConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def blocks(language: str) -> list[str]:
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{language}\n(.*?)^```$", fh.read(), re.M | re.S)


def commands() -> list[list[str]]:
    """Each ``annealtune`` command of the ```sh blocks, continuations joined."""
    lines = "".join(blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("annealtune ")]


def manifest_examples() -> list[dict]:
    """The manifests of the second block, each starting a line with "{"."""
    return [json.loads(text) for text in re.split(r"\n(?=\{)", blocks("json")[1])]


def test_readme_has_a_run_config_and_a_manifest_example():
    assert len(blocks("json")) == 2


def test_run_config_example_names_the_required_fields():
    required = {
        f.name for f in fields(RunConfig)
        if f.default is MISSING and f.default_factory is MISSING
    }
    assert set(json.loads(blocks("json")[0])) == required


def test_manifest_examples_name_only_keys_their_kind_reads():
    manifests = manifest_examples()
    assert [m["kind"] for m in manifests] == list(cli.MANIFEST_RULES)
    for manifest in manifests:
        rules = cli.MANIFEST_RULES[manifest["kind"]]
        assert set(manifest) - {"kind"} <= set(rules), manifest


def test_every_command_example_parses():
    examples = commands()
    assert {argv[1] for argv in examples} == {"plan", "tune", "eval", "oracle"}
    for argv in examples:
        cli.build_parser().parse_args(argv[1:])
