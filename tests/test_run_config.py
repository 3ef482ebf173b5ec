"""What ``annealtune tune`` accepts as a run config.

``RunConfig`` alone decides it, with the number rule that dataset manifests
use: a number key takes the finite numbers ``int()`` or ``float()`` converts,
but not ``true`` or ``false``, an int key takes no fractional value, and a
key with a floor takes nothing below it.
Every value it refuses is a usage error (exit 1) that names its key, raised
before any evaluator is built. The file imports no numpy, so it runs where
numpy is missing: each text-CNN case here is refused before a corpus is
prepared.
"""

import json
from dataclasses import fields

import pytest
from helpers import BASE_TUNE_SPACE

import annealtune.cli as cli
from annealtune.search_space import RunConfig, checked_number

BASE = {
    "seed_number": 40,
    "ratio_init": 0.9,
    "iteration_budget": 30,
    "initial_acceptance_probability": 0.5,
    "cooling_rate": 0.8,
    "objective_kind": "synthetic:sphere_proxy",
    "probe_count": 4,
    "space": BASE_TUNE_SPACE,
}


def tune(tmp_path, **overrides) -> int:
    config = tmp_path / "rc.json"
    config.write_text(json.dumps({**BASE, **overrides}))
    return cli.main(["tune", "--config", str(config), "--output-dir", str(tmp_path / "out")])


@pytest.fixture
def no_evaluator(monkeypatch):
    """Fail the test if ``tune`` gets as far as building an evaluator."""
    def build_evaluator(config, cache_path=None):
        raise AssertionError("evaluator built for a refused run config")

    monkeypatch.setattr(cli, "build_evaluator", build_evaluator)


def assert_refused(capsys, key: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: bad run config: {key} "), err


@pytest.mark.parametrize(
    "key,value",
    [
        ("seed_number", None),
        ("seed_number", [1]),
        ("seed_number", 1.5),
        ("seed_number", False),
        ("max_epochs", True),
        ("iteration_budget", 10.5),
        ("probe_count", 2.5),
        ("ratio_init", "x"),
        ("objective_kind", 3),
        ("objective_kind", "synthetic:rosenbrock"),
    ],
    ids=["seed-null", "seed-list", "seed-fractional", "seed-false", "epochs-true",
         "budget-fractional",
         "probes-fractional", "ratio-string", "kind-number", "kind-unknown-synthetic"],
)
def test_bad_value_is_usage_error_naming_its_key(
    tmp_path, capsys, no_evaluator, key, value
):
    assert tune(tmp_path, **{key: value}) == 1
    assert_refused(capsys, key)
    assert not (tmp_path / "out").exists()


def test_final_probability_not_below_initial_is_refused_before_evaluating(
    tmp_path, capsys, no_evaluator
):
    # the final probability is the constant 0.0357
    for initial in (0.0357, 0.01):
        assert tune(tmp_path, initial_acceptance_probability=initial) == 1
        err = capsys.readouterr().err
        assert err == (
            "usage error: bad run config: "
            "initial_acceptance_probability must be above 0.0357\n"
        )


@pytest.mark.parametrize(
    "key,value",
    [
        ("dataset_path", 1),
        ("max_epochs", 1.5),
        ("max_epochs", "2.5"),
        ("initial_acceptance_probability", "x"),
        ("max_epochs", 0),
        ("max_epochs", -5),
        ("initial_acceptance_probability", -0.5),
    ],
    ids=["dataset-number", "epochs-fractional", "epochs-fractional-text",
         "initial-probability-string", "epochs-zero", "epochs-negative",
         "initial-probability-negative"],
)
def test_bad_text_cnn_setting_is_usage_error_naming_its_key(
    tmp_path, capsys, no_evaluator, key, value
):
    assert tune(tmp_path, objective_kind="textcnn", **{key: value}) == 1
    assert_refused(capsys, key)


@pytest.mark.parametrize(
    "value", [float("inf"), float("nan"), float("-inf")],
    ids=["infinity", "nan", "minus-infinity"],
)
def test_non_finite_ratio_is_refused_before_evaluating(
    tmp_path, capsys, no_evaluator, value
):
    # json.dumps writes Infinity and NaN, and json.load reads them back
    assert tune(tmp_path, objective_kind="textcnn", ratio_init=value) == 1
    err = capsys.readouterr().err
    assert err == "usage error: bad run config: ratio_init is not finite\n"


@pytest.mark.parametrize(
    "key,value,problem",
    [
        ("iteration_budget", "1.5", "is not an integer"),
        ("probe_count", 2.5, "is not an integer"),
        ("seed_number", "x", "is not a number"),
        ("cooling_rate", 1.0, "must lie in (0, 1)"),
        ("cooling_rate", "0", "must lie in (0, 1)"),
    ],
    ids=["budget-fractional-text", "probes-fractional", "seed-string", "rate-one",
         "rate-zero-text"],
)
def test_refusal_names_its_key_and_problem(
    tmp_path, capsys, no_evaluator, key, value, problem
):
    assert tune(tmp_path, **{key: value}) == 1
    assert capsys.readouterr().err == f"usage error: bad run config: {key} {problem}\n"


def test_integral_text_is_taken_as_its_integer(tmp_path, capsys):
    outputs = []
    for budget in ("10.0", 10):
        assert tune(tmp_path, iteration_budget=budget) == 0
        outputs.append([(tmp_path / "out" / name).read_bytes()
                        for name in ("archive.json", "calibration.json")])
    assert outputs[0] == outputs[1]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "key,floor", [("iteration_budget", 1), ("probe_count", 2), ("max_epochs", 1)]
)
def test_value_below_floor_is_usage_error(tmp_path, capsys, no_evaluator, key, floor):
    assert tune(tmp_path, **{key: floor - 1}) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: bad run config: {key} is below {floor}"), err


@pytest.mark.parametrize(
    "key,ceiling,value",
    [
        ("iteration_budget", 2**53, 2**53 + 1),
        ("iteration_budget", 2**53, 10**400),
    ],
    ids=["budget-above", "budget-huge"],
)
def test_value_above_ceiling_is_usage_error(
    tmp_path, capsys, no_evaluator, key, ceiling, value
):
    assert tune(tmp_path, objective_kind="textcnn", **{key: value}) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: bad run config: {key} is above {ceiling}\n"), err


def test_ceilings_themselves_are_accepted():
    settings = {k: v for k, v in BASE.items() if k != "space"}
    config = RunConfig(**{**settings, "iteration_budget": 2**53})
    assert config.iteration_budget == 2**53


def test_probabilities_one_float_apart_are_a_runtime_error(tmp_path, capsys):
    # one float above the final probability, the initial one inverts to the
    # same temperature after the probe walk
    code = tune(
        tmp_path,
        seed_number=5,
        iteration_budget=30,
        initial_acceptance_probability=0.03570000000000001,
        cooling_rate=0.9,
        probe_count=20,
        space=None,
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: "), err
    assert err == (
        "runtime error: acceptance probabilities 0.03570000000000001 and 0.0357 "
        "give one temperature\n"
    )
    assert not (tmp_path / "out").exists()


def test_numbers_convert_as_in_manifests():
    config = RunConfig(
        seed_number=7.0,
        ratio_init=0.9,
        iteration_budget="12",
        initial_acceptance_probability="0.5",
        cooling_rate=0.8,
        objective_kind="textcnn",
    )
    assert (config.seed_number, config.iteration_budget) == (7, 12)
    assert type(config.seed_number) is int
    assert config.initial_acceptance_probability == 0.5
    # every float key of a run config lies in (0, 1), so the number rule
    # itself shows an integral JSON number kept as a float
    fraction = checked_number(0, float)
    assert fraction == 0 and type(fraction) is float


RUN_CONFIG_KEYS = [f.name for f in fields(RunConfig)]
#: keys that earlier run configs took, now constants of annealtune.evaluator
#: and annealtune.search_space
RETIRED_KEYS = ["early_stop_margin", "early_stop_patience", "embedding_dim",
                "final_acceptance_probability"]
JSON_VALUES = {
    "null": None, "bool": True, "int": 3, "float": 0.25, "string": "x", "list": [1],
    "object": {"a": 1},
}


def refused_key(key: str, value) -> bool:
    """Whether the run config must refuse ``value`` at ``key`` whatever the
    other keys hold, by its JSON type alone."""
    if key == "objective_kind":
        return not isinstance(value, str)
    if key == "dataset_path":
        return value is not None and not isinstance(value, str)
    if key == "space":
        return False  # a restriction's problems are named by the space
    if isinstance(value, bool):  # JSON true and false are not numbers
        return True
    try:  # the number keys take what int() and float() convert
        float(value)
    except (TypeError, ValueError):
        return True
    return False


@pytest.mark.parametrize("json_type", sorted(JSON_VALUES))
@pytest.mark.parametrize("key", RUN_CONFIG_KEYS + RETIRED_KEYS)
def test_every_key_takes_every_json_type(tmp_path, capsys, key, json_type):
    value = JSON_VALUES[json_type]
    code = tune(tmp_path, **{key: value})
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("usage error: bad run config: "), err
    if key in RETIRED_KEYS:  # refused whatever its value
        assert code == 1
        assert err == f"usage error: bad run config: unknown run config keys: ['{key}']\n"
    elif refused_key(key, value):
        assert code == 1
        assert err.startswith(f"usage error: bad run config: {key} "), err
