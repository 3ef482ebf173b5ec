"""What ``annealtune tune`` accepts as a run config.

``RunConfig`` alone decides it, with the number rule that dataset manifests
use: a number key takes the finite numbers ``int()`` or ``float()`` converts,
an int key takes no fractional value, and a key with a floor takes nothing
below it.
Every value it refuses is a usage error (exit 1) that names its key, raised
before any evaluator is built. The file imports no numpy, so it runs where
numpy is missing: each text-CNN case here is refused before a corpus is
prepared.
"""

import json
from dataclasses import fields

import pytest

import annealtune.cli as cli
from annealtune.search_space import RunConfig

#: a space of 8 configurations, so a synthetic run takes milliseconds
SMALL_SPACE = {
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

BASE = {
    "seed_number": 40,
    "ratio_init": 0.9,
    "iteration_budget": 30,
    "initial_acceptance_probability": 0.5,
    "cooling_rate": 0.8,
    "objective_kind": "synthetic:sphere_proxy",
    "probe_count": 4,
    "space": SMALL_SPACE,
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
        ("iteration_budget", 10.5),
        ("probe_count", 2.5),
        ("ratio_init", "x"),
        ("objective_kind", 3),
        ("objective_kind", "synthetic:rosenbrock"),
    ],
    ids=["seed-null", "seed-list", "seed-fractional", "budget-fractional",
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
    code = tune(
        tmp_path, initial_acceptance_probability=0.3, final_acceptance_probability=0.5
    )
    assert code == 1
    assert_refused(capsys, "final_acceptance_probability")


@pytest.mark.parametrize(
    "key,value",
    [
        ("dataset_path", 1),
        ("max_epochs", 1.5),
        ("embedding_dim", 2.5),
        ("early_stop_margin", "x"),
        ("early_stop_patience", 2.5),
    ],
    ids=["dataset-number", "epochs-fractional", "embedding-fractional",
         "margin-string", "patience-fractional"],
)
def test_bad_text_cnn_setting_is_usage_error_naming_its_key(
    tmp_path, capsys, no_evaluator, key, value
):
    assert tune(tmp_path, objective_kind="textcnn", **{key: value}) == 1
    assert_refused(capsys, key)


@pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["infinity", "nan"])
def test_non_finite_margin_is_refused_before_evaluating(
    tmp_path, capsys, no_evaluator, value
):
    # json.dumps writes Infinity and NaN, and json.load reads them back
    assert tune(tmp_path, objective_kind="textcnn", early_stop_margin=value) == 1
    err = capsys.readouterr().err
    assert err == "usage error: bad run config: early_stop_margin is not finite\n"


@pytest.mark.parametrize(
    "key,floor",
    [("iteration_budget", 1), ("probe_count", 2), ("max_epochs", 1), ("embedding_dim", 1)],
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
        ("embedding_dim", 1000, 1001),
        ("embedding_dim", 1000, 10**400),
    ],
    ids=["budget-above", "budget-huge", "embedding-above", "embedding-huge"],
)
def test_value_above_ceiling_is_usage_error(
    tmp_path, capsys, no_evaluator, key, ceiling, value
):
    assert tune(tmp_path, objective_kind="textcnn", **{key: value}) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: bad run config: {key} is above {ceiling}\n"), err


def test_ceilings_themselves_are_accepted():
    settings = {k: v for k, v in BASE.items() if k != "space"}
    config = RunConfig(**{**settings, "iteration_budget": 2**53, "embedding_dim": 1000})
    assert (config.iteration_budget, config.embedding_dim) == (2**53, 1000)


def test_probabilities_one_float_apart_are_a_runtime_error(tmp_path, capsys):
    # both probabilities invert to the same temperature after the probe walk
    code = tune(
        tmp_path,
        seed_number=5,
        iteration_budget=30,
        initial_acceptance_probability=0.4,
        final_acceptance_probability=0.39999999999999997,
        cooling_rate=0.9,
        probe_count=20,
        space=None,
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: "), err
    assert "0.4" in err and "0.39999999999999997" in err
    assert not (tmp_path / "out").exists()


def test_numbers_convert_as_in_manifests():
    config = RunConfig(
        seed_number=7.0,
        ratio_init=0.9,
        iteration_budget="12",
        initial_acceptance_probability="0.5",
        cooling_rate=0.8,
        objective_kind="textcnn",
        early_stop_margin=0,
    )
    assert (config.seed_number, config.iteration_budget) == (7, 12)
    assert type(config.seed_number) is int
    assert config.initial_acceptance_probability == 0.5
    assert type(config.early_stop_margin) is float


RUN_CONFIG_KEYS = [f.name for f in fields(RunConfig)]
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
    try:  # the number keys take what int() and float() convert
        float(value)
    except (TypeError, ValueError):
        return True
    return False


@pytest.mark.parametrize("json_type", sorted(JSON_VALUES))
@pytest.mark.parametrize("key", RUN_CONFIG_KEYS)
def test_every_key_takes_every_json_type(tmp_path, capsys, key, json_type):
    value = JSON_VALUES[json_type]
    code = tune(tmp_path, **{key: value})
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("usage error: bad run config: "), err
    if refused_key(key, value):
        assert code == 1
        assert err.startswith(f"usage error: bad run config: {key} "), err
