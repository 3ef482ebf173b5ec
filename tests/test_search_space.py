import random
from dataclasses import fields

import pytest
from helpers import trace_line
from hypothesis import given, settings
from hypothesis import strategies as st

from annealtune.annealer import StepRecord
from annealtune.cli import trace_jsonl
from annealtune.pareto import ArchiveAction, ObjectiveVector
from annealtune.search_space import (
    FINAL_ACCEPTANCE_PROBABILITY,
    ParamDomain,
    SearchSpace,
    default_search_space,
    enumerate_space,
    neighbor,
    parse_value,
    random_configuration,
    run_config_from_dict,
)


def toy_space(**domains):
    return SearchSpace(
        tuple(ParamDomain(name, tuple(values)) for name, values in domains.items())
    )


class TestDomains:
    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError):
            ParamDomain("a", (1, 1))

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            ParamDomain("a", ())

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="domain name must be non-empty"):
            ParamDomain("", (1,))

    def test_floats_become_decimal_strings(self):
        d = ParamDomain("lr", (0.1, 0.25))
        assert d.values == ("0.1", "0.25")

    def test_duplicate_domain_names_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace((ParamDomain("a", (1,)), ParamDomain("a", (2,))))

    def test_space_without_a_domain_rejected(self):
        with pytest.raises(ValueError, match="at least one domain"):
            SearchSpace(())


class TestDefaultSpace:
    def test_activation_domain_has_five_symbols(self):
        space = default_search_space()
        assert space.domain("activation").values == (
            "relu",
            "leaky_relu",
            "elu",
            "tanh",
            "linear",
        )

    def test_learning_rate_domain_has_ten_values(self):
        space = default_search_space()
        assert len(space.domain("learning_rate").values) == 10

    def test_cardinality_is_product_of_domain_sizes(self):
        space = default_search_space()
        product = 1
        for d in space.domains:
            product *= len(d.values)
        # 7*7*7*5*6*5*5*10*3
        assert product == 7_717_500
        assert space.cardinality() == product

    def test_three_separate_kernel_count_domains(self):
        space = default_search_space()
        for w in (3, 4, 5):
            assert space.domain(f"kernel_count_w{w}").values == (
                32,
                64,
                96,
                100,
                128,
                160,
                256,
            )


class TestRandomConfiguration:
    def test_singleton_space(self):
        space = toy_space(a=[1])
        config = random_configuration(space, random.Random(0))
        assert config.as_dict() == {"a": 1}

    def test_same_seed_same_draw(self):
        space = default_search_space()
        a = random_configuration(space, random.Random(40))
        b = random_configuration(space, random.Random(40))
        assert a == b

    def test_batch_size_frequencies_uniform(self):
        space = default_search_space()
        rng = random.Random(7)
        counts = {64: 0, 128: 0, 256: 0}
        n = 10_000
        for _ in range(n):
            counts[random_configuration(space, rng)["batch_size"]] += 1
        for value, count in counts.items():
            assert abs(count / n - 1 / 3) <= 0.02, (value, count)


class TestNeighbor:
    def test_single_mutable_domain_forced_move(self):
        space = toy_space(a=[1, 2], b=["x"])
        config = space.configuration({"a": 1, "b": "x"})
        assert neighbor(config, space, random.Random(0)).as_dict() == {
            "a": 2,
            "b": "x",
        }

    def test_hamming_distance_exactly_one(self):
        space = default_search_space()
        rng = random.Random(11)
        config = random_configuration(space, rng)
        for _ in range(200):
            other = neighbor(config, space, rng)
            diffs = sum(
                v1 != v2 for (_, v1), (_, v2) in zip(config.items, other.items)
            )
            assert diffs == 1
            assert space.configuration(other.as_dict()) == other
            config = other

    def test_replay_with_equal_seed_is_bit_equal(self):
        space = default_search_space()
        config = random_configuration(space, random.Random(1))
        a = neighbor(config, space, random.Random(99))
        b = neighbor(config, space, random.Random(99))
        assert a == b

    def test_domain_choice_frequencies_uniform(self):
        space = default_search_space()
        rng = random.Random(3)
        config = random_configuration(space, rng)
        counts = dict.fromkeys(space.names, 0)
        n = 10_000
        for _ in range(n):
            other = neighbor(config, space, rng)
            for (name, v1), (_, v2) in zip(config.items, other.items):
                if v1 != v2:
                    counts[name] += 1
        for name, count in counts.items():
            assert abs(count / n - 1 / 9) <= 0.02, (name, count)


class TestEnumerate:
    def test_two_by_two(self):
        space = toy_space(a=[1, 2], b=["x", "y"])
        configs = list(enumerate_space(space))
        assert [c.as_dict() for c in configs] == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_singleton(self):
        space = toy_space(a=[1])
        assert [c.as_dict() for c in enumerate_space(space)] == [{"a": 1}]

    def test_yields_cardinality_distinct_items(self):
        space = toy_space(a=[1, 2, 3], b=["x", "y"], c=[0, 5])
        configs = list(enumerate_space(space))
        assert len(configs) == space.cardinality() == 12
        assert len(set(configs)) == 12


@settings(max_examples=100)
@given(st.data())
def test_neighbor_always_valid_and_adjacent(data):
    space = toy_space(a=[1, 2, 3], b=["x", "y"], c=[0, 5, 9, 11])
    idx = [
        data.draw(st.integers(0, len(d.values) - 1), label=d.name)
        for d in space.domains
    ]
    config = space.configuration(
        {d.name: d.values[i] for d, i in zip(space.domains, idx)}
    )
    seed = data.draw(st.integers(0, 2**16))
    other = neighbor(config, space, random.Random(seed))
    assert space.configuration(other.as_dict()) == other
    assert sum(a != b for a, b in zip(config.items, other.items)) == 1


def assert_trace_writes(configs):
    """``cli.trace_jsonl``'s lines for steps from each configuration to the
    next: every line, configurations included, is what json.dumps writes."""
    objectives = ObjectiveVector(0.5, 7)
    records = [
        StepRecord(i, 0.5, current, objectives, candidate, objectives, 0.0, 1.0,
                   True, ArchiveAction.ADDED)
        for i, (current, candidate) in enumerate(zip(configs, configs[1:]), 1)
    ]
    assert [trace_jsonl(r) for r in records] == [trace_line(r) + "\n" for r in records]


#: text with JSON's escapes: quotes, backslashes, control characters and
#: non-ASCII letters, and anything else Hypothesis draws
ESCAPED = st.sampled_from('"\\\x00\x1f\n\t\x7f\u00e9\u2028\u4e2d')
JSON_TEXT = st.text(st.one_of(ESCAPED, st.characters()))
DOMAIN_VALUES = st.one_of(st.integers(-(10**18), 10**18), JSON_TEXT)


@settings(max_examples=150)
@given(st.data())
def test_to_json_is_json_dumps_of_as_dict(data):
    names = data.draw(st.lists(JSON_TEXT.filter(bool), min_size=1, max_size=4, unique=True))
    values = st.lists(DOMAIN_VALUES, min_size=1, max_size=4, unique=True)
    space = SearchSpace(tuple(ParamDomain(n, tuple(data.draw(values))) for n in names))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    config = random_configuration(space, rng)
    configs = [config]
    domain = data.draw(st.sampled_from(space.domains))
    configs.append(config.replace(domain.name, data.draw(st.sampled_from(domain.values))))
    if space.mutable:
        for _ in range(3):
            configs.append(neighbor(configs[-1], space, rng))
    assert_trace_writes(configs)


def test_to_json_of_spaces_sharing_a_domain_name():
    # the same name with int values in one space and their digit strings in
    # the other, in one trace: each configuration writes its own values
    ints = toy_space(a=[1, 2], b=[10**18])
    digits = toy_space(a=["1", "2"], b=[str(10**18)])
    rng = random.Random(3)
    configs = []
    for _ in range(20):
        for space in (ints, digits, ints):
            config = random_configuration(space, rng)
            configs += [config, neighbor(config, space, rng)]
    assert_trace_writes(configs)


def test_trace_of_distinct_configurations_with_equal_items():
    space = toy_space(a=[1, 2], b=["x", "y"])
    built = space.configuration({"a": 1, "b": "y"})
    replaced = space.configuration({"a": 1, "b": "x"}).replace("b", "y")
    assert built is not replaced and built == replaced
    assert_trace_writes([built, replaced, space.configuration({"a": 2, "b": "y"}), built])


class TestRestriction:
    def test_restrict_preserves_given_order(self):
        space = default_search_space()
        sub = space.restrict({"kernel_count_w3": [256, 32]})
        assert sub.domain("kernel_count_w3").values == (256, 32)
        assert sub.domain("batch_size").values == (64, 128, 256)

    def test_restrict_rejects_foreign_values(self):
        space = default_search_space()
        with pytest.raises(ValueError):
            space.restrict({"kernel_count_w3": [33]})
        with pytest.raises(ValueError):
            space.restrict({"no_such_domain": [1]})

    @pytest.mark.parametrize(
        "restriction",
        [{"fc_units": 16}, {"fc_units": "16"}, {"fc_units": (16, 32)},
         {"fc_units": {"16": 1}}, {"fc_units": None}, [["fc_units", [16]]], 5, None],
        ids=["int", "string", "tuple", "object", "null", "pairs", "number", "none"],
    )
    def test_restrict_rejects_what_is_not_a_mapping_of_lists(self, restriction):
        with pytest.raises(ValueError, match="restriction"):
            default_search_space().restrict(restriction)


class TestRunConfig:
    def base(self, **overrides):
        raw = {
            "seed_number": 40,
            "ratio_init": 0.9,
            "iteration_budget": 250,
            "initial_acceptance_probability": 0.5,
            "cooling_rate": 0.95,
            "objective_kind": "synthetic:sphere_proxy",
        }
        raw.update(overrides)
        return raw

    def test_unknown_key_is_a_load_error(self):
        with pytest.raises(ValueError, match="unknown"):
            run_config_from_dict(self.base(cooling="0.95"))

    def test_missing_key_is_a_load_error(self):
        raw = self.base()
        del raw["cooling_rate"]
        with pytest.raises(ValueError, match="missing"):
            run_config_from_dict(raw)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("iteration_budget", 0),
            ("cooling_rate", 1.0),
            ("cooling_rate", 0.0),
            ("initial_acceptance_probability", 1.0),
            ("ratio_init", 0.0),
            ("objective_kind", "nonsense"),
            ("probe_count", 1),
            ("max_epochs", 0),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            run_config_from_dict(self.base(**{field: value}))

    def test_space_restriction_must_keep_two_configs(self):
        singleton = {name: [default_search_space().domain(name).values[0]]
                     for name in default_search_space().names}
        with pytest.raises(ValueError, match="at least 2"):
            run_config_from_dict(self.base(space=singleton))

    def test_defaults(self):
        config = run_config_from_dict(self.base())
        assert FINAL_ACCEPTANCE_PROBABILITY == 0.0357
        assert len(fields(config)) == 10
        assert config.probe_count == 20
        assert config.max_epochs == 20
        assert config.space.cardinality() == 7_717_500


class TestParseValue:
    def test_resolves_ints_strings_and_symbols(self):
        space = default_search_space()
        assert parse_value(space.domain("batch_size"), "64") == 64
        assert parse_value(space.domain("conv_dropout"), "0.3") == "0.3"
        assert parse_value(space.domain("activation"), "tanh") == "tanh"

    def test_unknown_text_rejected(self):
        with pytest.raises(ValueError):
            parse_value(default_search_space().domain("batch_size"), "65")


def test_configuration_membership_enforced():
    space = toy_space(a=[1, 2])
    with pytest.raises(ValueError):
        space.configuration({"a": 3})
    with pytest.raises(ValueError):
        space.configuration({})
    with pytest.raises(ValueError):
        space.configuration({"a": 1, "b": 2})
    config = space.configuration({"a": 2})
    assert space.configuration(config.as_dict()) == config
    with pytest.raises(KeyError):
        config.replace("b", 1)
