import errno
import io
import os
import random
from dataclasses import replace

import pytest
from helpers import (
    holdout_splits,
    make_run_config,
    needs_numpy,
    open_refusing_reads,
    text_cnn_run_config,
)

import annealtune.evaluator as evaluator_module
from annealtune import cli
from annealtune.corpus import LabeledSentence, synthetic_corpus
from annealtune.evaluator import (
    EMBEDDING_DIM,
    SYNTHETIC_CLASS_COUNT,
    SYNTHETIC_SENTENCE_LENGTH,
    EvaluationCache,
    SyntheticEvaluator,
    TextCnnEvaluator,
    early_termination_check,
    estimate_flops,
    flops_ceiling,
)
from annealtune.search_space import (
    SYNTHETIC_NAMES,
    SYNTHETIC_PREFIX,
    ParamDomain,
    SearchSpace,
    default_search_space,
    enumerate_space,
)

# frozen from an independent per-layer multiply/add count:
# conv w3: 100*8*300, w4: 64*7*400, w5: 32*6*500; fc: 2*196*64 + 2*64*6
TOP1_CONV = (240_000, 179_200, 96_000)
TOP1_FC = 25_856
TOP1_TOTAL = 541_056


def full_config(**overrides):
    space = default_search_space()
    assignments = {
        "kernel_count_w3": 100,
        "kernel_count_w4": 64,
        "kernel_count_w5": 32,
        "conv_dropout": "0.4",
        "fc_units": 64,
        "fc_dropout": "0.4",
        "activation": "tanh",
        "learning_rate": "0.002",
        "batch_size": 64,
    }
    assignments.update(overrides)
    return space.configuration(assignments)


class TestEstimateFlops:
    def test_frozen_hand_count(self):
        breakdown = estimate_flops(
            full_config(), sentence_length=10, embedding_dim=50, class_count=6
        )
        assert breakdown.conv_flops == TOP1_CONV
        assert breakdown.fc_flops == TOP1_FC
        assert breakdown.total == TOP1_TOTAL

    def test_single_window_dot_product_costs_two_n(self):
        # window of height n with one filter and k=1 is one length-n dot
        # product per forward: n multiplies + n adds
        config = full_config(kernel_count_w5=32)
        breakdown = estimate_flops(
            config, sentence_length=5, embedding_dim=1, class_count=2
        )
        per_filter = breakdown.conv_flops[2] // 32
        assert per_filter == 2 * 5

    def test_doubling_filters_doubles_conv_flops(self):
        a = estimate_flops(
            full_config(
                kernel_count_w3=32, kernel_count_w4=32, kernel_count_w5=32
            ),
            10,
            50,
            6,
        )
        b = estimate_flops(
            full_config(
                kernel_count_w3=64, kernel_count_w4=64, kernel_count_w5=64
            ),
            10,
            50,
            6,
        )
        assert b.conv_flops == tuple(2 * c for c in a.conv_flops)

    def test_monotone_in_counts(self):
        base = estimate_flops(full_config(), 10, 50, 6).total
        for name, bigger in [
            ("kernel_count_w3", 128),
            ("kernel_count_w4", 128),
            ("kernel_count_w5", 128),
            ("fc_units", 256),
        ]:
            grown = estimate_flops(full_config(**{name: bigger}), 10, 50, 6).total
            assert grown > base, name

    def test_window_longer_than_sentence_rejected(self):
        with pytest.raises(ValueError, match="window"):
            estimate_flops(full_config(), sentence_length=4, embedding_dim=50,
                           class_count=6)

    def test_plain_mapping_of_the_shape_keys_accepted(self):
        # bench/tracer.py passes a model's shape as a dict
        config = full_config()
        shape = {
            name: config[name]
            for name in ("kernel_count_w3", "kernel_count_w4", "kernel_count_w5", "fc_units")
        }
        assert estimate_flops(shape, 10, 50, 6) == estimate_flops(config, 10, 50, 6)


class TestFlopsCeiling:
    def test_ceiling_attained_by_enumeration(self):
        space = default_search_space().restrict(
            {
                "kernel_count_w3": [32, 100, 256],
                "kernel_count_w4": [32, 64],
                "kernel_count_w5": [32],
                "conv_dropout": ["0.1"],
                "fc_units": [16, 512],
                "fc_dropout": ["0.1"],
                "activation": ["relu"],
                "learning_rate": ["0.001"],
                "batch_size": [64],
            }
        )
        ceiling = flops_ceiling(
            space,
            SYNTHETIC_SENTENCE_LENGTH,
            EMBEDDING_DIM,
            SYNTHETIC_CLASS_COUNT,
        )
        totals = [
            estimate_flops(
                c,
                SYNTHETIC_SENTENCE_LENGTH,
                EMBEDDING_DIM,
                SYNTHETIC_CLASS_COUNT,
            ).total
            for c in enumerate_space(space)
        ]
        assert ceiling == max(totals)


def all_index_config(space, index):
    assignments = {}
    for d in space.domains:
        assignments[d.name] = d.values[index if index >= 0 else len(d.values) - 1]
    return space.configuration(assignments)


def synthetic_evaluator(space, name) -> SyntheticEvaluator:
    return SyntheticEvaluator(
        make_run_config(space, objective_kind=SYNTHETIC_PREFIX + name)
    )


class TestSynthetic:
    def test_sphere_extremes(self):
        space = default_search_space()
        evaluator = synthetic_evaluator(space, "sphere_proxy")
        first = evaluator.evaluate(all_index_config(space, 0))
        last = evaluator.evaluate(all_index_config(space, -1))
        assert first.error_rate == 0.0
        assert last.error_rate == 1.0

    def test_sphere_flops_comes_from_estimator(self):
        space = default_search_space()
        config = all_index_config(space, 0)
        expected = estimate_flops(
            config,
            SYNTHETIC_SENTENCE_LENGTH,
            EMBEDDING_DIM,
            SYNTHETIC_CLASS_COUNT,
        ).total
        evaluator = synthetic_evaluator(space, "sphere_proxy")
        assert evaluator.evaluate(config).flops == expected

    def test_trap_has_deceptive_shape(self):
        space = default_search_space().restrict(
            {
                "kernel_count_w3": [32, 64, 96, 100, 128, 160, 256],
            }
        )
        evaluator = synthetic_evaluator(space, "deceptive_trap")
        at_first = evaluator.evaluate(all_index_config(space, 0))
        at_last = evaluator.evaluate(all_index_config(space, -1))
        assert at_last.error_rate == 0.05  # narrow global optimum
        assert at_first.error_rate == pytest.approx(0.25)  # wide local optimum
        # the slope between them points away from the global optimum
        mid = space.configuration(
            {
                d.name: (d.values[len(d.values) // 2])
                for d in space.domains
            }
        )
        mid_error = evaluator.evaluate(mid).error_rate
        assert 0.25 < mid_error < 0.75

    def test_text_cnn_run_config_refused(self):
        with pytest.raises(ValueError, match="'textcnn' is not a synthetic objective"):
            SyntheticEvaluator(text_cnn_run_config(default_search_space()))

    def test_pure_function(self):
        space = default_search_space()
        evaluator = synthetic_evaluator(space, "sphere_proxy")
        config = all_index_config(space, 2)
        assert evaluator.evaluate(config) == evaluator.evaluate(config)

    def test_bounds_hold_everywhere_on_small_space(self):
        space = default_search_space().restrict(
            {
                "kernel_count_w3": [32, 256],
                "kernel_count_w4": [32],
                "kernel_count_w5": [32],
                "conv_dropout": ["0.1", "0.5"],
                "fc_units": [16, 512],
                "fc_dropout": ["0.1"],
                "activation": ["relu", "tanh"],
                "learning_rate": ["0.001"],
                "batch_size": [64],
            }
        )
        for name in ("sphere_proxy", "deceptive_trap"):
            evaluator = synthetic_evaluator(space, name)
            for config in enumerate_space(space):
                objectives = evaluator.evaluate(config)
                assert 0.0 <= objectives.error_rate <= 1.0
                assert 0 <= objectives.flops <= evaluator.flops_max

    @pytest.mark.parametrize("name", SYNTHETIC_NAMES)
    def test_flops_cached_per_shape_equal_the_estimate(self, name):
        # 32 configurations over 8 network shapes, each shape met 4 times
        space = default_search_space().restrict(
            {
                "kernel_count_w3": [32, 256],
                "kernel_count_w4": [64, 32],
                "kernel_count_w5": [96],
                "conv_dropout": ["0.1", "0.5"],
                "fc_units": [512, 16],
                "fc_dropout": ["0.1"],
                "activation": ["relu", "tanh"],
                "learning_rate": ["0.001"],
                "batch_size": [64],
            }
        )
        evaluator = synthetic_evaluator(space, name)
        for _ in range(2):  # the second pass reads every shape from the cache
            for config in enumerate_space(space):
                expected = estimate_flops(
                    config,
                    SYNTHETIC_SENTENCE_LENGTH,
                    EMBEDDING_DIM,
                    SYNTHETIC_CLASS_COUNT,
                ).total
                assert evaluator.evaluate(config).flops == expected


def stops(history):
    """early_termination_check on two classes."""
    return early_termination_check(history, 2)


class TestEarlyTermination:
    def test_above_chance_continues(self):
        assert stops([0.90]) is False

    def test_first_epoch_below_chance_margin_stops(self):
        assert stops([0.51]) is True

    def test_three_stale_epochs_stop(self):
        history = [0.6, 0.7, 0.7, 0.69, 0.70]
        # traced by hand: streak reaches 3 only at the last entry
        for upto in range(2, 5):
            assert stops(history[:upto]) is False
        assert stops(history) is True


class TestEvaluationCache:
    def test_memory_round_trip(self):
        from annealtune.pareto import ObjectiveVector

        cache = EvaluationCache()
        assert cache.get("a") is None
        cache.put("a", ObjectiveVector(0.25, 1000))
        assert cache.get("a") == ObjectiveVector(0.25, 1000)
        assert cache.get("b") is None

    def test_disk_persistence(self, tmp_path):
        from annealtune.pareto import ObjectiveVector

        path = str(tmp_path / "cache.jsonl")
        cache = EvaluationCache(path)
        cache.put("a", ObjectiveVector(0.125, 777))
        reloaded = EvaluationCache(path)
        assert reloaded.get("a") == ObjectiveVector(0.125, 777)

    def test_record_torn_by_an_interruption_is_dropped(self, tmp_path):
        from annealtune.pareto import ObjectiveVector

        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(str(path))
        cache.put("a", ObjectiveVector(0.125, 777))
        cache.put("b", ObjectiveVector(0.25, 888))
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 20])  # cut "b" mid-record
        reloaded = EvaluationCache(str(path))
        assert reloaded.get("a") == ObjectiveVector(0.125, 777)
        assert reloaded.get("b") is None
        # the torn line is gone, so the next append starts a fresh line
        reloaded.put("c", ObjectiveVector(0.5, 999))
        again = EvaluationCache(str(path))
        assert again.get("a") == ObjectiveVector(0.125, 777)
        assert again.get("c") == ObjectiveVector(0.5, 999)

    def test_malformed_line_before_the_last_is_a_data_error(self, tmp_path):
        from annealtune.corpus import DataError
        from annealtune.pareto import ObjectiveVector

        path = tmp_path / "cache.jsonl"
        EvaluationCache(str(path)).put("a", ObjectiveVector(0.125, 777))
        path.write_text("not json\n" + path.read_text())
        with pytest.raises(DataError, match=":1: malformed"):
            EvaluationCache(str(path))

    @pytest.mark.parametrize(
        "objectives",
        ['"error_rate": "0.5", "flops": 7', '"error_rate": true, "flops": 7',
         '"error_rate": 0.5, "flops": 1.9', '"error_rate": 0.5, "flops": "7"',
         '"error_rate": 0.5, "flops": false',
         # an integer JSON reads that no float holds
         '"error_rate": 1' + "0" * 400 + ', "flops": 7'],
        ids=["rate-text", "rate-bool", "flops-fraction", "flops-text", "flops-bool",
             "rate-beyond-float"],
    )
    def test_objective_of_a_wrong_json_type_is_a_data_error(self, tmp_path, objectives):
        from annealtune.corpus import DataError

        path = tmp_path / "cache.jsonl"
        # a good line after the bad one: a malformed last line is dropped as torn
        path.write_text(
            f'{{"key": "a", {objectives}}}\n{{"key": "b", "error_rate": 0.5, "flops": 7}}\n'
        )
        with pytest.raises(DataError, match=":1: malformed"):
            EvaluationCache(str(path))

    def test_failed_append_is_a_data_error(self, tmp_path):
        from annealtune.corpus import DataError
        from annealtune.pareto import ObjectiveVector

        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(str(path))
        path.unlink()
        path.mkdir()  # the opened path turns into a directory
        with pytest.raises(DataError) as raised:
            cache.put("a", ObjectiveVector(0.125, 777))
        assert str(raised.value) == f"evaluation cache {path}: Is a directory"

    def test_blank_lines_are_skipped(self, tmp_path):
        from annealtune.pareto import ObjectiveVector

        path = tmp_path / "cache.jsonl"
        path.write_text(
            '\n{"key": "a", "error_rate": 0.5, "flops": 7}\n \t\n'
            '{"key": "b", "error_rate": 0.25, "flops": 8}\n\n'
        )
        whole = path.read_bytes()
        cache = EvaluationCache(str(path))
        assert cache.get("a") == ObjectiveVector(0.5, 7)
        assert cache.get("b") == ObjectiveVector(0.25, 8)
        assert path.read_bytes() == whole

    def test_unreadable_file_is_a_data_error(self, tmp_path, monkeypatch):
        from annealtune.corpus import DataError

        path = tmp_path / "cache.jsonl"
        path.write_text('{"key": "a", "error_rate": 0.5, "flops": 7}\n')
        monkeypatch.setattr(evaluator_module, "open", open_refusing_reads, raising=False)
        with pytest.raises(DataError) as raised:
            EvaluationCache(str(path))
        assert str(raised.value) == f"evaluation cache {path}: Permission denied"

    def test_failed_truncation_of_a_torn_line_is_a_data_error(
        self, tmp_path, monkeypatch
    ):
        from annealtune.corpus import DataError

        class Untruncatable(io.BufferedRandom):
            def truncate(self, pos=None):
                raise OSError(errno.EIO, os.strerror(errno.EIO))

        def open_untruncatable(file, mode="r", *args, **kwargs):
            if mode == "a+b":
                return Untruncatable(io.FileIO(file, "a+"))
            return open(file, mode, *args, **kwargs)

        path = tmp_path / "cache.jsonl"
        path.write_text('{"key": "a", "error_rate": 0.5, "flops": 7}\n{"key": "b"')
        monkeypatch.setattr(evaluator_module, "open", open_untruncatable, raising=False)
        with pytest.raises(DataError) as raised:
            EvaluationCache(str(path))
        assert str(raised.value) == f"evaluation cache {path}: {os.strerror(errno.EIO)}"

    def test_integral_error_rate_is_a_number(self, tmp_path):
        from annealtune.pareto import ObjectiveVector

        path = tmp_path / "cache.jsonl"
        path.write_text('{"key": "a", "error_rate": 1, "flops": 7}\n')
        cached = EvaluationCache(str(path)).get("a")
        assert cached == ObjectiveVector(1.0, 7)
        assert type(cached.error_rate) is float  # the declared type


def small_textcnn_space(**overrides):
    values = {
        "kernel_count_w3": (8,),
        "kernel_count_w4": (8,),
        "kernel_count_w5": (8,),
        "conv_dropout": ("0.1",),
        "fc_units": (16,),
        "fc_dropout": ("0.1",),
        "activation": ("relu",),
        "learning_rate": ("0.01", "0.004"),
        "batch_size": (64,),
    }
    values.update(overrides)
    return SearchSpace(
        tuple(ParamDomain(name, vals) for name, vals in values.items())
    )


def small_corpus(seed=40, class_count=2, samples_per_class=50):
    data = synthetic_corpus(class_count, samples_per_class, 40, seed=seed)
    return holdout_splits(data, 0.2, ratio_init=0.9, seed=seed)


@needs_numpy
class TestTextCnnEvaluator:
    def test_repeated_request_hits_cache(self):
        corpus = small_corpus()
        space = small_textcnn_space()
        evaluator = TextCnnEvaluator(text_cnn_run_config(space, max_epochs=10), corpus)
        config = space.configuration({d.name: d.values[0] for d in space.domains})
        first = evaluator.evaluate(config)
        second = evaluator.evaluate(config)
        assert first == second
        assert evaluator.trainings == 1

    def test_trainings_bounded_by_distinct_configs(self):
        corpus = small_corpus()
        space = small_textcnn_space()
        evaluator = TextCnnEvaluator(text_cnn_run_config(space, max_epochs=5), corpus)
        configs = list(enumerate_space(space))
        for config in configs * 3:
            evaluator.evaluate(config)
        assert evaluator.trainings <= len(configs)

    def test_separable_corpus_reaches_low_error(self):
        # separability verified by the bag-of-words perceptron oracle in
        # the corpus tests; the network should match it within 20 epochs
        corpus = small_corpus()
        space = small_textcnn_space()
        evaluator = TextCnnEvaluator(text_cnn_run_config(space, max_epochs=20), corpus)
        config = space.configuration({d.name: d.values[0] for d in space.domains})
        objectives = evaluator.evaluate(config)
        assert objectives.error_rate <= 0.05

    def test_flops_reported_from_estimator(self):
        corpus = small_corpus()
        space = small_textcnn_space()
        evaluator = TextCnnEvaluator(text_cnn_run_config(space, max_epochs=2), corpus)
        config = space.configuration({d.name: d.values[0] for d in space.domains})
        objectives = evaluator.evaluate(config)
        expected = estimate_flops(
            config,
            corpus.sentence_length,
            EMBEDDING_DIM,
            corpus.class_count,
        ).total
        assert objectives.flops == expected

    def test_shuffled_labels_sit_at_chance(self):
        seed = 41
        data = synthetic_corpus(2, 500, 40, seed=seed)
        labels = [s.label for s in data]
        random.Random(seed + 1).shuffle(labels)
        shuffled = [
            LabeledSentence(s.tokens, l) for s, l in zip(data, labels)
        ]
        corpus = holdout_splits(shuffled, 0.0, ratio_init=0.9, seed=seed)
        space = small_textcnn_space()
        evaluator = TextCnnEvaluator(
            text_cnn_run_config(space, seed_number=seed, max_epochs=5), corpus
        )
        config = space.configuration({d.name: d.values[0] for d in space.domains})
        objectives = evaluator.evaluate(config)
        assert abs(objectives.error_rate - 0.5) <= 0.05

    def test_request_seed_reproducible(self):
        corpus = small_corpus()
        space = small_textcnn_space()
        config = space.configuration({d.name: d.values[0] for d in space.domains})
        run_config = text_cnn_run_config(space, max_epochs=5)
        results = []
        for _ in range(2):
            evaluator = TextCnnEvaluator(run_config, corpus)
            results.append(evaluator.evaluate(config))
        assert results[0] == results[1]

    def test_cache_key_covers_seed_corpus_and_training_settings(
        self, tmp_path, monkeypatch
    ):
        space = small_textcnn_space()
        config = space.configuration({d.name: d.values[0] for d in space.domains})
        cache = EvaluationCache(str(tmp_path / "cache.jsonl"))
        run_config, corpus = text_cnn_run_config(space, max_epochs=1), small_corpus()
        TextCnnEvaluator(run_config, corpus, cache).evaluate(config)
        evaluators = [
            TextCnnEvaluator(replace(run_config, **{name: value}), corpus, cache)
            for name, value in {"seed_number": 41, "max_epochs": 8}.items()
        ]
        evaluators.append(TextCnnEvaluator(run_config, small_corpus(seed=41), cache))
        for evaluator in evaluators:
            evaluator.evaluate(config)
            assert evaluator.trainings == 1, evaluator.run_config
        # a later edit of a training constant is not answered from the cache
        constants = {"EMBEDDING_DIM": 49, "EARLY_STOP_MARGIN": 0.0,
                     "EARLY_STOP_PATIENCE": 4}
        for name, value in constants.items():
            with monkeypatch.context() as patched:
                patched.setattr(evaluator_module, name, value)
                evaluator = TextCnnEvaluator(run_config, corpus, cache)
                evaluator.evaluate(config)
            assert evaluator.trainings == 1, name
        again = TextCnnEvaluator(run_config, corpus, cache)
        again.evaluate(config)
        assert again.trainings == 0

    @pytest.mark.parametrize("name", SYNTHETIC_NAMES)
    def test_synthetic_run_config_refused(self, name):
        run_config = make_run_config(
            small_textcnn_space(), objective_kind=SYNTHETIC_PREFIX + name
        )
        with pytest.raises(ValueError, match=f"'{SYNTHETIC_PREFIX}{name}' is not textcnn"):
            TextCnnEvaluator(run_config, small_corpus())

    def test_trains_with_settings_from_configuration_and_run_config(
        self, monkeypatch
    ):
        from annealtune import textcnn

        trained, train = [], textcnn.train

        def recorded(*args, **kwargs):
            trained.append(args[5])
            return train(*args, **kwargs)

        monkeypatch.setattr(textcnn, "train", recorded)
        space = small_textcnn_space()
        config = space.configuration({d.name: d.values[-1] for d in space.domains})
        run_config = text_cnn_run_config(space, max_epochs=2)
        TextCnnEvaluator(run_config, small_corpus()).evaluate(config)
        [settings] = trained
        assert settings.learning_rate == 0.004
        assert settings.batch_size == 64
        assert settings.max_epochs == 2


@pytest.mark.parametrize(
    "kind", [pytest.param("textcnn", marks=needs_numpy),
             *(SYNTHETIC_PREFIX + name for name in SYNTHETIC_NAMES)]
)
def test_build_evaluator_takes_the_run_config_whole(kind):
    config = make_run_config(small_textcnn_space(), objective_kind=kind)
    evaluator = cli.build_evaluator(config)
    assert evaluator.run_config is config
    assert evaluator.space is config.space
