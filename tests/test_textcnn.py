import math
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

import reference_textcnn as reference
from helpers import finite_difference_gradients, holdout_splits, relative_error

from annealtune.corpus import synthetic_corpus
from annealtune.search_space import ParamDomain, SearchSpace, default_search_space
from annealtune.textcnn import (
    ACTIVATIONS,
    EVAL_BATCH,
    DivergenceError,
    TextCnnModel,
    TrainingSettings,
    _scatter_add,
    accuracy,
    backward,
    forward,
    init_model,
    loss,
    rmsprop_update,
    softmax,
    train,
    xavier_uniform,
)

VOCAB, DIM, LENGTH, CLASSES = 20, 6, 8, 3


def tiny_space(activation="tanh", conv_dropout="0.2", fc_dropout="0.2"):
    return SearchSpace(
        (
            ParamDomain("kernel_count_w3", (2,)),
            ParamDomain("kernel_count_w4", (2,)),
            ParamDomain("kernel_count_w5", (2,)),
            ParamDomain("conv_dropout", (conv_dropout,)),
            ParamDomain("fc_units", (4,)),
            ParamDomain("fc_dropout", (fc_dropout,)),
            ParamDomain("activation", (activation,)),
        )
    )


def tiny_model(activation="tanh", seed=12, **space_kwargs):
    space = tiny_space(activation=activation, **space_kwargs)
    config = space.configuration({d.name: d.values[0] for d in space.domains})
    rng = np.random.default_rng(seed)
    return init_model(config, VOCAB, DIM, CLASSES, rng)


POOLING_CASES = ["relu-ties-at-zero", "tanh-ties-at-one", "nan-filter", "nan-token"]


def pooling_case(case):
    """A zero-dropout model, and 200 sentences with labels, on which a max
    and a gather at the argmax could part: ties and NaN."""
    activation = "relu" if case in ("relu-ties-at-zero", "nan-filter") else "tanh"
    model = tiny_model(activation=activation, conv_dropout="0.0", fc_dropout="0.0")
    if case == "relu-ties-at-zero":  # every pre-activation negative
        for w in (3, 4, 5):
            model.conv_bias[w][:] = -100.0
    elif case == "tanh-ties-at-one":  # one saturated filter per window
        for w in (3, 4, 5):
            model.conv_bias[w][0] = 50.0
    elif case == "nan-filter":  # NaN at every position of one filter
        model.conv_bias[4][1] = np.nan
    else:  # NaN at the positions covering one token, finite elsewhere
        model.embedding[7] = np.nan
    rng = np.random.default_rng(6)
    ids = rng.integers(0, VOCAB, size=(200, LENGTH))
    return model, ids, rng.integers(0, CLASSES, size=200)


class TestInit:
    def test_xavier_bound_for_symmetric_fans(self):
        rng = np.random.default_rng(0)
        samples = xavier_uniform(rng, 3, 3, (10_000,))
        assert np.all(np.abs(samples) <= 1.0)
        assert np.abs(samples).max() > 0.99  # actually fills the range

    def test_xavier_variance_close_to_uniform_law(self):
        rng = np.random.default_rng(1)
        fan_in, fan_out = 50, 30
        bound = math.sqrt(6 / (fan_in + fan_out))
        samples = xavier_uniform(rng, fan_in, fan_out, (100, 100))
        assert samples.var() == pytest.approx(bound**2 / 3, rel=0.1)

    def test_same_seed_identical_parameters(self):
        a, b = tiny_model(seed=7), tiny_model(seed=7)
        for (name, pa), (_, pb) in zip(
            a.parameters().items(), b.parameters().items()
        ):
            assert np.array_equal(pa, pb), name

    def test_biases_zero_and_embedding_range(self):
        model = tiny_model()
        assert np.all(model.b1 == 0) and np.all(model.b2 == 0)
        for w in (3, 4, 5):
            assert np.all(model.conv_bias[w] == 0)
        assert np.all(np.abs(model.embedding) <= 0.25)

    def test_activation_domain_is_the_activation_table(self):
        # init_model takes the activation unchecked: its domain is the judge
        values = default_search_space().domain("activation").values
        assert sorted(values) == sorted(ACTIVATIONS)


class TestForward:
    def test_all_zero_weights_give_uniform_probabilities(self):
        model = tiny_model()
        for arr in model.parameters().values():
            arr[...] = 0.0
        probs, _ = forward(model, np.arange(2 * LENGTH).reshape(2, LENGTH))
        assert np.allclose(probs, 1.0 / CLASSES, atol=1e-12)

    def test_eval_mode_is_deterministic(self):
        model = tiny_model()
        ids = np.array([[1, 3, 5, 7, 2, 4, 6, 0], [0, 0, 9, 9, 1, 2, 3, 4]])
        p1, _ = forward(model, ids)
        p2, _ = forward(model, ids)
        assert np.array_equal(p1, p2)

    def test_probabilities_on_simplex(self):
        model = tiny_model(activation="elu")
        rng = np.random.default_rng(3)
        probs, _ = forward(model, rng.integers(0, VOCAB, size=(50, LENGTH)))
        assert probs.shape == (50, CLASSES)
        assert np.all(probs >= 0)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)

    def test_out_of_vocabulary_id_rejected(self):
        model = tiny_model()
        ids = np.array([[0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 4, 5, 6, VOCAB]])
        with pytest.raises(ValueError, match="vocabulary"):
            forward(model, ids)

    def test_short_sentence_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="shorter"):
            forward(model, np.array([[0, 1, 2, 3], [4, 5, 6, 7]]))

    def test_one_sentence_vector_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="matrix"):
            forward(model, np.arange(LENGTH))

    def test_train_mode_without_rng_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="rng"):
            forward(model, np.arange(2 * LENGTH).reshape(2, LENGTH), train_mode=True)

    def test_single_filter_hand_computation(self):
        # n=4, k=2, window height 3: two positions, linear activation.
        # position 0 covers rows 0..2, position 1 covers rows 1..3.
        embedding = np.array(
            [[1.0, 0.0], [0.0, 1.0], [2.0, -1.0], [1.0, 1.0]]
        )
        filt = np.array([[1.0, 2.0], [0.5, 0.0], [1.0, 1.0]])  # (3, 2)
        model = TextCnnModel(
            embedding=embedding,
            # the second filter negates the first, so its max is position 0
            conv_filters={3: np.stack([filt, -filt])},
            conv_bias={3: np.array([0.25, -0.25])},
            w1=np.ones((2, 1)),
            b1=np.zeros(1),
            w2=np.ones((1, 2)),
            b2=np.zeros(2),
            conv_dropout=0.0,
            fc_dropout=0.0,
            activation="linear",
        )
        # pos0: 1*1 + 0*2 + 0*0.5 + 1*0 + 2*1 + (-1)*1 + 0.25 = 2.25
        # pos1: 0*1 + 1*2 + 2*0.5 + (-1)*0 + 1*1 + 1*1 + 0.25 = 5.25
        # eval passes keep no positions; at zero dropout every mask is one
        _, cache = forward(
            model, np.array([[0, 1, 2, 3]]), train_mode=True,
            rng=np.random.default_rng(0),
        )
        assert np.array_equal(cache["mask_h"], [[1.0, 1.0]])
        assert cache["pooled_pre"][3][0] == pytest.approx([5.25, -2.25])
        assert list(cache["argmax"][3][0]) == [1, 0]  # max over time


class TestLoss:
    def test_perfect_prediction(self):
        assert loss(np.array([[0.0, 1.0, 0.0]]), np.array([1])) == 0.0

    def test_uniform_over_six_classes(self):
        probs = np.full((1, 6), 1 / 6)
        assert loss(probs, np.array([4])) == pytest.approx(math.log(6), abs=1e-12)

    def test_batch_mean_over_correct_one_hots_is_zero(self):
        assert loss(np.eye(4), np.arange(4)) == 0.0

    def test_clamped_away_from_log_zero(self):
        assert np.isfinite(loss(np.array([[1.0, 0.0]]), np.array([1])))

    def test_sums_the_rows(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        assert loss(probs, np.array([0, 1])) == pytest.approx(
            math.log(2) + math.log(4 / 3), abs=1e-12
        )


#: three sentences whose ids repeat within and across rows, so the
#: embedding gradient's scatter-add sums several rows into one
REPEATING_IDS = np.array(
    [[3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8], [1, 1, 1, 3, 3, 3, 0, 19]]
)
REPEATING_LABELS = np.array([2, 0, 2])


def kink_free_model(activation):
    model = tiny_model(activation=activation, seed=12)
    # keep pre-activations away from the relu-family kink at zero
    for w in (3, 4, 5):
        model.conv_bias[w] += 0.05
    model.b1 += 0.05
    return model


class TestBackward:
    @pytest.mark.parametrize(
        "activation", ["relu", "leaky_relu", "elu", "tanh", "linear"]
    )
    def test_gradients_match_finite_differences(self, activation):
        model = kink_free_model(activation)
        mask_seed = 99
        rng = np.random.default_rng(mask_seed)
        _, cache = forward(model, REPEATING_IDS, train_mode=True, rng=rng)
        analytic = backward(model, cache, REPEATING_LABELS)
        numeric = finite_difference_gradients(
            model, REPEATING_IDS, REPEATING_LABELS, mask_seed
        )
        for name in analytic:
            err = relative_error(analytic[name], numeric[name])
            assert err < 1e-4, (name, err)

    def test_softmax_layer_gradient_identity(self):
        model = tiny_model()
        rng = np.random.default_rng(5)
        ids = np.arange(2 * LENGTH).reshape(2, LENGTH)
        probs, cache = forward(model, ids, train_mode=True, rng=rng)
        grads = backward(model, cache, np.array([1, 2]))
        onehot = np.eye(CLASSES)[[1, 2]]
        assert np.allclose(grads["b2"], (probs - onehot).sum(axis=0), atol=1e-12)

    def test_only_argmax_windows_touch_the_embedding(self):
        model = tiny_model(conv_dropout="0.0", fc_dropout="0.0")
        # distinct tokens, one embedding row per (sentence, position)
        ids = np.arange(2 * LENGTH).reshape(2, LENGTH)
        rng = np.random.default_rng(8)
        _, cache = forward(model, ids, train_mode=True, rng=rng)
        grads = backward(model, cache, np.array([0, 1]))
        for b in range(len(ids)):
            covered = set()
            for w in (3, 4, 5):
                for pos in cache["argmax"][w][b]:
                    covered.update(range(pos, pos + w))
            for row in range(LENGTH):
                row_grad = grads["embedding"][ids[b, row]]
                if row not in covered:
                    assert np.all(row_grad == 0.0), (b, row)


class TestAccuracyInSlices:
    @pytest.mark.parametrize("count", [1, EVAL_BATCH, 3 * EVAL_BATCH + 8])
    def test_equals_one_batch_pass(self, count):
        model = tiny_model(activation="relu")
        rng = np.random.default_rng(count)
        ids = rng.integers(0, VOCAB, size=(count, LENGTH))
        labels = rng.integers(0, CLASSES, size=count)
        probs, _ = forward(model, ids)
        assert accuracy(model, ids, labels) == float(
            np.mean(probs.argmax(axis=1) == labels)
        )

    def test_peak_memory_bounded_on_a_large_split(self):
        # about one MR cross-validation fold; one pass over all 960
        # sentences peaked at 174 MB, slices of EVAL_BATCH at 13 MB
        space = default_search_space()
        config = space.configuration(
            {d.name: d.values[0] for d in space.domains}
            | {f"kernel_count_w{w}": 100 for w in (3, 4, 5)}
        )
        model = init_model(config, 5000, 50, 2, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 5000, size=(960, 40))
        labels = rng.integers(0, 2, size=960)
        tracemalloc.start()
        try:
            accuracy(model, ids, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


class TestBatchedEqualsPerSentence:
    """The batched passes against the per-sentence reference they replaced."""

    @pytest.mark.parametrize(
        "activation", ["relu", "leaky_relu", "elu", "tanh", "linear"]
    )
    def test_gradients_equal_summed_reference(self, activation):
        model = kink_free_model(activation)
        probs, cache = forward(
            model, REPEATING_IDS, train_mode=True, rng=np.random.default_rng(31)
        )
        grads = backward(model, cache, REPEATING_LABELS)
        rng = np.random.default_rng(31)  # one stream, drawn sentence by sentence
        expected = {name: np.zeros_like(arr) for name, arr in grads.items()}
        for b, (ids, label) in enumerate(zip(REPEATING_IDS, REPEATING_LABELS)):
            ref_probs, ref_cache = reference.forward(model, ids, True, rng)
            assert np.array_equal(cache["mask_h"][b], ref_cache["mask_h"])
            assert np.array_equal(cache["mask_fc"][b], ref_cache["mask_fc"])
            assert np.allclose(probs[b], ref_probs, rtol=0, atol=1e-12)
            for name, g in reference.backward(model, ref_cache, int(label)).items():
                expected[name] += g
        assert grads.keys() == expected.keys()
        for name in grads:
            assert np.allclose(grads[name], expected[name], rtol=0, atol=1e-10), name

    def test_embedding_scatter_equals_add_at_bit_for_bit(self):
        # the np.add.at scatter backward used and the reference still uses
        rng = np.random.default_rng(8)
        cases = [(np.array([[3, 1, 3, 3], [0, 3, 5, 0]]), 6, 6)]  # 2 and 4 untouched
        cases += [
            (rng.integers(0, vocab, size=(int(rng.integers(1, 5)), 7)), vocab, 4)
            for vocab in (1, 2, 9, 30)
        ]
        for ids, vocab, k in cases:
            rows = rng.standard_normal((*ids.shape, k))
            rows[rng.random(rows.shape) < 0.3] = -0.0
            rows[ids == ids.flat[-1]] = -0.0  # a row summed from -0.0 alone
            expected = np.zeros((vocab, k))
            np.add.at(expected, ids.ravel(), rows.reshape(-1, k))
            got = _scatter_add(ids, rows, (vocab, k))
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_eval_predictions_identical(self, activation):
        model = tiny_model(activation=activation)
        rng = np.random.default_rng(4)
        ids = rng.integers(0, VOCAB, size=(200, LENGTH))
        labels = rng.integers(0, CLASSES, size=200)
        probs, _ = forward(model, ids)
        predicted = [reference.predict(model, row) for row in ids]
        assert probs.argmax(axis=1).tolist() == predicted
        assert accuracy(model, ids, labels) == reference.accuracy(model, ids, labels)

    @pytest.mark.parametrize("case", POOLING_CASES)
    def test_eval_pooling_equals_argmax_gather(self, case):
        model, ids, labels = pooling_case(case)
        probs, _ = forward(model, ids)
        # at zero dropout the train-mode masks are one
        pooled, _ = forward(model, ids, train_mode=True, rng=np.random.default_rng(0))
        assert np.array_equal(probs, pooled, equal_nan=True)
        # a one-sentence pass does the reference's arithmetic exactly
        for row in ids:
            expected, _ = reference.forward(model, row)
            assert np.array_equal(forward(model, row[None])[0][0], expected, equal_nan=True)
        assert accuracy(model, ids, labels) == reference.accuracy(model, ids, labels)

    @pytest.mark.parametrize("case", POOLING_CASES)
    def test_train_pooling_positions_equal_argmax_gather(self, case):
        # backward routes each filter's gradient to the position the
        # reference's argmax picks, and the pooled values are its gather
        model, ids, _ = pooling_case(case)
        for row in ids:
            rng = np.random.default_rng(0)
            _, cache = forward(model, row[None], train_mode=True, rng=rng)
            _, expected = reference.forward(model, row)
            offset = 0
            for w in sorted(model.conv_filters):
                idx = expected["argmax"][w]
                f_w = len(idx)
                at_max = (idx, np.arange(f_w))
                assert np.array_equal(cache["argmax"][w][0], idx)
                assert np.array_equal(
                    cache["pooled_pre"][w][0], expected["pre_act"][w][at_max], equal_nan=True
                )
                # zero dropout: h_dropped holds the pooled values themselves
                part = slice(offset, offset + f_w)
                assert np.array_equal(
                    cache["h_dropped"][0, part], expected["h_dropped"][part], equal_nan=True
                )
                offset += f_w

    def test_train_history_matches_reference(self):
        corpus = prepared_synthetic()
        settings = TrainingSettings(
            learning_rate=0.01, batch_size=16, max_epochs=4, seed=40
        )
        splits = (
            corpus.train_ids,
            corpus.train_labels,
            corpus.validation_ids,
            corpus.validation_labels,
        )
        _, history = train(model_for_corpus(corpus), *splits, settings)
        assert history == reference.train_history(
            model_for_corpus(corpus), *splits, settings
        )
        # after one epoch train restores that epoch's parameters, which are
        # the ones the reference ends with
        settings.max_epochs = 1
        trained, _ = train(model_for_corpus(corpus), *splits, settings)
        expected = model_for_corpus(corpus)
        reference.train_history(expected, *splits, settings)
        for name, arr in trained.parameters().items():
            assert np.allclose(arr, expected.parameters()[name], rtol=0, atol=1e-10), name


class TestDropout:
    def test_inverted_dropout_preserves_expectation(self):
        rng = np.random.default_rng(17)
        x = np.linspace(0.5, 2.0, 64)
        keep = 0.7
        total = np.zeros_like(x)
        masks = 10_000
        for _ in range(masks):
            total += x * ((rng.random(x.shape) < keep) / keep)
        assert np.allclose(total / masks, x, rtol=0.02)

    def test_train_mode_scales_surviving_activations(self):
        model = tiny_model(conv_dropout="0.5", fc_dropout="0.0")
        rng = np.random.default_rng(2)
        ids = np.arange(2 * LENGTH).reshape(2, LENGTH)
        _, cache = forward(model, ids, train_mode=True, rng=rng)
        surviving = cache["mask_h"][cache["mask_h"] > 0]
        assert np.allclose(surviving, 2.0)


class TestRmsprop:
    def test_first_step_hand_value(self):
        # constant gradient 1 from zero accumulator: step = lr/sqrt(0.1+eps)
        param = np.array([0.0])
        acc = np.zeros(1)
        rmsprop_update(param, np.array([1.0]), acc, learning_rate=0.01)
        assert param[0] == pytest.approx(-0.01 / math.sqrt(0.1), rel=1e-4)
        assert acc[0] == pytest.approx(0.1)

    def test_zero_learning_rate_freezes_parameters(self):
        corpus = prepared_synthetic()
        model = model_for_corpus(corpus)
        before = model.copy_parameters()
        settings = TrainingSettings(
            learning_rate=0.0, batch_size=16, max_epochs=3, seed=1
        )
        train(
            model,
            corpus.train_ids,
            corpus.train_labels,
            corpus.validation_ids,
            corpus.validation_labels,
            settings,
        )
        for name, arr in model.parameters().items():
            assert np.array_equal(arr, before[name]), name


def prepared_synthetic(seed=40):
    data = synthetic_corpus(class_count=3, samples_per_class=30, vocab_size=30,
                            seed=seed)
    return holdout_splits(data, 0.2, ratio_init=0.9, seed=seed)


def model_for_corpus(corpus, activation="relu", seed=40):
    space = SearchSpace(
        (
            ParamDomain("kernel_count_w3", (8,)),
            ParamDomain("kernel_count_w4", (8,)),
            ParamDomain("kernel_count_w5", (8,)),
            ParamDomain("conv_dropout", ("0.1",)),
            ParamDomain("fc_units", (16,)),
            ParamDomain("fc_dropout", ("0.1",)),
            ParamDomain("activation", (activation,)),
        )
    )
    config = space.configuration({d.name: d.values[0] for d in space.domains})
    rng = np.random.default_rng(seed)
    return init_model(config, corpus.vocab_size, 16, corpus.class_count, rng)


class TestTrain:
    def test_loss_decreases_on_separable_corpus(self):
        # golden trace: recorded once verified at these exact settings
        corpus = prepared_synthetic()
        model = model_for_corpus(corpus)
        settings = TrainingSettings(
            learning_rate=0.01, batch_size=32, max_epochs=5, seed=40
        )
        losses = []

        def training_loss(history):
            # eval-mode mean loss on the training split after each epoch
            probs, _ = forward(model, corpus.train_ids)
            losses.append(loss(probs, corpus.train_labels) / len(corpus.train_labels))
            return False

        train(
            model,
            corpus.train_ids,
            corpus.train_labels,
            corpus.validation_ids,
            corpus.validation_labels,
            settings,
            early_stop=training_loss,
        )
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_best_validation_snapshot_restored(self):
        corpus = prepared_synthetic()
        model = model_for_corpus(corpus)
        settings = TrainingSettings(
            learning_rate=0.01, batch_size=32, max_epochs=8, seed=40
        )
        trained, history = train(
            model,
            corpus.train_ids,
            corpus.train_labels,
            corpus.validation_ids,
            corpus.validation_labels,
            settings,
        )
        best = max(history)
        restored = accuracy(
            trained, corpus.validation_ids, corpus.validation_labels
        )
        assert restored == pytest.approx(best)

    def test_early_stop_callback_halts(self):
        corpus = prepared_synthetic()
        model = model_for_corpus(corpus)
        settings = TrainingSettings(
            learning_rate=0.002, batch_size=32, max_epochs=20, seed=40
        )
        _, history = train(
            model,
            corpus.train_ids,
            corpus.train_labels,
            corpus.validation_ids,
            corpus.validation_labels,
            settings,
            early_stop=lambda hist: len(hist) >= 2,
        )
        assert len(history) == 2

    def test_divergence_raises(self):
        corpus = prepared_synthetic()
        model = model_for_corpus(corpus)
        model.w2[...] = np.nan
        settings = TrainingSettings(
            learning_rate=0.002, batch_size=32, max_epochs=2, seed=40
        )
        with pytest.raises(DivergenceError):
            train(
                model,
                corpus.train_ids,
                corpus.train_labels,
                corpus.validation_ids,
                corpus.validation_labels,
                settings,
            )


def test_softmax_stability():
    z = np.array([1000.0, 1000.0, 1000.0])
    assert np.allclose(softmax(z), 1 / 3)
    z = np.array([-1000.0, 0.0, 1000.0])
    probs = softmax(z)
    assert np.all(np.isfinite(probs)) and abs(probs.sum() - 1) < 1e-12
