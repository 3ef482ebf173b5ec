import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealtune.corpus import (
    PAD_ID,
    UNK_ID,
    CvPolicy,
    DataError,
    FixedTestPolicy,
    HoldoutPolicy,
    LabeledSentence,
    load_cr,
    load_mr,
    load_trec,
    make_splits,
    split_off_test,
    synthetic_corpus,
    tokenize,
)


class TestTokenize:
    def test_lowercase_and_punctuation_split(self):
        assert tokenize("It's a Square, sentimental DRAMA.") == (
            "it", "'", "s", "a", "square", ",", "sentimental", "drama", ".",
        )

    def test_control_characters_stripped(self):
        assert tokenize("ab\x00cd\tef") == ("ab", "cd", "ef")

    def test_whitespace_collapse(self):
        assert tokenize("  two\t\twords  ") == ("two", "words")


class TestLoadMr:
    def test_two_line_fixture(self, tmp_path):
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text("a fine movie\n")
        neg.write_text("a dull movie\n")
        sentences = load_mr(str(pos), str(neg))
        assert len(sentences) == 2
        assert {s.label for s in sentences} == {0, 1}
        positives = [s for s in sentences if s.label == 1]
        assert positives[0].tokens == ("a", "fine", "movie")

    def test_missing_file(self, tmp_path):
        present = tmp_path / "pos.txt"
        present.write_text("x\n")
        with pytest.raises(DataError, match="not found"):
            load_mr(str(present), str(tmp_path / "absent.txt"))

    def test_empty_file(self, tmp_path):
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text("fine\n")
        neg.write_text("")
        with pytest.raises(DataError, match="no sentences"):
            load_mr(str(pos), str(neg))


class TestLoadCr:
    def test_four_line_fixture(self, tmp_path):
        path = tmp_path / "cr.tsv"
        path.write_text(
            "1\tthis camera is so easy to use !\n"
            "0\tthe sound level is low .\n"
            "1\tgreat battery\n"
            "0\tpoor lens\n"
        )
        sentences = load_cr(str(path))
        assert len(sentences) == 4
        assert sentences[0].label == 1
        assert sentences[0].tokens[:2] == ("this", "camera")

    def test_malformed_label(self, tmp_path):
        path = tmp_path / "cr.tsv"
        path.write_text("2\tbad label\n")
        with pytest.raises(DataError, match="malformed label"):
            load_cr(str(path))


TREC_LINES = [
    "DESC:manner How did serfdom develop ?",
    "ENTY:animal What bird lays the largest egg ?",
    "HUM:ind Who was the first man on the Pacific ?",
    "ABBR:exp What is the full form of .com ?",
    "LOC:other What is Australia's national flower ?",
    "NUM:count How many states are there ?",
]


class TestLoadTrec:
    def test_sample_line_maps_to_location_class(self, tmp_path):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text("\n".join(TREC_LINES) + "\n")
        test.write_text(TREC_LINES[4] + "\n")
        train_s, test_s, class_names = load_trec(str(train), str(test))
        assert class_names == ("DESC", "ENTY", "HUM", "ABBR", "LOC", "NUM")
        assert test_s[0].label == class_names.index("LOC")
        assert "australia" in train_s[4].tokens

    def test_one_line_per_class_gives_six_classes_in_order(self, tmp_path):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text("\n".join(TREC_LINES) + "\n")
        test.write_text(TREC_LINES[0] + "\n")
        train_s, _, class_names = load_trec(str(train), str(test))
        assert len(class_names) == 6
        assert [s.label for s in train_s] == list(range(6))

    def test_malformed_line_reports_line_number(self, tmp_path):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text(TREC_LINES[0] + "\nBADLINE without colon\n")
        test.write_text(TREC_LINES[0] + "\n")
        with pytest.raises(DataError, match="train.txt:2"):
            load_trec(str(train), str(test))

    def test_new_class_in_test_rejected(self, tmp_path):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text(TREC_LINES[0] + "\n")
        test.write_text("XYZ:other Unknown kind ?\n")
        with pytest.raises(DataError, match="absent from training"):
            load_trec(str(train), str(test))


def corpus_of(n, classes=2, seed=0):
    sentences = []
    for i in range(n):
        label = i % classes
        sentences.append(
            LabeledSentence((f"tok{i % 17}", f"tok{(i * 3) % 13}", "filler"), label)
        )
    return sentences


class TestMakeSplits:
    def test_cv_fold_arithmetic(self):
        data = corpus_of(100)
        test, rest = split_off_test(data, CvPolicy(10, 0), random.Random(1))
        assert len(test) == 10
        assert len(rest) == 90
        prepared = make_splits(data, CvPolicy(10, 0), ratio_init=0.9, seed=1)
        assert len(prepared.train_labels) == 81
        assert len(prepared.validation_labels) == 9

    def test_cv_folds_partition_dataset(self):
        data = corpus_of(103)  # uneven fold sizes, no repeated sentence
        folds = [
            split_off_test(data, CvPolicy(10, fold), random.Random(7))[0]
            for fold in range(10)
        ]
        sizes = [len(fold) for fold in folds]
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1
        assert Counter(s for fold in folds for s in fold) == Counter(data)

    def test_splits_partition_input_exactly(self):
        data = corpus_of(60, classes=3)
        # make_splits draws the test split first from its seed's stream
        test, _ = split_off_test(data, HoldoutPolicy(0.2), random.Random(3))
        prepared = make_splits(data, HoldoutPolicy(0.2), ratio_init=0.8, seed=3)
        combined = Counter(s.label for s in test)
        for labels in (prepared.train_labels, prepared.validation_labels):
            combined.update(int(l) for l in labels)
        assert len(test) == 12
        assert combined == Counter(s.label for s in data)

    @pytest.mark.parametrize(
        "policy",
        [CvPolicy(4, 1), HoldoutPolicy(0.3), HoldoutPolicy(0.0)],
        ids=["cv", "holdout", "holdout-empty"],
    )
    def test_test_split_stays_out_of_train_and_validation(self, policy):
        data = corpus_of(40)
        test, rest = split_off_test(data, policy, random.Random(5))
        assert not set(test) & set(rest)
        assert sorted(test + rest, key=data.index) == data
        assert rest == [s for s in data if s not in test]

    def test_fixed_test_split_is_the_policy_s_own(self):
        data = corpus_of(10)
        held_out = (LabeledSentence(("zeta",), 1),)
        rng = random.Random(0)
        state = rng.getstate()
        assert split_off_test(data, FixedTestPolicy(held_out), rng) == (
            list(held_out), data
        )
        assert rng.getstate() == state

    def test_stratified_mix_preserved(self):
        data = [
            LabeledSentence(("a", "b", "c"), 0) for _ in range(60)
        ] + [LabeledSentence(("d", "e", "f"), 1) for _ in range(40)]
        prepared = make_splits(data, HoldoutPolicy(0.0), ratio_init=0.9, seed=5)
        train_mix = Counter(int(l) for l in prepared.train_labels)
        assert abs(train_mix[0] - 54) <= 2
        assert abs(train_mix[1] - 36) <= 2

    def test_class_vanishing_from_train_is_an_error(self):
        data = [LabeledSentence(("a", "b", "c"), 0) for _ in range(50)]
        data.append(LabeledSentence(("d", "e", "f"), 1))
        # the single class-1 item lands in validation at ratio 0.5
        with pytest.raises(DataError, match="stratification"):
            make_splits(data, HoldoutPolicy(0.0), ratio_init=0.4, seed=1)

    @pytest.mark.parametrize(
        "policy,ratio_init,empty",
        [(HoldoutPolicy(0.0), 0.9, "validation"), (HoldoutPolicy(0.9), 0.5, "train")],
        ids=["validation", "train"],
    )
    def test_empty_split_is_an_error(self, policy, ratio_init, empty):
        # 4 sentences: 0.9 keeps both of a class in train; a 0.9 test
        # fraction leaves nothing outside the test split
        with pytest.raises(DataError, match=f"the {empty} split is empty"):
            make_splits(corpus_of(4), policy, ratio_init, seed=1)

    def test_all_ids_below_vocab_size_and_reserved_ids_distinct(self):
        data = synthetic_corpus(2, 30, 40, seed=3)
        prepared = make_splits(data, HoldoutPolicy(0.2), ratio_init=0.9, seed=2)
        assert PAD_ID != UNK_ID
        for ids in (prepared.train_ids, prepared.validation_ids):
            assert ids.max() < prepared.vocab_size
            assert ids.min() >= 0

    def test_unknown_tokens_map_to_unk(self):
        # every sentence has its own words, so validation sees none of train's
        data = [
            LabeledSentence(tuple(f"s{i}w{j}" for j in range(5)), 0)
            for i in range(10)
        ]
        prepared = make_splits(data, HoldoutPolicy(0.0), ratio_init=0.9, seed=0)
        assert prepared.validation_ids.shape == (1, 5)
        assert np.all(prepared.validation_ids == UNK_ID)
        assert np.all(prepared.train_ids > UNK_ID)

    def test_stats_recomputed_from_content(self):
        data = corpus_of(50, classes=4)
        prepared = make_splits(data, HoldoutPolicy(0.1), ratio_init=0.9, seed=0)
        assert prepared.class_count == 4

    def test_sentence_length_floor_of_five(self):
        data = corpus_of(30)  # all length 3
        prepared = make_splits(data, HoldoutPolicy(0.0), ratio_init=0.9, seed=0)
        assert prepared.sentence_length == 5
        assert prepared.train_ids.shape[1] == 5


def perceptron_reaches_full_accuracy(sentences, class_count, epochs=60):
    """Oracle: multiclass perceptron over bag-of-words counts."""
    vocab: dict[str, int] = {}
    for s in sentences:
        for t in s.tokens:
            vocab.setdefault(t, len(vocab))
    features = np.zeros((len(sentences), len(vocab)))
    for i, s in enumerate(sentences):
        for t in s.tokens:
            features[i, vocab[t]] += 1.0
    labels = np.array([s.label for s in sentences])
    weights = np.zeros((class_count, len(vocab)))
    for _ in range(epochs):
        mistakes = 0
        for i in range(len(labels)):
            predicted = int(np.argmax(weights @ features[i]))
            if predicted != labels[i]:
                weights[labels[i]] += features[i]
                weights[predicted] -= features[i]
                mistakes += 1
        if mistakes == 0:
            return True
    return False


sentences = st.builds(
    LabeledSentence,
    st.lists(st.sampled_from(["a", "b", "c", "?"]), max_size=7).map(tuple),
    st.integers(0, 2),
)
tiny_corpora = st.lists(sentences, max_size=8)


POLICIES = {
    "holdout": st.builds(HoldoutPolicy, st.floats(0.0, 1.0, exclude_max=True)),
    "cv": st.integers(2, 10).flatmap(
        lambda folds: st.builds(CvPolicy, st.just(folds), st.integers(0, folds - 1))
    ),
    "fixed": st.lists(sentences, max_size=3).map(lambda t: FixedTestPolicy(tuple(t))),
}


@pytest.mark.parametrize("kind", sorted(POLICIES))
@settings(max_examples=150, deadline=None)
@given(draw=st.data())
def test_tiny_corpus_splits_are_non_empty_or_a_data_error(kind, draw):
    data = draw.draw(tiny_corpora)
    policy = draw.draw(POLICIES[kind])
    ratio_init = draw.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    try:
        prepared = make_splits(data, policy, ratio_init, seed=draw.draw(st.integers(0, 99)))
    except DataError:
        return
    assert len(prepared.train_labels) > 0
    assert len(prepared.validation_labels) > 0
    assert prepared.train_ids.shape == (len(prepared.train_labels), prepared.sentence_length)
    assert prepared.validation_ids.shape[1] == prepared.sentence_length


class TestSyntheticCorpus:
    def test_counts(self):
        sentences = synthetic_corpus(2, 50, 40, seed=40)
        assert len(sentences) == 100
        assert Counter(s.label for s in sentences) == {0: 50, 1: 50}

    def test_same_seed_identical(self):
        assert synthetic_corpus(3, 20, 40, seed=7) == synthetic_corpus(
            3, 20, 40, seed=7
        )

    def test_linearly_separable_by_perceptron_oracle(self):
        sentences = synthetic_corpus(2, 50, 40, seed=40)
        assert perceptron_reaches_full_accuracy(sentences, 2)

    def test_three_class_variant_separable(self):
        sentences = synthetic_corpus(3, 30, 42, seed=11)
        assert perceptron_reaches_full_accuracy(sentences, 3)

    def test_vocab_floor(self):
        with pytest.raises(ValueError):
            synthetic_corpus(4, 10, 7, seed=0)
