"""Dataset ingestion and split management.

Line-oriented loaders for the three supported corpus formats, a tokenizer,
train-only vocabulary building, cross-validation / holdout / fixed-test
split policies, and a deterministic synthetic corpus so the package tests
itself without licensed data. numpy is imported where a corpus is first
encoded, so loading sentences needs none.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .search_space import WINDOWS, brief

if TYPE_CHECKING:
    import numpy as np

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

_CONTROL = re.compile(r"[\x00-\x1f\x7f]")
_TOKEN = re.compile(r"\w+|[^\w\s]")


class DataError(ValueError):
    """A dataset file is missing or malformed."""


@dataclass(frozen=True)
class LabeledSentence:
    tokens: tuple[str, ...]
    label: int


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase, strip control characters, separate punctuation into
    standalone tokens, collapse whitespace."""
    cleaned = _CONTROL.sub(" ", text).lower()
    return tuple(_TOKEN.findall(cleaned))


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            return fh.read().splitlines()
    except FileNotFoundError:
        raise DataError(f"dataset file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"dataset file {path}: {exc.strerror}") from None


def load_mr(pos_path: str, neg_path: str) -> list[LabeledSentence]:
    """Two one-sentence-per-line files: positives (label 1), negatives (0)."""
    sentences: list[LabeledSentence] = []
    for path, label in ((neg_path, 0), (pos_path, 1)):
        lines = _read_lines(path)
        count = 0
        for line in lines:
            tokens = tokenize(line)
            if tokens:
                sentences.append(LabeledSentence(tokens, label))
                count += 1
        if count == 0:
            raise DataError(f"no sentences in {path}")
    return sentences


def load_cr(path: str) -> list[LabeledSentence]:
    """Tab-separated "label<TAB>sentence" lines with labels 0 or 1."""
    sentences: list[LabeledSentence] = []
    for lineno, line in enumerate(_read_lines(path), 1):
        if not line.strip():
            continue
        head, _, text = line.partition("\t")
        if head not in ("0", "1") or not text:
            raise DataError(f"{path}:{lineno}: malformed label line: {brief(line)}")
        tokens = tokenize(text)
        if tokens:
            sentences.append(LabeledSentence(tokens, int(head)))
    if not sentences:
        raise DataError(f"no sentences in {path}")
    return sentences


def load_trec(
    train_path: str, test_path: str
) -> tuple[list[LabeledSentence], list[LabeledSentence], tuple[str, ...]]:
    """Question lines "COARSE:fine question ...".

    The coarse label before the colon is the class; ids follow first
    appearance in the training file. The test file becomes the fixed
    held-out split and must not introduce new classes.
    """
    class_ids: dict[str, int] = {}

    def parse(path: str, allow_new: bool) -> list[LabeledSentence]:
        out = []
        for lineno, line in enumerate(_read_lines(path), 1):
            if not line.strip():
                continue
            head, _, text = line.partition(" ")
            coarse, colon, _fine = head.partition(":")
            if not colon or not coarse or not text.strip():
                raise DataError(
                    f"{path}:{lineno}: malformed question line: {brief(line)}"
                )
            if coarse not in class_ids:
                if not allow_new:
                    raise DataError(
                        f"{path}:{lineno}: class {brief(coarse)} absent from "
                        "training file"
                    )
                class_ids[coarse] = len(class_ids)
            tokens = tokenize(text)
            if tokens:
                out.append(LabeledSentence(tokens, class_ids[coarse]))
        if not out:
            raise DataError(f"no sentences in {path}")
        return out

    train = parse(train_path, allow_new=True)
    test = parse(test_path, allow_new=False)
    return train, test, tuple(class_ids)


# --- split policies -----------------------------------------------------------


@dataclass(frozen=True)
class CvPolicy:
    folds: int
    fold_index: int


@dataclass(frozen=True)
class HoldoutPolicy:
    test_fraction: float


@dataclass(frozen=True)
class FixedTestPolicy:
    test: tuple[LabeledSentence, ...]


SplitPolicy = CvPolicy | HoldoutPolicy | FixedTestPolicy


@dataclass
class PreparedCorpus:
    train_ids: np.ndarray
    train_labels: np.ndarray
    validation_ids: np.ndarray
    validation_labels: np.ndarray
    sentence_length: int
    class_count: int
    vocab_size: int


def _encode(
    sentences: Sequence[LabeledSentence], vocab: dict[str, int], length: int
) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    ids = np.full((len(sentences), length), PAD_ID, dtype=np.int64)
    labels = np.zeros(len(sentences), dtype=np.int64)
    for row, sentence in enumerate(sentences):
        for col, token in enumerate(sentence.tokens[:length]):
            ids[row, col] = vocab.get(token, UNK_ID)
        labels[row] = sentence.label
    return ids, labels


def split_off_test(
    data: Sequence[LabeledSentence], policy: SplitPolicy, rng: random.Random
) -> tuple[list[LabeledSentence], list[LabeledSentence]]:
    """The policy's test split and the rest of ``data`` (the "original
    training set"). CV and holdout pick the test sentences by shuffling
    with ``rng`` and keep ``data`` order in both parts."""
    data = list(data)
    if isinstance(policy, FixedTestPolicy):
        return list(policy.test), data
    if isinstance(policy, CvPolicy):
        if policy.folds < 2:
            raise ValueError("cross validation needs at least 2 folds")
        if not 0 <= policy.fold_index < policy.folds:
            raise ValueError("fold_index outside range")
        base, extra = divmod(len(data), policy.folds)
        start = policy.fold_index * base + min(policy.fold_index, extra)
        stop = start + base + (policy.fold_index < extra)
    elif isinstance(policy, HoldoutPolicy):
        if not 0.0 <= policy.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in [0, 1)")
        start, stop = 0, round(policy.test_fraction * len(data))
    else:
        raise TypeError(f"unknown split policy: {policy!r}")
    indices = list(range(len(data)))
    rng.shuffle(indices)
    chosen = set(indices[start:stop])
    test = [data[i] for i in sorted(chosen)]
    return test, [s for i, s in enumerate(data) if i not in chosen]


def make_splits(
    data: Sequence[LabeledSentence],
    policy: SplitPolicy,
    ratio_init: float,
    seed: int,
) -> PreparedCorpus:
    """Hold out the policy's test split and encode train / validation.

    The policy fixes the test split, which stays out of both; the remaining
    "original training set" is split train/validation by ratio_init,
    stratified per class with a seeded shuffle. The vocabulary comes from
    the train split only, so unknown-token handling in validation is
    exercised honestly.
    """
    import numpy as np

    if not data:
        raise DataError("empty dataset")
    if not 0.0 < ratio_init < 1.0:
        raise ValueError("ratio_init must lie in (0, 1)")
    rng = random.Random(seed)
    test, original_train = split_off_test(data, policy, rng)

    # stratified train/validation split of the original training set
    by_class: dict[int, list[int]] = {}
    for i, sentence in enumerate(original_train):
        by_class.setdefault(sentence.label, []).append(i)
    train_idx: list[int] = []
    val_idx: list[int] = []
    for label in sorted(by_class):
        group = by_class[label]
        rng.shuffle(group)
        n_train = round(ratio_init * len(group))
        if n_train == 0:
            raise DataError(
                f"stratification failed: class {label} would vanish from train"
            )
        train_idx.extend(group[:n_train])
        val_idx.extend(group[n_train:])
    train_idx.sort()
    val_idx.sort()
    train = [original_train[i] for i in train_idx]
    validation = [original_train[i] for i in val_idx]
    for name, split in (("train", train), ("validation", validation)):
        if not split:
            raise DataError(
                f"the {name} split is empty: {len(original_train)} sentences "
                f"outside the test split, ratio_init {ratio_init}"
            )

    vocab = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
    for sentence in train:
        for token in sentence.tokens:
            if token not in vocab:
                vocab[token] = len(vocab)

    train_lengths = [len(s.tokens) for s in train]
    # no shorter than the widest convolution window
    sentence_length = max(max(WINDOWS), int(np.ceil(np.percentile(train_lengths, 95))))

    train_ids, train_labels = _encode(train, vocab, sentence_length)
    val_ids, val_labels = _encode(validation, vocab, sentence_length)
    return PreparedCorpus(
        train_ids=train_ids,
        train_labels=train_labels,
        validation_ids=val_ids,
        validation_labels=val_labels,
        sentence_length=sentence_length,
        class_count=max(s.label for s in (*data, *test)) + 1,
        vocab_size=len(vocab),
    )


def synthetic_corpus(
    class_count: int, samples_per_class: int, vocab_size: int, seed: int
) -> list[LabeledSentence]:
    """Linearly separable sentences: each class owns a disjoint keyword set,
    every sentence opens with one of its class's keywords, and filler tokens
    come from a shared pool no class owns."""
    if vocab_size < 2 * class_count:
        raise ValueError("vocab_size must be at least 2 * class_count")
    words = [f"w{i:03d}" for i in range(vocab_size)]
    chunk = vocab_size // (2 * class_count)
    keywords = [words[c * chunk : (c + 1) * chunk] for c in range(class_count)]
    shared = words[class_count * chunk :]
    rng = random.Random(seed)
    sentences = []
    for label in range(class_count):
        for _ in range(samples_per_class):
            length = rng.randint(6, 12)
            tokens = [rng.choice(keywords[label])]
            for _ in range(length - 1):
                if rng.random() < 0.6:
                    tokens.append(rng.choice(keywords[label]))
                else:
                    tokens.append(rng.choice(shared))
            sentences.append(LabeledSentence(tuple(tokens), label))
    return sentences
