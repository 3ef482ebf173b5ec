"""Dataset ingestion and split management.

Line-oriented loaders for the three supported corpus formats, a tokenizer,
the holdout of a test split, the stratified train / validation split with
train-only vocabulary building, and a deterministic synthetic corpus so the
package tests itself without licensed data. numpy is imported where a
corpus is first encoded, so loading sentences needs none.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

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


def _read_sentences(
    path: str, parse: Callable[[str], tuple[int, str]]
) -> list[LabeledSentence]:
    """The sentences of one dataset file: ``parse`` turns each line that is
    not blank into (label, text) or raises a DataError, reported after
    "path:line:". A line whose text has no token is dropped; a file left
    with no sentence is a DataError."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise DataError(f"dataset file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"dataset file {path}: {exc.strerror}") from None
    sentences = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            label, text = parse(line)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        tokens = tokenize(text)
        if tokens:
            sentences.append(LabeledSentence(tokens, label))
    if not sentences:
        raise DataError(f"no sentences in {path}")
    return sentences


def load_mr(pos_path: str, neg_path: str) -> list[LabeledSentence]:
    """Two one-sentence-per-line files: positives (label 1), negatives (0)."""
    negatives = _read_sentences(neg_path, lambda line: (0, line))
    return negatives + _read_sentences(pos_path, lambda line: (1, line))


def load_cr(path: str) -> list[LabeledSentence]:
    """Tab-separated "label<TAB>sentence" lines with labels 0 or 1."""

    def parse(line: str) -> tuple[int, str]:
        head, _, text = line.partition("\t")
        if head not in ("0", "1") or not text:
            raise DataError(f"malformed label line: {brief(line)}")
        return int(head), text

    return _read_sentences(path, parse)


def load_trec(
    train_path: str, test_path: str
) -> tuple[list[LabeledSentence], list[LabeledSentence], tuple[str, ...]]:
    """Question lines "COARSE:fine question ...".

    The coarse label before the colon is the class; ids follow first
    appearance among the training file's sentences, so a class whose lines
    all lack a token gets none. The test file becomes the fixed held-out
    split and must not introduce new classes.
    """
    class_ids: dict[str, int] = {}

    def parse(line: str, allow_new: bool) -> tuple[int, str]:
        head, _, text = line.partition(" ")
        coarse, colon, _fine = head.partition(":")
        if not colon or not coarse or not text.strip():
            raise DataError(f"malformed question line: {brief(line)}")
        if coarse not in class_ids:
            if not allow_new:
                raise DataError(f"class {brief(coarse)} absent from training file")
            if tokenize(text):  # else _read_sentences drops the line unread
                class_ids[coarse] = len(class_ids)
        return class_ids.get(coarse), text

    train = _read_sentences(train_path, lambda line: parse(line, allow_new=True))
    test = _read_sentences(test_path, lambda line: parse(line, allow_new=False))
    return train, test, tuple(class_ids)


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


def hold_out(
    data: Sequence[LabeledSentence], start: int, stop: int, rng: random.Random
) -> tuple[list[LabeledSentence], list[LabeledSentence]]:
    """The rest of ``data`` and the sentences at positions [start, stop) of
    its indices shuffled by ``rng``, both in ``data`` order: a CV fold or a
    holdout test split, in the order make_splits takes them."""
    indices = list(range(len(data)))
    rng.shuffle(indices)
    chosen = set(indices[start:stop])
    test = [data[i] for i in sorted(chosen)]
    return [s for i, s in enumerate(data) if i not in chosen], test


def make_splits(
    pool: Sequence[LabeledSentence],
    test: Sequence[LabeledSentence],
    ratio_init: float,
    rng: random.Random,
) -> PreparedCorpus:
    """Split ``pool``, the "original training set", into train / validation
    and encode both.

    ``test`` is the test split prepare_corpus held out of the corpus (a CV
    fold or holdout share by hold_out, or TREC's test file); it stays out
    of both splits and only its labels count towards class_count. The pool
    is split by ratio_init, stratified per class, with shuffles drawn from
    ``rng`` after whatever hold_out drew: a class of n sentences puts
    round(ratio_init * n) in train, but at most n - 1 when n >= 2, so every
    class of two or more keeps a validation sentence. The vocabulary comes
    from the train split only, so unknown-token handling in validation is
    exercised honestly.
    """
    import numpy as np

    if not 0.0 < ratio_init < 1.0:
        raise ValueError("ratio_init must lie in (0, 1)")

    by_class: dict[int, list[int]] = {}
    for i, sentence in enumerate(pool):
        by_class.setdefault(sentence.label, []).append(i)
    train_idx: list[int] = []
    val_idx: list[int] = []
    for label in sorted(by_class):
        group = by_class[label]
        rng.shuffle(group)
        n_train = min(round(ratio_init * len(group)), max(len(group) - 1, 1))
        if n_train == 0:
            raise DataError(
                f"stratification failed: class {label} would vanish from train"
            )
        train_idx.extend(group[:n_train])
        val_idx.extend(group[n_train:])
    train_idx.sort()
    val_idx.sort()
    train = [pool[i] for i in train_idx]
    validation = [pool[i] for i in val_idx]
    for name, split in (("train", train), ("validation", validation)):
        if not split:
            raise DataError(
                f"the {name} split is empty: {len(pool)} sentences "
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
        class_count=max(s.label for s in (*pool, *test)) + 1,
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
