"""Seeded input generator for the annealtune benchmark.

Every workload's inputs are a pure function of the workload seed: run
configs for ``annealtune tune`` and a 6-class corpus in TREC file format.
The program only ever sees these files.

    python3 bench/inputs.py --workload textcnn-study --seed 7 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import json
import os
import random

KERNEL_COUNTS_DESC = [256, 160, 128, 100, 96, 64, 32]
FC_UNITS_DESC = [512, 256, 128, 64, 32, 16]

#: tune runs per synthetic-study seed, alternating the two objectives
SYNTHETIC_RUNS = 100
#: tune runs per textcnn-study seed
TEXTCNN_RUNS = 32

TREC_CLASSES = {
    "ABBR": ("abb", "exp"),
    "DESC": ("def", "desc", "manner", "reason"),
    "ENTY": ("animal", "color", "food", "other"),
    "HUM": ("ind", "gr", "title"),
    "LOC": ("city", "country", "other", "state"),
    "NUM": ("count", "date", "money", "period"),
}
KEYWORDS_PER_CLASS = 6
SHARED_WORDS = 24
#: chance that a token is one of the sentence's own class keywords, and
#: that it is a keyword of a random (possibly other) class
OWN_KEYWORD = 0.5
CROSS_KEYWORD = 0.1
#: share of each class's training sentences labelled as another class
LABEL_NOISE = 0.15
TRAIN_PER_CLASS = 12
TEST_PER_CLASS = 5
SENTENCE_LENGTHS = (5, 7)
#: the text-CNN corpus is one fixed dataset, as a real corpus would be; the
#: workload seed varies the runs on it (splits, initialisation, search path)
CORPUS_SEED = 0


def _write_json(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def synthetic_study(seed: int, out: str) -> list[str]:
    """Run configs on the full space with the kernel counts and fc_units in
    descending order, so low error (low indices) and low FLOPs conflict."""
    rng = random.Random(f"synthetic-study/{seed}")
    space = {f"kernel_count_w{w}": KERNEL_COUNTS_DESC for w in (3, 4, 5)}
    space["fc_units"] = FC_UNITS_DESC
    paths = []
    for i in range(SYNTHETIC_RUNS):
        config = {
            "seed_number": rng.randrange(1, 2**31),
            "ratio_init": 0.9,
            "iteration_budget": 2500,
            "initial_acceptance_probability": 0.5,
            "cooling_rate": 0.95,
            "objective_kind": (
                "synthetic:sphere_proxy" if i % 2 == 0 else "synthetic:deceptive_trap"
            ),
            "space": space,
        }
        paths.append(_write_json(os.path.join(out, f"run-{i:03d}.json"), config))
    return paths


def _sentence(rng: random.Random, label: int, keywords: list[list[str]], shared: list[str]) -> str:
    tokens = []
    for _ in range(rng.randint(*SENTENCE_LENGTHS)):
        draw = rng.random()
        if draw < OWN_KEYWORD:
            tokens.append(rng.choice(keywords[label]))
        elif draw < OWN_KEYWORD + CROSS_KEYWORD:
            tokens.append(rng.choice(rng.choice(keywords)))
        else:
            tokens.append(rng.choice(shared))
    return " ".join(tokens) + " ?"


def trec_corpus(train_path: str, test_path: str) -> None:
    """Question lines "COARSE:fine words ?" that no classifier separates:
    class keywords also appear in other classes, most tokens come from a
    shared pool, and a fixed share of each class's training labels names
    another class."""
    rng = random.Random(f"trec-corpus/{CORPUS_SEED}")
    classes = list(TREC_CLASSES)
    words = [f"q{rng.randrange(16**6):06x}" for _ in range(
        len(classes) * KEYWORDS_PER_CLASS + SHARED_WORDS
    )]
    keywords = [
        words[c * KEYWORDS_PER_CLASS : (c + 1) * KEYWORDS_PER_CLASS]
        for c in range(len(classes))
    ]
    shared = words[len(classes) * KEYWORDS_PER_CLASS :]

    def lines(per_class: int, noisy: bool) -> list[str]:
        out = []
        for c in range(len(classes)):
            flipped = set(rng.sample(range(per_class), round(LABEL_NOISE * per_class))) if noisy else set()
            for i in range(per_class):
                text = _sentence(rng, c, keywords, shared)
                label = c
                if i in flipped:
                    label = rng.choice([o for o in range(len(classes)) if o != c])
                coarse = classes[label]
                out.append(f"{coarse}:{rng.choice(TREC_CLASSES[coarse])} {text}")
        rng.shuffle(out)
        return out

    # the first training lines name every class, so the test file never
    # introduces one
    train = [f"{c}:{TREC_CLASSES[c][0]} {_sentence(rng, i, keywords, shared)}"
             for i, c in enumerate(classes)] + lines(TRAIN_PER_CLASS, noisy=True)
    test = lines(TEST_PER_CLASS, noisy=False)
    for path, rows in ((train_path, train), (test_path, test)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")


def textcnn_study(seed: int, out: str) -> list[str]:
    """A generated TREC-format corpus and text-CNN run configs on a space of
    128 configurations, small enough that some evaluations repeat.

    Every filter count switches between 32 and 100, a FLOPs change of
    about a fifth of the space's maximum that outweighs nearly every error
    change, so a 16-step probe walk all but surely sees the deterioration
    that calibration needs."""
    rng = random.Random(f"textcnn-study/{seed}")
    train = os.path.join(out, "train.label")
    test = os.path.join(out, "test.label")
    trec_corpus(train, test)
    manifest = _write_json(
        os.path.join(out, "dataset.json"), {"kind": "trec", "train": train, "test": test}
    )
    space = {
        "kernel_count_w3": [32, 100],
        "kernel_count_w4": [32, 100],
        "kernel_count_w5": [32, 100],
        "conv_dropout": ["0.1", "0.5"],
        "fc_units": [16, 32],
        "fc_dropout": ["0.1"],
        "activation": ["relu", "tanh"],
        "learning_rate": ["0.005", "0.01"],
        "batch_size": [64],
    }
    paths = []
    for i in range(TEXTCNN_RUNS):
        config = {
            "seed_number": rng.randrange(1, 2**31),
            "ratio_init": 0.5,
            "iteration_budget": 4,
            "initial_acceptance_probability": 0.5,
            "cooling_rate": 0.9,
            "probe_count": 16,
            "max_epochs": 3,
            "objective_kind": "textcnn",
            "dataset_path": manifest,
            "space": space,
        }
        paths.append(_write_json(os.path.join(out, f"run-{i:03d}.json"), config))
    return paths


GENERATORS = {
    "synthetic-study": synthetic_study,
    "textcnn-study": textcnn_study,
}


def generate(workload: str, seed: int, out: str) -> list[str]:
    """Write the workload's inputs under ``out``; return the run configs in
    run order."""
    os.makedirs(out, exist_ok=True)
    return GENERATORS[workload](seed, out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for path in generate(args.workload, args.seed, args.out):
        print(path)


if __name__ == "__main__":
    main()
