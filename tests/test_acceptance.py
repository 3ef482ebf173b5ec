"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Criterion 9 needs user-supplied dataset files (see README) and
skips when the environment variables are absent.
"""

import json
import math
import os
import random
from dataclasses import replace

import pytest

np = pytest.importorskip("numpy")

from helpers import finite_difference_gradients, make_run_config, relative_error
from reference_pareto import brute_force_front

import annealtune.cli as cli
from annealtune.annealer import initial_temperature, metropolis_accepts, run
from annealtune.corpus import load_cr, load_mr, load_trec
from annealtune.evaluator import SyntheticEvaluator
from annealtune.pareto import (
    ArchiveEntry,
    ObjectiveVector,
    ParetoArchive,
)
from annealtune.search_space import (
    Configuration,
    default_search_space,
    enumerate_space,
)
from annealtune.textcnn import backward, forward, init_model

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

RESTRICTED_36 = {
    "kernel_count_w3": [256, 100, 32],
    "kernel_count_w4": [32],
    "kernel_count_w5": [32],
    "conv_dropout": ["0.1"],
    "fc_units": [512, 128, 16],
    "fc_dropout": ["0.1"],
    "activation": ["relu", "tanh"],
    "learning_rate": ["0.001", "0.002"],
    "batch_size": [64],
}


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:>2}: {status} :: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_schedule_table(capsys):
    expected = {
        "0.99": (156.2, 1.6),
        "0.95": (30.6, 8.1),
        "0.9": (14.9, 16.7),
        "0.85": (9.6, 25.8),
        "0.8": (7.0, 35.5),
    }
    assert cli.main(["plan", "--t-init", "0.577", "--t-final", "0.12",
                     "--budget", "250"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    deviations = []
    for line in lines:
        cells = line.split()
        rate, outer, inner = cells[3], float(cells[4]), float(cells[5])
        want_outer, want_inner = expected.pop(rate)
        deviations.append(abs(outer - want_outer))
        deviations.append(abs(inner - want_inner))
    ok = not expected and all(d <= 0.05 for d in deviations)
    with capsys.disabled():
        report(1, ok, f"five rows reproduced, max deviation {max(deviations):.3f}")


def test_criterion_2_initial_temperature_anchor():
    t_init = initial_temperature(0.4, 0.5)
    ok = abs(t_init - 0.5770) <= 0.0005
    report(2, ok, f"mean deterioration 0.4 at probability 0.5 -> {t_init:.5f}")


def test_criterion_3_acceptance_law_monte_carlo():
    rng = random.Random(2024)
    trials = 100_000
    accepted = sum(
        metropolis_accepts(0.2, 0.4, rng)[0] for _ in range(trials)
    )
    frequency = accepted / trials
    target = math.exp(-0.5)
    ok = abs(frequency - target) <= 0.005
    report(3, ok, f"accept frequency {frequency:.4f} vs exp(-0.5)={target:.4f}")


def test_criterion_4_archive_equals_brute_force():
    failures = 0
    for seed in range(20):
        rng = random.Random(seed)
        offered = [
            (
                Configuration((("id", i),)),
                ObjectiveVector(rng.random(), rng.randrange(10**6)),
            )
            for i in range(200)
        ]
        archive = ParetoArchive()
        for config, objectives in offered:
            archive.insert(ArchiveEntry(config, objectives, 0))
        got = {(e.config, e.objectives) for e in archive.entries}
        if got != brute_force_front(offered):
            failures += 1
    report(4, failures == 0, f"20 seeds x 200 vectors, {failures} mismatches")


def test_criterion_5_full_loop_oracle_equivalence():
    space = default_search_space().restrict(RESTRICTED_36)
    config = make_run_config(space, seed_number=1)
    evaluator = SyntheticEvaluator(config)
    exhaustive = brute_force_front(
        [(c, evaluator.evaluate(c)) for c in enumerate_space(space)]
    )
    equal = subset = 0
    for seed in range(1, 21):
        result = run(replace(config, seed_number=seed), evaluator, lambda record: None)
        got = {(e.config, e.objectives) for e in result.archive.entries}
        equal += got == exhaustive
        subset += got <= exhaustive
    ok = equal >= 18 and subset == 20
    report(5, ok, f"{equal}/20 equal to the exhaustive front, {subset}/20 subsets")


def test_criterion_6_gradient_fidelity():
    from annealtune.search_space import ParamDomain, SearchSpace

    worst = 0.0
    for activation in ("relu", "leaky_relu", "elu", "tanh", "linear"):
        space = SearchSpace(
            (
                ParamDomain("kernel_count_w3", (2,)),
                ParamDomain("kernel_count_w4", (2,)),
                ParamDomain("kernel_count_w5", (2,)),
                ParamDomain("conv_dropout", ("0.2",)),
                ParamDomain("fc_units", (4,)),
                ParamDomain("fc_dropout", ("0.2",)),
                ParamDomain("activation", (activation,)),
            )
        )
        config = space.configuration(
            {d.name: d.values[0] for d in space.domains}
        )
        model = init_model(config, 20, 6, 3, np.random.default_rng(12))
        for w in (3, 4, 5):
            model.conv_bias[w] += 0.05  # clear of the relu-family kink
        model.b1 += 0.05
        ids = np.array([[3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8]])
        mask_seed, labels = 99, np.array([2, 0])
        rng = np.random.default_rng(mask_seed)
        _, cache = forward(model, ids, train_mode=True, rng=rng)
        analytic = backward(model, cache, labels)
        numeric = finite_difference_gradients(model, ids, labels, mask_seed)
        for name in analytic:
            worst = max(worst, relative_error(analytic[name], numeric[name]))
    ok = worst < 1e-4
    report(6, ok, f"five activations, worst relative error {worst:.2e}")


def test_criterion_7_end_to_end_learning(tmp_path):
    run_config = {
        "seed_number": 40,
        "ratio_init": 0.9,
        "iteration_budget": 30,
        "initial_acceptance_probability": 0.5,
        "cooling_rate": 0.8,
        "objective_kind": "textcnn",
        "probe_count": 6,
        "max_epochs": 20,
        "space": {
            "kernel_count_w3": [32],
            "kernel_count_w4": [32],
            "kernel_count_w5": [32],
            "conv_dropout": ["0.1", "0.2"],
            "fc_units": [16, 32],
            "fc_dropout": ["0.1", "0.2"],
            "activation": ["relu", "tanh"],
            "learning_rate": ["0.002", "0.004", "0.008"],
            "batch_size": [64],
        },
    }
    config_path = tmp_path / "rc.json"
    config_path.write_text(json.dumps(run_config))
    out = tmp_path / "out"
    code = cli.main(["tune", "--config", str(config_path),
                     "--output-dir", str(out)])
    assert code == 0
    payload = json.loads((out / "archive.json").read_text())
    best = min(e["error_rate"] for e in payload["entries"])
    ok = best <= 0.05
    report(7, ok, f"budget-30 tuning on the bundled corpus, best error {best}")


def test_criterion_8_byte_identical_runs(tmp_path):
    run_config = {
        "seed_number": 40,
        "ratio_init": 0.9,
        "iteration_budget": 250,
        "initial_acceptance_probability": 0.5,
        "cooling_rate": 0.8,
        "objective_kind": "synthetic:sphere_proxy",
        "space": RESTRICTED_36,
    }
    config_path = tmp_path / "rc.json"
    config_path.write_text(json.dumps(run_config))
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert cli.main(["tune", "--config", str(config_path),
                         "--output-dir", str(out)]) == 0
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("trace.jsonl", "archive.json", "archive.txt")
    )
    report(8, same, "trace and archive files byte-identical across two runs")


TABLE2 = {"mr": 18765, "cr": 5340, "trec": 9592}


def test_criterion_9_dataset_loaders(tmp_path):
    mr_pos = os.environ.get("ANNEALTUNE_MR_POS")
    mr_neg = os.environ.get("ANNEALTUNE_MR_NEG")
    cr_path = os.environ.get("ANNEALTUNE_CR")
    trec_train = os.environ.get("ANNEALTUNE_TREC_TRAIN")
    trec_test = os.environ.get("ANNEALTUNE_TREC_TEST")
    if not any([mr_pos, cr_path, trec_train]):
        pytest.skip(
            "criterion 9 skipped: set ANNEALTUNE_MR_POS/.._MR_NEG, "
            "ANNEALTUNE_CR, ANNEALTUNE_TREC_TRAIN/.._TREC_TEST to run"
        )

    def vocab_size(**manifest):
        # split as a run config naming this manifest would be: fold 0 of 10
        # for mr and cr, the test file for trec
        path = tmp_path / f"{manifest['kind']}.json"
        path.write_text(json.dumps(manifest))
        return cli.prepare_corpus(str(path), 0.9, 40).vocab_size

    checks = []
    if mr_pos and mr_neg:
        size = len(load_mr(mr_pos, mr_neg))
        vocab = vocab_size(kind="mr", pos=mr_pos, neg=mr_neg)
        checks.append(("mr", size == 10662, size, vocab))
    if cr_path:
        size = len(load_cr(cr_path))
        checks.append(("cr", size == 3775, size, vocab_size(kind="cr", path=cr_path)))
    if trec_train and trec_test:
        train, test, names = load_trec(trec_train, trec_test)
        total = len(train) + len(test)
        vocab = vocab_size(kind="trec", train=trec_train, test=trec_test)
        checks.append(("trec", total == 5952 and len(names) == 6, total, vocab))
    for name, exact_ok, size, vocab in checks:
        ratio = vocab / TABLE2[name]
        print(
            f"  {name}: size {size}, vocabulary {vocab} "
            f"({ratio:.3f} of the published count; not hard-asserted)"
        )
    ok = all(c[1] for c in checks)
    report(9, ok, f"exact sample counts for {[c[0] for c in checks]}")


def test_criterion_10_full_scale_results_out_of_scope():
    with open(README, "r", encoding="utf-8") as fh:
        readme = fh.read().lower()
    stated = "not reproducible at desk scale" in readme
    report(
        10,
        stated,
        "README states the full-scale accuracy comparison is out of scope; "
        "property and oracle criteria 1-8 stand in for it",
    )
