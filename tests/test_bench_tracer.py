"""The benchmark's traced run wraps annealtune names from outside the package;
renaming or moving one of them must fail here, not only in a traced run."""

import importlib
import json
import os

from annealtune import annealer, cli, evaluator, pareto, textcnn

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")

TRACED = (
    annealer,
    cli,
    evaluator,
    pareto,
    textcnn,
    evaluator.SyntheticEvaluator,
    evaluator.TextCnnEvaluator,
    evaluator.EvaluationCache,
    pareto.ParetoArchive,
)


def snapshot():
    return [dict(vars(owner)) for owner in TRACED]


def test_instrument_then_restore(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    tracer = importlib.import_module("tracer")
    before = snapshot()
    spans = tracer.Tracer()
    try:
        tracer.instrument(spans)
        assert snapshot() != before
        # a small traced text-CNN tune run exercises every hook's reads
        config = tmp_path / "rc.json"
        config.write_text(json.dumps({
            "seed_number": 40,
            "ratio_init": 0.9,
            "iteration_budget": 6,
            "initial_acceptance_probability": 0.5,
            "cooling_rate": 0.8,
            "objective_kind": "textcnn",
            "probe_count": 2,
            "max_epochs": 3,
            "space": {
                "kernel_count_w3": [32], "kernel_count_w4": [32],
                "kernel_count_w5": [32], "conv_dropout": ["0.1"],
                "fc_units": [16], "fc_dropout": ["0.1"],
                "activation": ["relu", "tanh"],
                "learning_rate": ["0.002", "0.004"], "batch_size": [64],
            },
        }))
        assert cli.main(["tune", "--config", str(config), "--output-dir",
                         str(tmp_path / "out"), "--cache",
                         str(tmp_path / "cache.jsonl")]) == 0
    finally:
        spans.restore()
    assert snapshot() == before
    calls = {name: row["calls"] for name, row in spans.summary().items()}
    for name in ("cli.main", "cli.tune", "annealer.run", "annealer.step",
                 "textcnn.train", "evaluator.evaluate", "pareto.insert",
                 "corpus.make_splits"):
        assert calls.get(name, 0) > 0, name
    assert spans.counters["evaluator.cache.get.calls"] > 0
