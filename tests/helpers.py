"""Shared test oracles and builders: finite-difference gradients,
comparison metrics, trace lines, and evaluators with the run
configuration's defaults. numpy and the text CNN are imported only by the
helpers that use them, so numpy-free tests can import this module."""

import json
from dataclasses import fields

from annealtune.evaluator import TextCnnEvaluator
from annealtune.search_space import RunConfig

#: RunConfig's field defaults (MISSING for required fields)
RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}

TRAINING_SETTINGS = (
    "max_epochs",
    "embedding_dim",
    "early_stop_margin",
    "early_stop_patience",
)


def text_cnn_evaluator(**kwargs) -> TextCnnEvaluator:
    """A TextCnnEvaluator that takes each training setting not given from
    RunConfig's defaults."""
    settings = {name: RUN_DEFAULTS[name] for name in TRAINING_SETTINGS}
    return TextCnnEvaluator(**{**settings, **kwargs})


def finite_difference_gradients(model, ids, labels, mask_seed, eps=1e-4):
    """Central differences of a (B, n) batch's summed loss over every
    parameter, replaying identical dropout masks through a reseeded
    generator."""
    import numpy as np

    from annealtune.textcnn import forward, loss

    def loss_at() -> float:
        rng = np.random.default_rng(mask_seed)
        probs, _ = forward(model, ids, train_mode=True, rng=rng)
        return loss(probs, labels)

    grads = {}
    for name, arr in model.parameters().items():
        grad = np.zeros_like(arr)
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            f_plus = loss_at()
            flat[i] = original - eps
            f_minus = loss_at()
            flat[i] = original
            gflat[i] = (f_plus - f_minus) / (2 * eps)
        grads[name] = grad
    return grads


def relative_error(a, b) -> float:
    import numpy as np

    denom = max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def trace_line(record) -> str:
    """What ``json.dumps`` writes for a StepRecord's trace object; the
    oracle for the line ``cli.trace_jsonl`` writes for the record."""
    return json.dumps({
        "iteration": record.iteration,
        "temperature": record.temperature,
        "current": record.current_config.as_dict(),
        "current_objectives": [
            record.current_objectives.error_rate, record.current_objectives.flops
        ],
        "candidate": record.candidate_config.as_dict(),
        "candidate_objectives": [
            record.candidate_objectives.error_rate, record.candidate_objectives.flops
        ],
        "delta_f": record.delta_f,
        "probability": record.probability,
        "accepted": record.accepted,
        "archive": record.archive_action.value,
    })
