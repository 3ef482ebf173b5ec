"""The synthetic objectives and the FLOPs count in their plainest form: the
reference that annealtune.evaluator's SyntheticEvaluator.evaluate and
estimate_flops are tested against. Nothing is built ahead or remembered:
each call takes a configuration as a plain name -> value dict and finds
each value's index in its domain."""

from annealtune.search_space import WINDOWS


def reference_flops(
    config, sentence_length: int, embedding_dim: int, class_count: int
) -> tuple[tuple[int, ...], int]:
    """(conv FLOPs per window, ascending window size; fc FLOPs): each
    multiply-accumulate counts as 2 operations."""
    n, k = sentence_length, embedding_dim
    conv = []
    total_filters = 0
    for w in WINDOWS:
        if w > n:
            raise ValueError(f"window {w} exceeds sentence length {n}")
        f = int(config[f"kernel_count_w{w}"])
        conv.append(f * (n - w + 1) * 2 * w * k)
        total_filters += f
    units = int(config["fc_units"])
    return tuple(conv), 2 * total_filters * units + 2 * units * class_count


def reference_error_rate(space, objective_kind: str, config) -> float:
    """synthetic:sphere_proxy's or synthetic:deceptive_trap's error rate of
    ``config``, from the index fractions of the domains with two or more
    values, added left to right."""
    fractions = [
        d.values.index(config[d.name]) / (len(d.values) - 1)
        for d in space.domains
        if len(d.values) > 1
    ]
    total = 0.0
    if objective_kind == "synthetic:sphere_proxy":
        for f in fractions:
            total += f * f
        return total / len(fractions)
    for f in fractions:
        total += f
    t = total / len(fractions)
    return 0.05 if t >= 1.0 else 0.25 + 0.5 * t
