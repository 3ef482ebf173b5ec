"""O(n^2) Pareto front: the reference that annealtune.pareto.ParetoArchive
is tested against."""

from annealtune.pareto import ObjectiveVector, dominates
from annealtune.search_space import Configuration


def brute_force_front(
    candidates: list[tuple[Configuration, ObjectiveVector]],
) -> set[tuple[Configuration, ObjectiveVector]]:
    """Keeps every candidate whose objectives no other candidate dominates;
    duplicate (config, objectives) pairs collapse to one."""
    unique = list(dict.fromkeys(candidates))
    front = set()
    for config, obj in unique:
        if not any(dominates(other, obj) for _, other in unique):
            front.add((config, obj))
    return front
