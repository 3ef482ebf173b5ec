"""Dominance rule, non-dominated archive, and two-objective scalarization.

Both objectives are minimized: validation error rate and estimated forward
FLOPs. The archive keeps insertion order internally so seeded draws from it
replay exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .search_space import Configuration


@dataclass(frozen=True)
class ObjectiveVector:
    error_rate: float
    flops: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError(f"error_rate {self.error_rate} outside [0, 1]")
        if self.flops < 0:
            raise ValueError(f"flops {self.flops} negative")


@dataclass(frozen=True)
class ArchiveEntry:
    config: Configuration
    objectives: ObjectiveVector
    iteration_found: int


class ArchiveAction(enum.Enum):
    ADDED = "added"
    REJECTED_DOMINATED = "rejected"


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """True iff a is no worse in both objectives and strictly better in one."""
    if a.error_rate > b.error_rate or a.flops > b.flops:
        return False
    return a.error_rate < b.error_rate or a.flops < b.flops


def scalar_deterioration(
    current: ObjectiveVector, candidate: ObjectiveVector, flops_max: int
) -> float:
    """Aggregate two-objective deterioration into one signed number.

    Per-objective deteriorations (error difference; FLOPs difference over
    the space-wide FLOPs ceiling) are averaged, keeping the result in
    [-1, 1] and antisymmetric under swapping current and candidate.
    """
    if flops_max <= 0:
        raise ValueError("flops_max must be positive")
    if flops_max < max(current.flops, candidate.flops):
        raise ValueError("flops_max below an observed flops value")
    total = (candidate.error_rate - current.error_rate) + (
        candidate.flops - current.flops
    ) / flops_max
    # halving a subnormal total can round it to zero; keep its sign then
    return 0.5 * total or total


@dataclass
class ParetoArchive:
    """Mutually non-dominated (configuration, objectives) entries.

    No two entries share a configuration; candidates tying an archived
    entry's objectives under a different configuration are kept.
    """

    entries: list[ArchiveEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def insert(self, candidate: ArchiveEntry) -> ArchiveAction:
        for entry in self.entries:
            if dominates(entry.objectives, candidate.objectives):
                return ArchiveAction.REJECTED_DOMINATED
            if (
                entry.objectives == candidate.objectives
                and entry.config == candidate.config
            ):
                return ArchiveAction.REJECTED_DOMINATED
        self.entries = [
            entry
            for entry in self.entries
            if not dominates(candidate.objectives, entry.objectives)
            and entry.config != candidate.config
        ]
        self.entries.append(candidate)
        return ArchiveAction.ADDED

    def best_error_rate(self) -> float:
        if not self.entries:
            return float("inf")
        return min(entry.objectives.error_rate for entry in self.entries)

    def front(self) -> list[ArchiveEntry]:
        """Entries sorted by error rate, then flops, then configuration, so
        the first k are the top-k by error rate."""
        return sorted(
            self.entries,
            key=lambda e: (
                e.objectives.error_rate, e.objectives.flops, e.config.sort_key()
            ),
        )
