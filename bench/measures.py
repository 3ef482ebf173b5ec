"""Arithmetic the benchmark reports with: hypervolume, the tail-percentile
rule, and span self time.

Kept free of any annealtune import so it can be tested on its own.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def hypervolume(
    points: Iterable[tuple[float, float]], reference: tuple[float, float] = (1.0, 1.0)
) -> float:
    """Area dominated by ``points`` inside the box bounded by ``reference``.

    Both coordinates are minimized. Dominated and duplicate points add
    nothing; points on or beyond the reference in either coordinate are
    ignored.
    """
    rx, ry = reference
    inside = sorted({(x, y) for x, y in points if x < rx and y < ry})
    front: list[tuple[float, float]] = []
    for x, y in inside:  # ascending x; keep only strict improvements in y
        if not front or y < front[-1][1]:
            front.append((x, y))
    area = 0.0
    for i, (x, y) in enumerate(front):
        next_x = front[i + 1][0] if i + 1 < len(front) else rx
        area += (next_x - x) * (ry - y)
    return area


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """The highest percentile that has at least TAIL_BEYOND samples beyond it.

    Sorted ascending, the sample at 0-based rank k has n - 1 - k samples
    above it, so the highest admissible rank is n - 1 - TAIL_BEYOND. It is
    the nearest-rank percentile 100 * (k + 1) / n. Returns (value,
    percentile); needs more than TAIL_BEYOND samples.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    k = n - 1 - TAIL_BEYOND
    return sorted(samples)[k], 100.0 * (k + 1) / n


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> array:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.

    Spans are given in recording order (parent index -1 for a root), so a
    child comes after its parent and siblings come in start order.
    Children are clipped to their parent's interval and overlapping
    siblings are counted once.
    """
    n = len(starts)
    covered = array("d", bytes(8 * n))
    covered_until = array("d", [float("-inf")]) * n
    for i, parent in enumerate(parents):
        if parent < 0:
            continue
        lo = max(starts[i], starts[parent], covered_until[parent])
        hi = min(ends[i], ends[parent])
        if hi > lo:
            covered[parent] += hi - lo
            covered_until[parent] = hi
    return array("d", (max(0.0, ends[i] - starts[i] - covered[i]) for i in range(n)))
