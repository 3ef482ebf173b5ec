"""Simulated-annealing control loop with a Pareto archive.

One temperature drives both objectives: multi-objective deterioration is
collapsed to a scalar before the Metropolis test. The initial and final
temperatures are calibrated from a short probe walk rather than set by
hand, the schedule is geometric, and the current solution periodically
returns to an archived base point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from .evaluator import ObjectiveEvaluator
from .pareto import (
    ArchiveAction,
    ArchiveEntry,
    ObjectiveVector,
    ParetoArchive,
    scalar_deterioration,
)
from .search_space import (FINAL_ACCEPTANCE_PROBABILITY, Configuration, RunConfig,
                           neighbor, random_configuration)

#: consecutive outer steps without a best-error improvement before stopping
STAGNATION_OUTER_STEPS = 3

#: probability of jumping back to a random archived solution at an
#: outer-step boundary
RETURN_TO_BASE_PROBABILITY = 0.5


class CalibrationError(RuntimeError):
    """The probe walk fixes no final temperature below the initial one."""


@dataclass(frozen=True)
class AnnealingSchedule:
    t_init: float
    t_final: float
    outer_iterations: float
    inner_iterations: float

    @property
    def outer_steps(self) -> int:
        """Coolings that bring t_init to t_final or below."""
        return math.ceil(self.outer_iterations)

    @property
    def inner_steps(self) -> int:
        """Evaluations per temperature step (budget may truncate the last)."""
        return max(1, round(self.inner_iterations))


def plan_schedule(
    t_init: float, t_final: float, cooling_rate: float, iteration_budget: int
) -> AnnealingSchedule:
    """Derive outer/inner iteration counts from the temperature range.

    outer = ln(t_final/t_init) / ln(cooling_rate); inner = budget / outer.
    Both are kept at full precision; ``plan`` truncates them to one decimal.
    Needs 0 < t_final < t_init, cooling_rate in (0, 1) and a budget of at
    least 1: callers pass constants or RunConfig's judged settings, and run
    raises CalibrationError unless t_final < t_init.
    """
    outer = math.log(t_final / t_init) / math.log(cooling_rate)
    return AnnealingSchedule(
        t_init=t_init,
        t_final=t_final,
        outer_iterations=outer,
        inner_iterations=iteration_budget / outer,
    )


def acceptance_probability(delta_f: float, temperature: float) -> float:
    """min(1, exp(-delta_f / T)); 1 whenever the move does not deteriorate."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if delta_f <= 0.0:
        return 1.0
    return math.exp(-delta_f / temperature)


def initial_temperature(delta_f_ave: float, acceptance: float) -> float:
    """Invert the acceptance law: the temperature at which an average
    deterioration (> 0) is accepted with the given probability (in (0, 1))."""
    return -delta_f_ave / math.log(acceptance)


def metropolis_accepts(
    delta_f: float, temperature: float, rng: random.Random
) -> tuple[bool, float]:
    """The acceptance test: improvements pass outright; any other move
    draws a uniform and passes when it does not exceed the acceptance
    probability (ties accept), so a zero deterioration always passes.
    Returns (accepted, probability)."""
    probability = acceptance_probability(delta_f, temperature)
    if delta_f < 0.0:
        return True, probability
    return rng.random() <= probability, probability


@dataclass(slots=True)
class StepRecord:
    """One annealing step, as its trace line reports it. Nothing mutates a
    record once built; it is not frozen, because a frozen dataclass is
    several times dearer to build and the loop builds one per step."""

    iteration: int
    temperature: float
    current_config: Configuration
    current_objectives: ObjectiveVector
    candidate_config: Configuration
    candidate_objectives: ObjectiveVector
    delta_f: float
    probability: float
    accepted: bool
    archive_action: ArchiveAction


def _propose(
    current: Configuration,
    current_objectives: ObjectiveVector,
    evaluator: ObjectiveEvaluator,
    rng: random.Random,
) -> tuple[Configuration, ObjectiveVector, float]:
    """A neighbor of ``current``, its objectives and its scalar deterioration
    from ``current_objectives``: the one proposal of the probe walk and of
    every annealing step."""
    candidate = neighbor(current, evaluator.space, rng)
    objectives = evaluator.evaluate(candidate)
    return candidate, objectives, scalar_deterioration(
        current_objectives, objectives, evaluator.flops_max
    )


def step(
    current: Configuration,
    current_objectives: ObjectiveVector,
    temperature: float,
    iteration: int,
    archive: ParetoArchive,
    evaluator: ObjectiveEvaluator,
    rng: random.Random,
) -> StepRecord:
    """Annealing step ``iteration`` from ``current`` at ``temperature``:
    propose a neighbor, evaluate it, offer it to the archive, and accept or
    reject it by the Metropolis rule. Changes nothing but the archive and
    ``rng``; the caller moves to the candidate when the record says accepted.

    The acceptance uniform is drawn for every candidate that does not
    improve, zero deteriorations included, and the evaluation comes before
    the archive insert, so an evaluator failure leaves the archive untouched.
    """
    candidate, candidate_objectives, delta_f = _propose(
        current, current_objectives, evaluator, rng
    )
    accepted, probability = metropolis_accepts(delta_f, temperature, rng)
    action = archive.insert(ArchiveEntry(candidate, candidate_objectives, iteration))
    return StepRecord(
        iteration=iteration,
        temperature=temperature,
        current_config=current,
        current_objectives=current_objectives,
        candidate_config=candidate,
        candidate_objectives=candidate_objectives,
        delta_f=delta_f,
        probability=probability,
        accepted=accepted,
        archive_action=action,
    )


@dataclass
class RunResult:
    archive: ParetoArchive
    #: the probe walk's mean positive deterioration, which fixed the schedule
    delta_f_ave: float
    schedule: AnnealingSchedule
    stop_reason: str
    evaluations: int


def run(
    run_config: RunConfig,
    evaluator: ObjectiveEvaluator,
    on_step: Callable[[StepRecord], object],
) -> RunResult:
    """Full tuning run: probe, plan, anneal, return the archive; hand
    ``on_step`` each step's record as the step ends, iteration 1's first.

    The probe walk takes probe_count steps from a random start; the mean of
    its positive scalar deteriorations fixes both temperatures through the
    inverted acceptance law. Its start doubles as the initial solution
    (evaluation 1 of the budget), so total evaluator calls stay within
    iteration_budget + probe_count. Stops on budget exhaustion, on cooling
    to t_final or below, or when the best archived error rate stagnates for
    STAGNATION_OUTER_STEPS consecutive outer steps.
    """
    rng = random.Random(run_config.seed_number)
    current = random_configuration(evaluator.space, rng)
    current_objectives = evaluator.evaluate(current)
    probe, probe_objectives = current, current_objectives
    # summed left to right, not by sum(): from Python 3.12 sum()
    # compensates float rounding, which moves the last bits
    total, count = 0.0, 0
    for _ in range(run_config.probe_count):
        probe, probe_objectives, delta = _propose(
            probe, probe_objectives, evaluator, rng
        )
        if delta > 0.0:
            total += delta
            count += 1
    if not count:
        raise CalibrationError(
            f"no deteriorating step in {run_config.probe_count} probes; "
            "retry with a larger probe_count"
        )
    delta_f_ave = total / count
    p_init = run_config.initial_acceptance_probability
    p_final = FINAL_ACCEPTANCE_PROBABILITY
    t_init = initial_temperature(delta_f_ave, p_init)
    t_final = initial_temperature(delta_f_ave, p_final)
    if not t_final < t_init:  # probabilities a few floats apart round together
        raise CalibrationError(
            f"acceptance probabilities {p_init!r} and {p_final!r} give one temperature"
        )
    schedule = plan_schedule(
        t_init, t_final, run_config.cooling_rate, run_config.iteration_budget
    )
    temperature = schedule.t_init
    archive = ParetoArchive()
    # the reused probe start is evaluation 1 of the budget
    iteration = 1
    action = archive.insert(ArchiveEntry(current, current_objectives, iteration))
    on_step(
        StepRecord(
            iteration=iteration,
            temperature=temperature,
            current_config=current,
            current_objectives=current_objectives,
            candidate_config=current,
            candidate_objectives=current_objectives,
            delta_f=0.0,
            probability=1.0,
            accepted=True,
            archive_action=action,
        )
    )

    best_error = archive.best_error_rate()
    stagnant = 0
    while True:
        # an outer step the budget cuts short ends the run
        steps = min(schedule.inner_steps, run_config.iteration_budget - iteration)
        for _inner in range(steps):
            iteration += 1
            record = step(
                current, current_objectives, temperature, iteration,
                archive, evaluator, rng,
            )
            on_step(record)
            if record.accepted:
                current = record.candidate_config
                current_objectives = record.candidate_objectives
        if steps < schedule.inner_steps:
            stop_reason = "budget"
            break
        temperature *= run_config.cooling_rate
        if temperature <= schedule.t_final:
            stop_reason = "temperature"
            break
        new_best = archive.best_error_rate()
        if new_best < best_error:
            best_error = new_best
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= STAGNATION_OUTER_STEPS:
                stop_reason = "stagnation"
                break
        if rng.random() < RETURN_TO_BASE_PROBABILITY:
            base = rng.choice(archive.entries)
            current, current_objectives = base.config, base.objectives
    return RunResult(
        archive=archive,
        delta_f_ave=delta_f_ave,
        schedule=schedule,
        stop_reason=stop_reason,
        evaluations=run_config.probe_count + iteration,  # start shared
    )
