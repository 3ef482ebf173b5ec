import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable

import pytest
from reference_pareto import brute_force_front

from annealtune.annealer import (
    CalibrationError,
    acceptance_probability,
    initial_temperature,
    plan_schedule,
    run,
    step,
)
from annealtune.evaluator import SyntheticEvaluator
from annealtune.pareto import (
    ArchiveAction,
    ObjectiveVector,
    ParetoArchive,
)
from annealtune.search_space import (
    DEFAULT_SPACE,
    FINAL_ACCEPTANCE_PROBABILITY,
    Configuration,
    ParamDomain,
    RunConfig,
    SearchSpace,
    enumerate_space,
    neighbor,
)

@dataclass
class StubEvaluator:
    space: SearchSpace
    fn: Callable[[Configuration], ObjectiveVector]
    flops_max: int = 1000
    calls: int = field(default=0, init=False)

    def evaluate(self, config: Configuration) -> ObjectiveVector:
        self.calls += 1
        return self.fn(config)


def two_value_space() -> SearchSpace:
    return SearchSpace((ParamDomain("x", ("lo", "hi")),))


def restricted_space(**subsets) -> SearchSpace:
    return DEFAULT_SPACE.restrict(subsets)


class TestAcceptanceProbability:
    def test_zero_deterioration_always_accepted(self):
        assert acceptance_probability(0.0, 0.123) == 1.0

    def test_improvement_capped_at_one(self):
        assert acceptance_probability(-0.3, 0.5) == 1.0

    def test_closed_form_point(self):
        assert acceptance_probability(0.577, 0.577) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            acceptance_probability(0.1, 0.0)
        with pytest.raises(ValueError):
            acceptance_probability(0.1, -1.0)

    def test_monotone_decreasing_in_deterioration(self):
        probs = [acceptance_probability(df, 0.4) for df in (0.01, 0.1, 0.5, 1.0)]
        assert probs == sorted(probs, reverse=True)
        assert len(set(probs)) == len(probs)

    def test_monotone_increasing_in_temperature(self):
        probs = [acceptance_probability(0.3, t) for t in (0.05, 0.2, 0.5, 2.0)]
        assert probs == sorted(probs)
        assert len(set(probs)) == len(probs)


class TestInitialTemperature:
    def test_anchor_inversion(self):
        # -0.4 / ln(0.5)
        assert initial_temperature(0.4, 0.5) == pytest.approx(0.57708, abs=5e-5)

    def test_final_probability_recovers_low_temperature(self):
        # p = exp(-0.4 / 0.12) makes the pair (0.4, p) invert to ~0.12
        p_final = math.exp(-0.4 / 0.12)
        assert p_final == pytest.approx(0.0357, abs=1e-4)
        assert initial_temperature(0.4, p_final) == pytest.approx(0.12, abs=1e-9)

    def test_log_of_inverse_e(self):
        assert initial_temperature(0.25, 1 / math.e) == pytest.approx(0.25)


class TestCalibration:
    """The probe walk that run takes before it anneals."""

    def alternating_evaluator(self) -> StubEvaluator:
        # neighbor() must flip the single mutable domain each probe, so the
        # walk alternates 0.1 <-> 0.9; every deterioration is exactly
        # 0.5 * 0.8 = 0.4
        space = two_value_space()

        def fn(config):
            return ObjectiveVector(0.1 if config["x"] == "lo" else 0.9, 100)

        return StubEvaluator(space=space, fn=fn, flops_max=100)

    def probed_run(self, evaluator, seed):
        """run with 10 probes at p_init 0.5; also the evaluator's call count
        when the first step record reached on_step."""
        config = replace(sphere_run_config(evaluator.space, seed), probe_count=10)
        calls_at_steps = []
        result = run(config, evaluator, lambda r: calls_at_steps.append(evaluator.calls))
        return result, calls_at_steps[0]

    def test_exact_average_deterioration(self):
        result, _ = self.probed_run(self.alternating_evaluator(), seed=40)
        assert result.delta_f_ave == 0.4
        assert result.schedule.t_init == pytest.approx(0.5770, abs=5e-4)
        assert result.schedule.t_final == pytest.approx(0.12, abs=5e-4)
        # the schedule satisfies the defining identity
        assert result.schedule.t_init == -0.4 / math.log(0.5)
        assert result.schedule.t_final == -0.4 / math.log(FINAL_ACCEPTANCE_PROBABILITY)

    def test_walk_evaluates_start_plus_probe_count(self):
        _, calls = self.probed_run(self.alternating_evaluator(), seed=1)
        assert calls == 11

    def test_no_deterioration_is_an_error(self):
        space = two_value_space()
        flat = StubEvaluator(space=space, fn=lambda c: ObjectiveVector(0.5, 100))
        with pytest.raises(CalibrationError, match="no deteriorating step in 10 probes"):
            self.probed_run(flat, seed=0)
        assert flat.calls == 11


class TestPlanSchedule:
    def test_invariant_relations(self):
        s = plan_schedule(0.577, 0.12, 0.95, 250)
        assert s.outer_iterations == pytest.approx(
            math.log(0.12 / 0.577) / math.log(0.95)
        )
        assert s.inner_iterations == pytest.approx(250 / s.outer_iterations)
        assert s.outer_steps == 31
        assert s.inner_steps == 8


def lo_start(space, evaluator):
    """The configuration x = "lo" and its objectives: the current solution
    each step below starts from."""
    current = space.configuration({"x": "lo"})
    return current, evaluator.evaluate(current)


class TestStep:
    def worse_neighbor_setup(self, delta_error=0.4):
        space = two_value_space()

        def fn(config):
            return ObjectiveVector(
                0.2 if config["x"] == "lo" else 0.2 + delta_error, 100
            )

        evaluator = StubEvaluator(space=space, fn=fn, flops_max=100)
        return space, evaluator

    def test_dominating_candidate_always_accepted_and_added(self):
        space = two_value_space()

        def fn(config):
            return ObjectiveVector(0.9 if config["x"] == "lo" else 0.1, 100)

        evaluator = StubEvaluator(space=space, fn=fn, flops_max=100)
        current, objectives = lo_start(space, evaluator)
        for seed in range(50):
            archive = ParetoArchive()
            record = step(current, objectives, 0.5, 2, archive, evaluator,
                          random.Random(seed))
            assert record.delta_f < 0
            assert record.accepted
            assert record.archive_action is ArchiveAction.ADDED
            assert record.candidate_config["x"] == "hi"
            assert record.iteration == 2
            assert archive.entries[0].iteration_found == 2

    def test_acceptance_frequency_matches_law(self):
        # deterioration 0.5*0.4 = 0.2 at T = 0.4: expect exp(-0.5)
        space, evaluator = self.worse_neighbor_setup()
        current, objectives = lo_start(space, evaluator)
        archive, rng = ParetoArchive(), random.Random(123)
        accepted = 0
        trials = 10_000
        for iteration in range(2, trials + 2):
            record = step(current, objectives, 0.4, iteration, archive, evaluator, rng)
            assert record.delta_f == pytest.approx(0.2)
            assert record.current_config is current
            accepted += record.accepted
        assert abs(accepted / trials - math.exp(-0.5)) <= 0.03

    def test_zero_deterioration_draws_one_uniform_and_is_accepted(self):
        space, evaluator = self.worse_neighbor_setup(delta_error=0.0)
        current, objectives = lo_start(space, evaluator)
        for seed in range(20):
            rng, expected = random.Random(seed), random.Random(seed)
            record = step(current, objectives, 0.4, 2, ParetoArchive(), evaluator, rng)
            assert record.delta_f == 0.0
            assert record.accepted and record.probability == 1.0
            # the neighbor move's draws, then exactly one acceptance uniform
            neighbor(current, space, expected)
            expected.random()
            assert rng.getstate() == expected.getstate()

    def test_same_seed_bit_identical_record(self):
        space, evaluator = self.worse_neighbor_setup()
        current, objectives = lo_start(space, evaluator)
        records = [
            step(current, objectives, 0.4, 2, ParetoArchive(), evaluator,
                 random.Random(7))
            for _ in range(2)
        ]
        assert records[0] == records[1]

    def test_evaluator_failure_leaves_state_unchanged(self):
        space = two_value_space()

        def boom(config):
            if config["x"] == "hi":
                raise RuntimeError("evaluation failed")
            return ObjectiveVector(0.2, 100)

        evaluator = StubEvaluator(space=space, fn=boom, flops_max=100)
        current, objectives = lo_start(space, evaluator)
        archive = ParetoArchive()
        with pytest.raises(RuntimeError, match="evaluation failed"):
            step(current, objectives, 0.5, 2, archive, evaluator, random.Random(0))
        assert len(archive) == 0


def sphere_run_config(space, seed, budget=250, cooling=0.8):
    return RunConfig(
        seed_number=seed,
        ratio_init=0.9,
        iteration_budget=budget,
        initial_acceptance_probability=0.5,
        cooling_rate=cooling,
        objective_kind="synthetic:sphere_proxy",
        space=space,
    )


SIXTEEN = dict(
    kernel_count_w3=[256, 100, 64, 32],
    kernel_count_w4=[32],
    kernel_count_w5=[32],
    conv_dropout=["0.1"],
    fc_units=[16],
    fc_dropout=["0.1"],
    activation=["relu", "tanh"],
    learning_rate=["0.001", "0.002"],
    batch_size=[64],
)


class TestRun:
    def test_budget_and_outer_step_counts(self):
        space = restricted_space(**SIXTEEN)
        config = sphere_run_config(space, seed=2, cooling=0.95)
        evaluator = SyntheticEvaluator(config)
        trace = []
        result = run(config, evaluator, trace.append)
        assert trace[-1].iteration <= 250
        distinct_temperatures = {r.temperature for r in trace}
        assert len(distinct_temperatures) <= 31
        assert result.schedule.outer_steps == 31

    def test_evaluator_call_budget(self):
        space = restricted_space(**SIXTEEN)
        config = sphere_run_config(space, seed=3)
        evaluator = SyntheticEvaluator(config)
        counting = StubEvaluator(space=space, fn=evaluator.evaluate,
                                 flops_max=evaluator.flops_max)
        result = run(config, counting, lambda record: None)
        assert counting.calls <= config.iteration_budget + config.probe_count
        assert result.evaluations == counting.calls

    def test_archive_equals_exhaustive_front_on_sixteen_configs(self):
        space = restricted_space(**SIXTEEN)
        config = sphere_run_config(space, seed=40)
        evaluator = SyntheticEvaluator(config)
        result = run(config, evaluator, lambda record: None)
        exhaustive = brute_force_front(
            [(c, evaluator.evaluate(c)) for c in enumerate_space(space)]
        )
        got = {(e.config, e.objectives) for e in result.archive.entries}
        assert got == exhaustive

    def test_archive_equals_front_of_trace_candidates(self):
        space = restricted_space(**SIXTEEN)
        config = sphere_run_config(space, seed=5)
        evaluator = SyntheticEvaluator(config)
        trace = []
        result = run(config, evaluator, trace.append)
        offered = [(r.candidate_config, r.candidate_objectives) for r in trace]
        assert {(e.config, e.objectives) for e in result.archive.entries} == (
            brute_force_front(offered)
        )

    def test_improving_steps_never_rejected(self):
        space = restricted_space(**SIXTEEN)
        config = sphere_run_config(space, seed=6)
        evaluator = SyntheticEvaluator(config)
        trace = []
        run(config, evaluator, trace.append)
        assert not any(r.delta_f < 0 and not r.accepted for r in trace)

    def test_temperature_sequence_geometric(self):
        space = restricted_space(**SIXTEEN)
        config = sphere_run_config(space, seed=7)
        evaluator = SyntheticEvaluator(config)
        trace = []
        result = run(config, evaluator, trace.append)
        temperatures = []
        for record in trace:
            if not temperatures or record.temperature != temperatures[-1]:
                temperatures.append(record.temperature)
        for prev, nxt in zip(temperatures, temperatures[1:]):
            assert nxt == prev * config.cooling_rate
        assert temperatures[0] == result.schedule.t_init

    def test_same_seed_identical_traces(self):
        space = restricted_space(**SIXTEEN)
        config = sphere_run_config(space, seed=40)
        evaluator = SyntheticEvaluator(config)
        t1, t2 = [], []
        r1 = run(config, evaluator, t1.append)
        r2 = run(sphere_run_config(space, seed=40), evaluator, t2.append)
        assert t1 == t2
        assert r1.archive.entries == r2.archive.entries

    def test_calibration_failure_propagates(self):
        space = two_value_space()
        flat = StubEvaluator(space=space, fn=lambda c: ObjectiveVector(0.5, 10))
        config = sphere_run_config(space, seed=1)
        with pytest.raises(CalibrationError):
            run(config, flat, lambda record: None)

    def test_inner_count_below_one_half_still_evaluates_each_outer_step(self):
        # textcnn-study's schedule: budget 4 over about 14.9 outer steps
        space = restricted_space(**SIXTEEN)
        config = sphere_run_config(space, seed=2, budget=4, cooling=0.9)
        trace = []
        result = run(config, SyntheticEvaluator(config), trace.append)
        assert result.schedule.inner_iterations < 0.5
        assert result.schedule.inner_steps == 1
        # after the start, which shares t_init, each outer step has one step
        temperatures = [r.temperature for r in trace[1:]]
        assert len(temperatures) == 3
        assert temperatures[0] == result.schedule.t_init
        for prev, nxt in zip(temperatures, temperatures[1:]):
            assert nxt == prev * config.cooling_rate
        assert result.evaluations == config.probe_count + 4

    def test_tiny_budget_stops_on_budget(self):
        # budget 3 exhausts before the stagnation window (3 outer steps) can
        space = restricted_space(**SIXTEEN)
        config = sphere_run_config(space, seed=8, budget=3, cooling=0.95)
        evaluator = SyntheticEvaluator(config)
        trace = []
        result = run(config, evaluator, trace.append)
        assert result.stop_reason == "budget"
        assert trace[-1].iteration == 3

    def cooled_run(self, cooling, budget):
        space = DEFAULT_SPACE
        config = sphere_run_config(space, seed=1, budget=budget, cooling=cooling)
        evaluator = SyntheticEvaluator(config)
        trace = []
        result = run(config, evaluator, trace.append)
        return result, [r.temperature for r in trace]

    def test_cooling_below_final_temperature_stops_on_temperature(self):
        result, temperatures = self.cooled_run(0.5923859632105352, budget=100)
        assert result.stop_reason == "temperature"
        assert len(set(temperatures)) == result.schedule.outer_steps == 3
        assert result.evaluations == 120
        assert temperatures[-1] * 0.5923859632105352 < result.schedule.t_final

    def test_cooling_onto_final_temperature_stops_on_temperature(self):
        # (ln 0.5 / ln 0.0357) ** (1/5): the fifth cooling lands exactly on
        # t_final, where the run stops rather than cooling a sixth time
        result, temperatures = self.cooled_run(0.7304800080798652, budget=51)
        assert temperatures[-1] * 0.7304800080798652 == result.schedule.t_final
        assert result.stop_reason == "temperature"
        assert len(set(temperatures)) == result.schedule.outer_steps == 5
        assert result.evaluations == 71
