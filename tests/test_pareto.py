import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_pareto import brute_force_front

from annealtune.pareto import (
    ArchiveAction,
    ArchiveEntry,
    ObjectiveVector,
    ParetoArchive,
    dominates,
    scalar_deterioration,
)
from annealtune.search_space import Configuration

vectors = st.builds(
    ObjectiveVector,
    error_rate=st.floats(0.0, 1.0, allow_nan=False),
    flops=st.integers(0, 10**6),
)


def cfg(tag) -> Configuration:
    return Configuration((("id", tag),))


def entry(tag, error_rate, flops, iteration=0) -> ArchiveEntry:
    return ArchiveEntry(cfg(tag), ObjectiveVector(error_rate, flops), iteration)


class TestDominates:
    def test_strictly_better_in_both(self):
        assert dominates(ObjectiveVector(0.1, 100), ObjectiveVector(0.2, 200))

    def test_trade_off_is_incomparable(self):
        a, b = ObjectiveVector(0.1, 200), ObjectiveVector(0.2, 100)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_equal_vectors_never_dominate(self):
        v = ObjectiveVector(0.1, 100)
        assert not dominates(v, v)

    def test_better_in_one_equal_in_other(self):
        assert dominates(ObjectiveVector(0.1, 100), ObjectiveVector(0.1, 101))

    @settings(max_examples=200)
    @given(vectors)
    def test_irreflexive(self, v):
        assert not dominates(v, v)

    @settings(max_examples=200)
    @given(vectors, vectors)
    def test_asymmetric(self, a, b):
        assert not (dominates(a, b) and dominates(b, a))

    @settings(max_examples=200)
    @given(vectors, vectors, vectors)
    def test_transitive(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestScalarDeterioration:
    def test_identical_vectors_give_zero(self):
        v = ObjectiveVector(0.37, 4200)
        assert scalar_deterioration(v, v, 10_000) == 0.0

    def test_error_only_deterioration(self):
        # 0.5 * ((0.4 - 0.2) + 0) regardless of the normalizer
        for flops_max in (1, 999, 10**9):
            assert scalar_deterioration(
                ObjectiveVector(0.2, 0), ObjectiveVector(0.4, 0), flops_max
            ) == pytest.approx(0.1)

    def test_mixed_deterioration_hand_value(self):
        # 0.5 * (0.1 + 1000/10000) = 0.1, computed by hand
        delta = scalar_deterioration(
            ObjectiveVector(0.2, 1000), ObjectiveVector(0.3, 2000), 10_000
        )
        assert delta == pytest.approx(0.1)

    @settings(max_examples=200)
    @given(vectors, vectors)
    def test_antisymmetry(self, a, b):
        m = 10**6
        assert scalar_deterioration(a, b, m) == pytest.approx(
            -scalar_deterioration(b, a, m), abs=1e-12
        )

    @settings(max_examples=200)
    @given(vectors, vectors)
    @example(ObjectiveVector(5e-324, 0), ObjectiveVector(0.0, 0))
    def test_dominating_candidate_is_negative(self, a, b):
        if dominates(b, a):
            assert scalar_deterioration(a, b, 10**6) < 0.0


class TestArchiveInsert:
    def test_empty_archive_accepts_anything(self):
        archive = ParetoArchive()
        assert archive.insert(entry("a", 0.5, 500)) is ArchiveAction.ADDED
        assert len(archive) == 1

    def test_best_error_rate_is_the_lowest_archived(self):
        archive = ParetoArchive()
        archive.insert(entry("a", 0.3, 100))
        archive.insert(entry("b", 0.1, 900))
        assert archive.best_error_rate() == 0.1

    def test_dominated_candidate_rejected(self):
        archive = ParetoArchive()
        archive.insert(entry("a", 0.1, 100))
        assert (
            archive.insert(entry("b", 0.2, 200)) is ArchiveAction.REJECTED_DOMINATED
        )
        assert len(archive) == 1

    def test_dominating_candidate_sweeps_both(self):
        archive = ParetoArchive()
        archive.insert(entry("a", 0.1, 300))
        archive.insert(entry("b", 0.3, 100))
        assert len(archive) == 2
        # (0.05, 50) dominates both archived vectors (hand-checked)
        assert archive.insert(entry("c", 0.05, 50)) is ArchiveAction.ADDED
        assert len(archive) == 1
        assert archive.entries[0].config == cfg("c")

    def test_equal_objectives_different_config_kept(self):
        archive = ParetoArchive()
        archive.insert(entry("a", 0.2, 100))
        assert archive.insert(entry("b", 0.2, 100)) is ArchiveAction.ADDED
        assert len(archive) == 2

    def test_exact_duplicate_rejected(self):
        archive = ParetoArchive()
        archive.insert(entry("a", 0.2, 100))
        assert (
            archive.insert(entry("a", 0.2, 100)) is ArchiveAction.REJECTED_DOMINATED
        )
        assert len(archive) == 1

    def test_mutual_nondomination_invariant(self):
        rng = random.Random(5)
        archive = ParetoArchive()
        for i in range(500):
            archive.insert(entry(i, rng.random(), rng.randrange(10**6)))
            for x in archive.entries:
                for y in archive.entries:
                    assert not dominates(x.objectives, y.objectives) or x is y


class TestArchiveEqualsBruteForce:
    def stream(self, seed, count=200):
        rng = random.Random(seed)
        return [
            (cfg(i), ObjectiveVector(rng.random(), rng.randrange(10**6)))
            for i in range(count)
        ]

    @pytest.mark.parametrize("seed", range(10))
    def test_archive_matches_oracle(self, seed):
        archive = ParetoArchive()
        offered = self.stream(seed)
        for config, objectives in offered:
            archive.insert(ArchiveEntry(config, objectives, 0))
        expected = brute_force_front(offered)
        got = {(e.config, e.objectives) for e in archive.entries}
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0, allow_nan=False), st.integers(0, 1000)
            ),
            max_size=60,
        )
    )
    def test_archive_matches_oracle_property(self, raw):
        offered = [
            (cfg(i), ObjectiveVector(e, f)) for i, (e, f) in enumerate(raw)
        ]
        archive = ParetoArchive()
        for config, objectives in offered:
            archive.insert(ArchiveEntry(config, objectives, 0))
        assert {(e.config, e.objectives) for e in archive.entries} == (
            brute_force_front(offered)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                # few values, so ties and shared flops occur
                st.sampled_from([0.0, 0.1, 0.1 + 0.2, 0.3, 0.5, 1.0]),
                st.integers(0, 6),
            ),
            max_size=40,
        )
    )
    def test_archive_matches_oracle_with_ties(self, raw):
        # one configuration per pair, as ``oracle`` offers them
        offered = [(cfg(i), ObjectiveVector(e, f)) for i, (e, f) in enumerate(raw)]
        archive = ParetoArchive()
        for config, objectives in offered:
            archive.insert(ArchiveEntry(config, objectives, 0))
        assert {(e.config, e.objectives) for e in archive.entries} == (
            brute_force_front(offered)
        )

    def test_ties_kept_and_duplicates_collapse(self):
        offered = [
            (cfg("a"), ObjectiveVector(0.2, 10)),
            (cfg("b"), ObjectiveVector(0.2, 10)),
            (cfg("a"), ObjectiveVector(0.2, 10)),
            (cfg("c"), ObjectiveVector(0.2, 11)),
            (cfg("d"), ObjectiveVector(0.1, 20)),
        ]
        archive = ParetoArchive()
        for config, objectives in offered:
            archive.insert(ArchiveEntry(config, objectives, 0))
        assert [(e.config, e.objectives) for e in archive.entries] == [
            offered[0], offered[1], offered[4]
        ]


class TestFront:
    def test_empty(self):
        assert ParetoArchive().front() == []

    def test_sorted_by_error_then_flops(self):
        archive = ParetoArchive()
        archive.insert(entry("a", 0.3, 100))
        archive.insert(entry("b", 0.1, 900))
        front = archive.front()
        assert [e.objectives for e in front] == [
            ObjectiveVector(0.1, 900),
            ObjectiveVector(0.3, 100),
        ]

    def test_length_matches_archive(self):
        rng = random.Random(9)
        archive = ParetoArchive()
        for i in range(100):
            archive.insert(entry(i, rng.random(), rng.randrange(1000)))
        assert len(archive.front()) == len(archive)


def test_objective_vector_bounds():
    with pytest.raises(ValueError):
        ObjectiveVector(-0.1, 10)
    with pytest.raises(ValueError):
        ObjectiveVector(1.1, 10)
    with pytest.raises(ValueError):
        ObjectiveVector(0.5, -1)
