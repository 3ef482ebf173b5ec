"""Tests for the benchmark's own arithmetic.

    python3 -m pytest bench/test_measures.py
"""

import pytest

from measures import hypervolume, self_times, tail


class TestHypervolume:
    def test_single_point(self):
        assert hypervolume([(0.5, 0.5)]) == pytest.approx(0.25)

    def test_two_point_staircase(self):
        # 0.8*0.4 + 0.4*0.8 - 0.4*0.4 by inclusion-exclusion
        assert hypervolume([(0.2, 0.6), (0.6, 0.2)]) == pytest.approx(0.48)

    def test_three_point_staircase_in_any_order(self):
        points = [(0.5, 0.25), (0.0, 0.75), (0.25, 0.5)]
        # strips: [0, .25) x .25, [.25, .5) x .5, [.5, 1) x .75
        assert hypervolume(points) == pytest.approx(0.0625 + 0.125 + 0.375)

    def test_dominated_and_duplicate_points_add_nothing(self):
        front = [(0.2, 0.6), (0.6, 0.2)]
        extra = front + [(0.7, 0.7), (0.2, 0.6), (0.6, 0.3)]
        assert hypervolume(extra) == pytest.approx(hypervolume(front))

    def test_points_at_or_beyond_the_reference_are_ignored(self):
        assert hypervolume([(1.0, 0.0), (0.0, 1.0), (1.5, 0.5)]) == 0.0
        assert hypervolume([]) == 0.0

    def test_ideal_point_fills_the_box(self):
        assert hypervolume([(0.0, 0.0)]) == pytest.approx(1.0)

    def test_custom_reference(self):
        assert hypervolume([(1.0, 2.0)], reference=(3.0, 4.0)) == pytest.approx(4.0)


class TestTail:
    def test_twenty_samples_give_the_tenth(self):
        value, pct = tail(list(range(20, 0, -1)))
        assert value == 10  # ten samples (11..20) lie beyond it
        assert pct == pytest.approx(50.0)

    def test_hundred_samples_give_p90(self):
        samples = [float(i) for i in range(1, 101)]
        value, pct = tail(samples)
        assert value == 90.0
        assert sum(s > value for s in samples) == 10
        assert pct == pytest.approx(90.0)

    def test_eleven_samples_give_the_minimum(self):
        value, pct = tail(list(range(11)))
        assert value == 0
        assert pct == pytest.approx(100 / 11)

    def test_ten_samples_are_too_few(self):
        with pytest.raises(ValueError):
            tail(list(range(10)))

    def test_exactly_ten_lie_beyond_for_every_size(self):
        for n in range(11, 60):
            samples = [float(i) for i in range(n)]
            value, _ = tail(samples)
            assert sum(s > value for s in samples) == 10


class TestSelfTimes:
    def test_leaf_keeps_its_duration(self):
        assert list(self_times([1.0], [3.5], [-1])) == [2.5]

    def test_nested_chain(self):
        # root [0, 10] > child [2, 7] > grandchild [3, 4]
        own = self_times([0.0, 2.0, 3.0], [10.0, 7.0, 4.0], [-1, 0, 1])
        assert list(own) == pytest.approx([5.0, 4.0, 1.0])
        assert sum(own) == pytest.approx(10.0)

    def test_child_filling_its_parent_leaves_no_self_time(self):
        own = self_times([0.0, 0.0], [4.0, 4.0], [-1, 0])
        assert list(own) == [0.0, 4.0]

    def test_siblings_are_subtracted_together(self):
        own = self_times([0.0, 1.0, 5.0], [10.0, 3.0, 9.0], [-1, 0, 0])
        assert list(own) == pytest.approx([4.0, 2.0, 4.0])

    def test_overlapping_siblings_count_once(self):
        own = self_times([0.0, 1.0, 2.0], [10.0, 4.0, 6.0], [-1, 0, 0])
        assert own[0] == pytest.approx(5.0)  # covered: [1, 6]

    def test_child_reaching_past_its_parent_is_clipped(self):
        own = self_times([0.0, 3.0], [5.0, 7.0], [-1, 0])
        assert own[0] == pytest.approx(3.0)

    def test_two_roots_are_independent(self):
        own = self_times([0.0, 1.0, 10.0], [5.0, 2.0, 12.0], [-1, 0, -1])
        assert list(own) == pytest.approx([4.0, 1.0, 2.0])
