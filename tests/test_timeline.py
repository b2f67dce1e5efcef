"""Tests for the render timeline and split-read mechanics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import COUNTER_ORDER, FrameRender, RenderTimeline, merge_timelines


def make_stats(amount=100, render_time=0.001, spec=pc.RAS_8X4_TILES):
    inc = pc.CounterIncrement()
    inc.add(spec, amount)
    return FrameStats(increment=inc, pixels_touched=amount, render_time_s=render_time)


CID = pc.RAS_8X4_TILES.counter_id


class TestFrameRender:
    def test_end_time(self):
        frame = FrameRender(start_s=1.0, stats=make_stats(render_time=0.002))
        assert frame.end_s == pytest.approx(1.002)

    def test_progress_clamps(self):
        frame = FrameRender(start_s=1.0, stats=make_stats(render_time=0.002))
        assert frame.progress(0.5) == 0.0
        assert frame.progress(1.001) == pytest.approx(0.5)
        assert frame.progress(2.0) == 1.0

    def test_zero_duration_completes_instantly(self):
        frame = FrameRender(start_s=1.0, stats=make_stats(render_time=0.0))
        assert frame.progress(1.0 + 1e-12) == 1.0


class TestValuesAt:
    def test_empty_timeline_reads_zero(self):
        timeline = RenderTimeline()
        values = timeline.values_at(5.0)
        assert all(v == 0 for v in values.values())
        assert set(values) == set(COUNTER_ORDER)

    def test_before_first_frame_is_zero(self):
        timeline = RenderTimeline()
        timeline.add_render(1.0, make_stats(100))
        assert timeline.values_at(0.5)[CID] == 0

    def test_after_frame_full_increment(self):
        timeline = RenderTimeline()
        timeline.add_render(1.0, make_stats(100, render_time=0.001))
        assert timeline.values_at(1.5)[CID] == 100

    def test_mid_render_partial_accrual(self):
        timeline = RenderTimeline()
        timeline.add_render(1.0, make_stats(100, render_time=0.010))
        assert timeline.values_at(1.005)[CID] == 50

    def test_split_parts_sum_exactly(self):
        """The two halves of a split read must sum to the full increment
        (Algorithm 1's recombination relies on this)."""
        timeline = RenderTimeline()
        timeline.add_render(1.0, make_stats(997, render_time=0.010))
        before = timeline.values_at(0.999)[CID]
        mid = timeline.values_at(1.003)[CID]
        after = timeline.values_at(1.2)[CID]
        assert (mid - before) + (after - mid) == 997

    def test_multiple_frames_accumulate(self):
        timeline = RenderTimeline()
        for i in range(5):
            timeline.add_render(float(i), make_stats(10, render_time=0.001))
        assert timeline.values_at(10.0)[CID] == 50

    def test_out_of_order_insertion_is_sorted(self):
        timeline = RenderTimeline()
        timeline.add_render(2.0, make_stats(10, render_time=0.001))
        timeline.add_render(1.0, make_stats(5, render_time=0.001))
        assert timeline.values_at(1.5)[CID] == 5
        assert timeline.values_at(3.0)[CID] == 15

    @given(st.lists(st.tuples(st.floats(0, 10), st.integers(1, 1000)), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_values_monotone_in_time(self, frames):
        timeline = RenderTimeline()
        for start, amount in frames:
            timeline.add_render(start, make_stats(amount, render_time=0.005))
        times = sorted({t for t, _ in frames} | {0.0, 5.0, 10.0, 11.0})
        values = [timeline.values_at(t)[CID] for t in times]
        assert values == sorted(values)

    @given(st.lists(st.tuples(st.floats(0, 5), st.integers(1, 500)), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_final_value_is_total(self, frames):
        timeline = RenderTimeline()
        total = 0
        for start, amount in frames:
            timeline.add_render(start, make_stats(amount, render_time=0.002))
            total += amount
        assert timeline.values_at(100.0)[CID] == total


class TestQueries:
    def test_frames_between(self):
        timeline = RenderTimeline()
        for i in range(10):
            timeline.add_render(float(i), make_stats(1), label=f"f{i}")
        picked = timeline.frames_between(2.5, 5.5)
        assert [f.label for f in picked] == ["f3", "f4", "f5"]

    def test_end_time(self):
        timeline = RenderTimeline()
        timeline.add_render(1.0, make_stats(1, render_time=0.25))
        timeline.add_render(2.0, make_stats(1, render_time=0.003))
        assert timeline.end_time_s == pytest.approx(2.003)

    def test_busy_fraction(self):
        timeline = RenderTimeline()
        timeline.add_render(0.0, make_stats(1, render_time=0.5))
        assert timeline.busy_fraction(0.0, 1.0) == pytest.approx(0.5)
        assert timeline.busy_fraction(2.0, 3.0) == 0.0

    def test_busy_fraction_sees_in_flight_frame_on_first_call(self):
        # the in-flight window must come from a fresh index, not from the
        # max duration of the timeline before this frame was added
        timeline = RenderTimeline()
        timeline.add_render(0.0, make_stats(1, render_time=1.0))
        assert timeline.busy_fraction(0.5, 1.0) == 1.0
        assert timeline.busy_fraction(0.5, 1.0) == 1.0

    def test_busy_fraction_after_extending_timeline(self):
        timeline = RenderTimeline()
        timeline.add_render(0.0, make_stats(1, render_time=0.01))
        assert timeline.busy_fraction(0.5, 1.0) == 0.0
        timeline.add_render(0.2, make_stats(1, render_time=1.0))
        assert timeline.busy_fraction(0.5, 1.0) == 1.0

    def test_busy_fraction_capped_at_one(self):
        timeline = RenderTimeline()
        timeline.add_render(0.0, make_stats(1, render_time=1.0))
        timeline.add_render(0.0, make_stats(1, render_time=1.0))
        assert timeline.busy_fraction(0.0, 1.0) == 1.0

    def test_merge_timelines(self):
        a = RenderTimeline()
        a.add_render(1.0, make_stats(10))
        b = RenderTimeline()
        b.add_render(0.5, make_stats(5))
        merged = merge_timelines([a, b])
        assert merged.values_at(2.0)[CID] == 15
        assert [f.start_s for f in merged.frames] == [0.5, 1.0]


_SPECS = (pc.LRZ_FULL_8X8_TILES, pc.RAS_8X4_TILES, pc.VPC_PC_PRIMITIVES)


def stacked_values_at(timeline, ts):
    """The scalar oracle: one values_at per time, in COUNTER_ORDER columns."""
    rows = [[timeline.values_at(t)[cid] for cid in COUNTER_ORDER] for t in ts]
    return np.array(rows, dtype=np.int64).reshape(len(ts), len(COUNTER_ORDER))


def multi_counter_stats(amounts, render_time):
    inc = pc.CounterIncrement()
    for spec, amount in zip(_SPECS, amounts):
        inc.add(spec, amount)
    return FrameStats(increment=inc, pixels_touched=1, render_time_s=render_time)


#: starts on a coarse grid collide and meet other frames' ends exactly
_START = st.one_of(st.floats(0.0, 1.0), st.integers(0, 40).map(lambda i: i * 0.0025))
_DURATION = st.one_of(
    st.just(0.0), st.floats(0.0, 0.05), st.integers(1, 8).map(lambda i: i * 0.0025)
)
_AMOUNTS = st.tuples(*[st.integers(0, 10**9)] * len(_SPECS))


class TestValuesAtMany:
    """``values_at_many`` is ``values_at`` stacked, bit for bit."""

    @given(
        frames=st.lists(st.tuples(_START, _DURATION, _AMOUNTS), max_size=25),
        extra=st.lists(st.floats(-0.5, 1.5), max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_stacked_values_at(self, frames, extra):
        timeline = RenderTimeline()
        for start, duration, amounts in frames:  # in drawn order: unsorted
            timeline.add_render(start, multi_counter_stats(amounts, duration))
        ts = [-1.0] + extra
        for start, duration, _ in frames:
            ts += [start, start + duration, start + duration / 2]
        # queried first, so it must build the index itself
        many = timeline.values_at_many(ts)
        assert many.dtype == np.int64
        assert np.array_equal(many, stacked_values_at(timeline, ts))

    def test_empty_timeline(self):
        timeline = RenderTimeline()
        assert np.array_equal(timeline.values_at_many([0.0, 1.0]), np.zeros((2, 11)))
        assert timeline.values_at_many([]).shape == (0, len(COUNTER_ORDER))

    def test_half_way_rounds_half_to_even(self):
        timeline = RenderTimeline()
        timeline.add_render(1.0, multi_counter_stats((1, 3, 5), render_time=0.5))
        ts = [1.25]  # progress 0.5: 0.5 -> 0, 1.5 -> 2, 2.5 -> 2
        assert np.array_equal(timeline.values_at_many(ts), stacked_values_at(timeline, ts))
        row = timeline.values_at_many(ts)[0]
        assert [row[COUNTER_ORDER.index(s.counter_id)] for s in _SPECS] == [0, 2, 2]

    def test_zero_duration_frame_at_its_start(self):
        timeline = RenderTimeline()
        timeline.add_render(1.0, multi_counter_stats((7, 0, 0), render_time=0.0))
        ts = [1.0, 1.0 + 1e-12]
        assert np.array_equal(timeline.values_at_many(ts), stacked_values_at(timeline, ts))

    def test_follows_frames_added_after_a_query(self):
        timeline = RenderTimeline()
        timeline.add_render(1.0, multi_counter_stats((10, 0, 0), render_time=0.01))
        timeline.values_at_many([2.0])
        timeline.add_render(0.5, multi_counter_stats((0, 4, 0), render_time=1.0))
        ts = [0.75, 1.005, 2.0]
        assert np.array_equal(timeline.values_at_many(ts), stacked_values_at(timeline, ts))
