"""Tests for the periodic counter sampler and the power model."""

import numpy as np
import pytest

from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import RenderTimeline
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.sampler import (
    DEFAULT_INTERVAL_S,
    IDLE,
    PcDelta,
    PerfCounterSampler,
    PowerModel,
    SystemLoad,
    deltas,
    nonzero_block_deltas,
    nonzero_deltas,
    nonzero_deltas_vectorized,
)
from repro.runtime.source import SamplerDeltaSource


def timeline_with_frames(times, amount=100, render_time=0.0005):
    timeline = RenderTimeline()
    for t in times:
        inc = pc.CounterIncrement()
        inc.add(pc.RAS_8X4_TILES, amount)
        timeline.add_render(
            t, FrameStats(increment=inc, pixels_touched=amount, render_time_s=render_time)
        )
    return timeline


def make_sampler(timeline, seed=0, interval=DEFAULT_INTERVAL_S):
    dev = open_kgsl(timeline, clock=DeviceClock())
    return PerfCounterSampler(dev, interval_s=interval, rng=np.random.default_rng(seed))


CID = pc.RAS_8X4_TILES.counter_id


class TestSamplingLoop:
    def test_default_interval_is_8ms(self):
        assert DEFAULT_INTERVAL_S == pytest.approx(0.008)

    def test_sample_count_matches_duration(self):
        sampler = make_sampler(timeline_with_frames([]))
        samples = sampler.sample_range(0.0, 1.0)
        assert 110 <= len(samples) <= 125  # 125 nominal ticks, some drop-free

    def test_read_times_strictly_increasing(self):
        sampler = make_sampler(timeline_with_frames([0.5]), seed=3)
        samples = sampler.sample_range(0.0, 2.0)
        times = [s.t for s in samples]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_values_monotone(self):
        sampler = make_sampler(timeline_with_frames([0.1, 0.2, 0.3]))
        samples = sampler.sample_range(0.0, 1.0)
        values = [s.values[CID] for s in samples]
        assert values == sorted(values)

    def test_total_delta_equals_rendered_amount(self):
        sampler = make_sampler(timeline_with_frames([0.1, 0.5], amount=123))
        samples = sampler.sample_range(0.0, 1.0)
        assert samples[-1].values[CID] == 246

    def test_invalid_interval_rejected(self):
        dev = open_kgsl(timeline_with_frames([]))
        with pytest.raises(ValueError):
            PerfCounterSampler(dev, interval_s=0.0)

    def test_reserves_all_selected_counters(self):
        timeline = timeline_with_frames([])
        dev = open_kgsl(timeline)
        PerfCounterSampler(dev)
        assert dev.ioctl_count == len(pc.SELECTED_COUNTERS)


class TestDeltas:
    def test_deltas_reconstruct_events(self):
        sampler = make_sampler(timeline_with_frames([0.25], amount=500))
        samples = sampler.sample_range(0.0, 0.5)
        nz = nonzero_deltas(samples)
        assert sum(d.values[CID] for d in nz) == 500

    def test_delta_merge(self):
        a = PcDelta(t=1.0, prev_t=0.99, values={CID: 30})
        b = PcDelta(t=1.01, prev_t=1.0, values={CID: 70})
        merged = b.merge(a)
        assert merged.values[CID] == 100
        assert merged.prev_t == 0.99
        assert merged.t == 1.01

    def test_delta_scaled(self):
        d = PcDelta(t=1.0, prev_t=0.9, values={CID: 101})
        assert d.scaled(0.5).values[CID] == 50 or d.scaled(0.5).values[CID] == 51

    def test_delta_bool(self):
        assert not PcDelta(t=1.0, prev_t=0.9, values={CID: 0})
        assert PcDelta(t=1.0, prev_t=0.9, values={CID: 1})

    def test_merge_rejects_swapped_order(self):
        a = PcDelta(t=1.0, prev_t=0.99, values={CID: 30})
        b = PcDelta(t=1.01, prev_t=1.0, values={CID: 70})
        with pytest.raises(ValueError, match="earlier delta"):
            a.merge(b)  # swapped: a precedes b, so b cannot be the argument

    def test_merge_allows_equal_timestamps(self):
        # split() halves share timestamps; merging them must stay legal
        d = PcDelta(t=1.0, prev_t=0.9, values={CID: 10})
        part, remainder = d.split(0.5)
        merged = remainder.merge(part)
        assert merged.t == d.t and merged.prev_t == d.prev_t

    def test_scaled_floors(self):
        d = PcDelta(t=1.0, prev_t=0.9, values={CID: 101})
        assert d.scaled(0.5).values[CID] == 50  # floor, never bankers-rounded

    def test_split_round_trips_odd_values(self):
        for v in (1, 7, 101, 999, 12345):
            d = PcDelta(t=1.0, prev_t=0.9, values={CID: v}, missing=(77,), gap=True)
            part, remainder = d.split(0.5)
            assert part.values[CID] + remainder.values[CID] == v
            merged = remainder.merge(part)
            assert merged.values == d.values
            assert merged.missing == d.missing
            assert merged.gap == d.gap

    def test_split_rejects_bad_factor(self):
        d = PcDelta(t=1.0, prev_t=0.9, values={CID: 10})
        with pytest.raises(ValueError):
            d.split(1.5)
        with pytest.raises(ValueError):
            d.split(-0.1)

    def test_deltas_pairwise(self):
        sampler = make_sampler(timeline_with_frames([]))
        samples = sampler.sample_range(0.0, 0.1)
        assert len(deltas(samples)) == len(samples) - 1


class TestMaskedGet:
    SPEC = pc.RAS_8X4_TILES

    def test_present_counter_reads_value(self):
        d = PcDelta(t=1.0, prev_t=0.9, values={CID: 42})
        assert d.get(self.SPEC) == 42

    def test_absent_unmasked_counter_reads_zero(self):
        # never-selected counter: no change was observed because none happened
        d = PcDelta(t=1.0, prev_t=0.9, values={})
        assert d.get(self.SPEC) == 0

    def test_masked_counter_raises_without_default(self):
        # reclaimed counter: the change over the window is unknown, not zero
        d = PcDelta(t=1.0, prev_t=0.9, values={}, missing=(CID,))
        with pytest.raises(KeyError, match="masked"):
            d.get(self.SPEC)

    def test_masked_counter_honors_explicit_default(self):
        d = PcDelta(t=1.0, prev_t=0.9, values={}, missing=(CID,))
        assert d.get(self.SPEC, default=0) == 0
        assert d.get(self.SPEC, default=-1) == -1

    def test_present_value_wins_over_default(self):
        d = PcDelta(t=1.0, prev_t=0.9, values={CID: 5}, missing=(CID,))
        assert d.get(self.SPEC, default=99) == 5


class TestLoadEffects:
    def test_system_load_validation(self):
        with pytest.raises(ValueError):
            SystemLoad(cpu_utilization=1.5)
        with pytest.raises(ValueError):
            SystemLoad(gpu_utilization=-0.1)

    def test_idle_drops_nothing(self):
        sampler = make_sampler(timeline_with_frames([]))
        sampler.sample_range(0.0, 2.0, load=IDLE)
        assert sampler.reads_dropped == 0

    def test_heavy_cpu_load_drops_reads(self):
        sampler = make_sampler(timeline_with_frames([]), seed=5)
        sampler.sample_range(0.0, 5.0, load=SystemLoad(cpu_utilization=1.0))
        assert sampler.reads_dropped > 0

    def test_cpu_load_increases_latency(self):
        idle_sampler = make_sampler(timeline_with_frames([]), seed=6)
        idle = idle_sampler.sample_range(0.0, 3.0)
        busy_sampler = make_sampler(timeline_with_frames([]), seed=6)
        busy = busy_sampler.sample_range(0.0, 3.0, load=SystemLoad(cpu_utilization=0.9))
        lag = lambda ss: np.mean([s.t - s.nominal_t for s in ss])
        assert lag(busy) > lag(idle)


class TestPowerModel:
    def test_overhead_grows_with_time(self):
        model = PowerModel()
        one_hour = model.extra_consumption_percent(3600.0)
        two_hours = model.extra_consumption_percent(7200.0)
        assert two_hours > one_hour > 0

    def test_overhead_under_five_percent_for_two_hours(self):
        """Fig 26: at most ~4 % extra battery after two hours."""
        model = PowerModel()
        for power in (85.0, 90.0, 95.0, 120.0):
            pct = model.extra_consumption_percent(7200.0, gpu_sample_power_mw=power)
            assert pct < 5.0

    def test_faster_sampling_costs_more(self):
        model = PowerModel()
        fast = model.extra_consumption_percent(3600.0, interval_s=0.004)
        slow = model.extra_consumption_percent(3600.0, interval_s=0.012)
        assert fast > slow


class TestBlockReads:
    """The block path reads, schedules and counts like the per-read loop."""

    LOADS = (IDLE, SystemLoad(cpu_utilization=0.95, gpu_utilization=0.5))

    @staticmethod
    def busy_timeline():
        # renders long enough that many reads land mid-frame (split reads)
        timeline = RenderTimeline()
        for i in range(120):
            inc = pc.CounterIncrement()
            inc.add(pc.RAS_8X4_TILES, 97 + i)
            inc.add(pc.LRZ_FULL_8X8_TILES, 13 * i)
            timeline.add_render(
                0.037 * i, FrameStats(increment=inc, pixels_touched=1, render_time_s=0.011)
            )
        return timeline

    @staticmethod
    def state(sampler):
        dev = sampler.device_file
        return (sampler.reads_issued, sampler.reads_dropped, dev.clock.now, dev.ioctl_count)

    @pytest.mark.parametrize("load", LOADS)
    @pytest.mark.parametrize("chunk", [1, 5, 64, 10_000])
    def test_blocks_match_iter_samples(self, load, chunk):
        scalar = make_sampler(self.busy_timeline(), seed=11)
        expected = nonzero_deltas_vectorized(scalar.sample_range(0.0, 4.5, load=load))
        block = make_sampler(self.busy_timeline(), seed=11)
        assert block.reads_in_blocks
        blocks = list(block.iter_blocks(0.0, 4.5, load=load, chunk=chunk))
        assert all(len(b.t) <= chunk for b in blocks)
        times = np.concatenate([b.t for b in blocks])
        values = np.concatenate([b.values for b in blocks])
        got = nonzero_block_deltas(blocks[0].counter_ids, times, values)
        assert got == expected and len(got) > 20
        assert self.state(block) == self.state(scalar)
        if load is not IDLE:
            assert block.reads_dropped > 0

    def test_sample_block_is_sample_range(self):
        scalar = make_sampler(self.busy_timeline(), seed=4)
        samples = scalar.sample_range(0.0, 3.0)
        block = make_sampler(self.busy_timeline(), seed=4).sample_block(0.0, 3.0)
        assert block.t.tolist() == [s.t for s in samples]
        assert block.values.tolist() == [
            [s.values[cid] for cid in block.counter_ids] for s in samples
        ]

    def test_empty_range_gives_one_empty_block(self):
        sampler = make_sampler(self.busy_timeline())
        block = sampler.sample_block(1.0, 1.0)
        assert block.values.shape == (0, len(pc.SELECTED_COUNTERS))
        assert sampler.reads_issued == 0

    @pytest.mark.parametrize("load", LOADS)
    @pytest.mark.parametrize("chunk", [2, 64])
    def test_source_blocks_match_fallback(self, monkeypatch, load, chunk):
        def run(blocks_allowed):
            with monkeypatch.context() as patch:
                if not blocks_allowed:
                    patch.setattr(PerfCounterSampler, "reads_in_blocks", False)
                sampler = make_sampler(self.busy_timeline(), seed=23)
                source = SamplerDeltaSource(sampler, 0.0, 4.5, load=load, chunk=chunk)
                events = list(source.events())
            return events, source.deltas_emitted, source.gaps_detected, self.state(sampler)

        assert run(True) == run(False)

    def test_hooks_select_the_per_read_path(self):
        dev = open_kgsl(self.busy_timeline(), clock=DeviceClock(), drift_injector=object())
        sampler = PerfCounterSampler(dev, rng=np.random.default_rng(0))
        assert not sampler.reads_in_blocks
        with pytest.raises(RuntimeError):
            next(sampler.iter_blocks(0.0, 1.0))
        sampler = make_sampler(self.busy_timeline())
        sampler.fault_injector = object()
        assert not sampler.reads_in_blocks

    def test_lost_counter_selects_the_per_read_path(self):
        sampler = make_sampler(self.busy_timeline())
        sampler._lose(pc.RAS_8X4_TILES)
        assert not sampler.reads_in_blocks
