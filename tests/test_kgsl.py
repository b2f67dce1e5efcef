"""Tests for the KGSL device file and ioctl interface."""

import errno

import numpy as np
import pytest

from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats
from repro.gpu.timeline import RenderTimeline
from repro.kgsl.device_file import DeviceClock, KgslDeviceFile, ProcessContext, open_kgsl
from repro.kgsl.ioctl import (
    IOCTL_KGSL_PERFCOUNTER_GET,
    IOCTL_KGSL_PERFCOUNTER_PUT,
    IOCTL_KGSL_PERFCOUNTER_READ,
    KGSL_PERFCOUNTER_GROUP_LRZ,
    KGSL_PERFCOUNTER_GROUP_RAS,
    KGSL_PERFCOUNTER_GROUP_VPC,
    IoctlError,
    KgslPerfcounterGet,
    KgslPerfcounterPut,
    KgslPerfcounterRead,
    KgslPerfcounterReadGroup,
)


def timeline_with_increment(amount=1234, t=1.0):
    timeline = RenderTimeline()
    inc = pc.CounterIncrement()
    inc.add(pc.LRZ_FULL_8X8_TILES, amount)
    timeline.add_render(t, FrameStats(increment=inc, pixels_touched=amount, render_time_s=0.001))
    return timeline


def reserve(dev, group=KGSL_PERFCOUNTER_GROUP_LRZ, countable=14):
    get = KgslPerfcounterGet(groupid=group, countable=countable)
    dev.ioctl(IOCTL_KGSL_PERFCOUNTER_GET, get)
    return get


def read_one(dev, group=KGSL_PERFCOUNTER_GROUP_LRZ, countable=14):
    req = KgslPerfcounterRead(reads=[KgslPerfcounterReadGroup(groupid=group, countable=countable)])
    dev.ioctl(IOCTL_KGSL_PERFCOUNTER_READ, req)
    return req.reads[0].value


class TestIoctlCodes:
    def test_group_ids_from_paper_fig9(self):
        assert KGSL_PERFCOUNTER_GROUP_VPC == 0x5
        assert KGSL_PERFCOUNTER_GROUP_RAS == 0x7
        assert KGSL_PERFCOUNTER_GROUP_LRZ == 0x19

    def test_request_codes_distinct(self):
        codes = {
            IOCTL_KGSL_PERFCOUNTER_GET,
            IOCTL_KGSL_PERFCOUNTER_PUT,
            IOCTL_KGSL_PERFCOUNTER_READ,
        }
        assert len(codes) == 3

    def test_request_codes_encode_iowr_nr(self):
        # low byte is the command number from msm_kgsl.h
        assert IOCTL_KGSL_PERFCOUNTER_GET & 0xFF == 0x38
        assert IOCTL_KGSL_PERFCOUNTER_PUT & 0xFF == 0x39
        assert IOCTL_KGSL_PERFCOUNTER_READ & 0xFF == 0x3B


class TestDeviceFileSemantics:
    def test_get_then_read(self):
        dev = open_kgsl(timeline_with_increment(777), clock=DeviceClock())
        reserve(dev)
        dev.clock.set(2.0)
        assert read_one(dev) == 777

    def test_get_assigns_register_offset(self):
        dev = open_kgsl(timeline_with_increment())
        get = reserve(dev)
        assert get.offset > 0

    def test_read_without_get_is_einval(self):
        dev = open_kgsl(timeline_with_increment())
        with pytest.raises(IoctlError) as exc:
            read_one(dev)
        assert exc.value.errno == errno.EINVAL

    def test_put_releases_reservation(self):
        dev = open_kgsl(timeline_with_increment())
        reserve(dev)
        dev.ioctl(
            IOCTL_KGSL_PERFCOUNTER_PUT,
            KgslPerfcounterPut(groupid=KGSL_PERFCOUNTER_GROUP_LRZ, countable=14),
        )
        with pytest.raises(IoctlError):
            read_one(dev)

    def test_unknown_group_rejected(self):
        dev = open_kgsl(timeline_with_increment())
        with pytest.raises(IoctlError) as exc:
            reserve(dev, group=0x42)
        assert exc.value.errno == errno.EINVAL

    def test_unknown_request_is_enotty(self):
        dev = open_kgsl(timeline_with_increment())
        with pytest.raises(IoctlError) as exc:
            dev.ioctl(0xDEAD, None)
        assert exc.value.errno == errno.ENOTTY

    def test_closed_fd_is_ebadf(self):
        dev = open_kgsl(timeline_with_increment())
        dev.close()
        with pytest.raises(IoctlError) as exc:
            reserve(dev)
        assert exc.value.errno == errno.EBADF

    def test_empty_read_buffer_rejected(self):
        dev = open_kgsl(timeline_with_increment())
        with pytest.raises(IoctlError):
            dev.ioctl(IOCTL_KGSL_PERFCOUNTER_READ, KgslPerfcounterRead(reads=[]))

    def test_wrong_struct_is_efault(self):
        dev = open_kgsl(timeline_with_increment())
        with pytest.raises(IoctlError) as exc:
            dev.ioctl(IOCTL_KGSL_PERFCOUNTER_GET, object())
        assert exc.value.errno == errno.EFAULT

    def test_context_manager_closes(self):
        with open_kgsl(timeline_with_increment()) as dev:
            reserve(dev)
        with pytest.raises(IoctlError):
            reserve(dev)

    def test_ioctl_count_tracks_calls(self):
        dev = open_kgsl(timeline_with_increment())
        reserve(dev)
        dev.clock.set(2.0)
        read_one(dev)
        assert dev.ioctl_count == 2

    def test_values_reflect_clock_time(self):
        dev = open_kgsl(timeline_with_increment(100, t=1.0), clock=DeviceClock())
        reserve(dev)
        dev.clock.set(0.5)
        assert read_one(dev) == 0
        dev.clock.set(2.0)
        assert read_one(dev) == 100

    def test_blockread_multiple_counters(self):
        dev = open_kgsl(timeline_with_increment(50), clock=DeviceClock())
        for spec in pc.SELECTED_COUNTERS:
            reserve(dev, group=int(spec.group), countable=spec.countable)
        dev.clock.set(2.0)
        req = KgslPerfcounterRead(
            reads=[
                KgslPerfcounterReadGroup(groupid=int(s.group), countable=s.countable)
                for s in pc.SELECTED_COUNTERS
            ]
        )
        dev.ioctl(IOCTL_KGSL_PERFCOUNTER_READ, req)
        values = {(s.groupid, s.countable): s.value for s in req.reads}
        assert values[(KGSL_PERFCOUNTER_GROUP_LRZ, 14)] == 50
        assert values[(KGSL_PERFCOUNTER_GROUP_RAS, 5)] == 0


class RecordingPolicy:
    """A read hook that logs every call and bumps each value by one."""

    def __init__(self):
        self.calls = []

    def check(self, **kwargs):
        self.calls.append(("check", kwargs["operation"], kwargs["countable"]))

    def filter_value(self, **kwargs):
        self.calls.append(("filter", kwargs["countable"], kwargs["now"]))
        return kwargs["value"] + 1


class TestReadBlock:
    """``read_block`` means exactly ``n`` sequential ``PERFCOUNTER_READ``s."""

    SLOTS = [(KGSL_PERFCOUNTER_GROUP_LRZ, 14), (KGSL_PERFCOUNTER_GROUP_RAS, 5)]
    TIMES = [0.5, 1.0, 1.0004, 1.0004, 3.0]

    @staticmethod
    def device(**hooks):
        timeline = timeline_with_increment(1234, t=1.0)
        inc = pc.CounterIncrement()
        inc.add(pc.RAS_8X4_TILES, 77)
        timeline.add_render(0.9, FrameStats(increment=inc, pixels_touched=1, render_time_s=0.2))
        dev = open_kgsl(timeline, clock=DeviceClock(), **hooks)
        for group, countable in TestReadBlock.SLOTS:
            reserve(dev, group, countable)
        return dev

    def sequential(self, dev, times):
        rows = []
        for t in times:
            dev.clock.set(t)
            req = KgslPerfcounterRead(
                reads=[KgslPerfcounterReadGroup(groupid=g, countable=c) for g, c in self.SLOTS]
            )
            dev.ioctl(IOCTL_KGSL_PERFCOUNTER_READ, req)
            rows.append([slot.value for slot in req.reads])
        return rows

    @pytest.mark.parametrize("hooked", [False, True])
    def test_matches_sequential_reads(self, hooked):
        hooks = (lambda: {"access_policy": RecordingPolicy()}) if hooked else dict
        one, bulk = self.device(**hooks()), self.device(**hooks())
        expected = self.sequential(one, self.TIMES)
        got = bulk.read_block(self.SLOTS, self.TIMES)
        assert got.dtype == np.int64 and got.tolist() == expected
        assert (bulk.ioctl_count, bulk.clock.now) == (one.ioctl_count, one.clock.now)
        if hooked:
            assert bulk.access_policy.calls == one.access_policy.calls

    def test_unmodeled_counter_reads_zero(self):
        dev = self.device()
        reserve(dev, KGSL_PERFCOUNTER_GROUP_VPC, 99)
        got = dev.read_block([(KGSL_PERFCOUNTER_GROUP_VPC, 99)] + self.SLOTS, [2.0])
        assert got.tolist() == [[0, 1234, 77]]

    def test_no_reads_changes_nothing(self):
        dev = self.device()
        count = dev.ioctl_count
        assert dev.read_block(self.SLOTS, []).shape == (0, 2)
        assert (dev.ioctl_count, dev.clock.now) == (count, 0.0)

    def test_closed_fd_is_ebadf(self):
        dev = self.device()
        count = dev.ioctl_count
        dev.close()
        with pytest.raises(IoctlError) as exc:
            dev.read_block(self.SLOTS, self.TIMES)
        assert exc.value.errno == errno.EBADF
        assert dev.ioctl_count == count

    @pytest.mark.parametrize("slots", [[], [(KGSL_PERFCOUNTER_GROUP_VPC, 9)]])
    def test_empty_or_unreserved_read_is_einval_on_first_read(self, slots):
        dev = self.device()
        count = dev.ioctl_count
        with pytest.raises(IoctlError) as exc:
            dev.read_block(slots, self.TIMES)
        assert exc.value.errno == errno.EINVAL
        assert (dev.ioctl_count, dev.clock.now) == (count + 1, self.TIMES[0])

    def test_clock_cannot_go_backwards(self):
        dev = self.device()
        with pytest.raises(ValueError):
            dev.read_block(self.SLOTS, [2.0, 1.0])


class TestDeviceClock:
    def test_cannot_go_backwards(self):
        clock = DeviceClock()
        clock.set(5.0)
        with pytest.raises(ValueError):
            clock.set(4.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_advance(self):
        clock = DeviceClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)


class TestProcessContext:
    def test_default_is_unprivileged(self):
        ctx = ProcessContext()
        assert ctx.selinux_context == "untrusted_app"
        assert ctx.uid >= 10000  # an app UID, not a system UID
