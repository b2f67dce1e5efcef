"""The simulated ``/dev/kgsl-3d0`` device file (paper Section 4, Fig 7).

In Android, the KGSL device file is the interface user-space GPU drivers
use to reach the hardware; because those drivers run in the calling app's
process, the file is accessible to unprivileged applications — which is
the access-control gap the paper exploits.  The simulation reproduces the
semantics the attack relies on:

* ``PERFCOUNTER_GET`` reserves a counter register and makes it countable
  (the "notify the GPU hardware to prepare the I/O" step of Fig 10);
* ``PERFCOUNTER_READ`` blockreads the *global* cumulative counter values,
  regardless of which process caused the GPU work;
* a :class:`~repro.mitigations.policy.PolicyEnforcer` hook can deny
  either request, modeling the paper's RBAC / SELinux mitigation
  (Section 9.2), or perturb returned values, modeling obfuscation
  (Section 9.3).

Counter values are served from a :class:`~repro.gpu.timeline.RenderTimeline`
at the device clock's current time, so reads that land mid-render observe
partially accrued increments — the *split* factor of Section 5.1.
:meth:`KgslDeviceFile.read_block` issues a run of such reads at once.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple

import numpy as np

from repro.gpu import counters as pc
from repro.gpu.timeline import COUNTER_ORDER, RenderTimeline
from repro.kgsl.ioctl import (
    IOCTL_KGSL_DEVICE_GETPROPERTY,
    IOCTL_KGSL_PERFCOUNTER_GET,
    IOCTL_KGSL_PERFCOUNTER_PUT,
    IOCTL_KGSL_PERFCOUNTER_READ,
    KGSL_PROP_DEVICE_INFO,
    IoctlError,
    KgslDeviceGetProperty,
    KgslDeviceInfo,
    KgslPerfcounterGet,
    KgslPerfcounterPut,
    KgslPerfcounterRead,
    KgslPerfcounterReadGroup,
)

#: KGSL device node path on Adreno phones.
KGSL_DEVICE_PATH = "/dev/kgsl-3d0"

#: Counter group ids the simulated GPU exposes.
_KNOWN_GROUPS = frozenset(int(group) for group in pc.CounterGroup)
#: Column of each timeline counter in a ``values_at_many`` row, keyed by
#: the integer ``(groupid, countable)`` a read slot carries.
_TIMELINE_COLUMN = {
    (int(group), countable): i for i, (group, countable) in enumerate(COUNTER_ORDER)
}


@dataclass
class DeviceClock:
    """Simulated wall clock shared by the device file and the sampler."""

    now: float = 0.0

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("clock cannot go backwards")
        self.now += dt

    def set(self, t: float) -> None:
        if t < self.now:
            raise ValueError("clock cannot go backwards")
        self.now = t


@dataclass
class ProcessContext:
    """The SELinux-ish identity of the process issuing ioctl calls."""

    pid: int = 4242
    uid: int = 10123
    selinux_context: str = "untrusted_app"
    package: str = "com.example.benign"


class KgslDeviceFile:
    """A file descriptor on the KGSL device node.

    One instance corresponds to one ``open("/dev/kgsl-3d0", O_RDWR)``.
    """

    def __init__(
        self,
        timeline: RenderTimeline,
        clock: Optional[DeviceClock] = None,
        context: Optional[ProcessContext] = None,
        access_policy=None,
        adreno_model: int = 650,
        fault_injector=None,
        drift_injector=None,
    ) -> None:
        self.timeline = timeline
        self.clock = clock if clock is not None else DeviceClock()
        self.context = context if context is not None else ProcessContext()
        self.access_policy = access_policy
        self.adreno_model = adreno_model
        self.fault_injector = fault_injector
        self.drift_injector = drift_injector
        self._reserved: Set[Tuple[int, int]] = set()
        self._closed = False
        self.ioctl_count = 0

    # ------------------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._reserved.clear()

    def __enter__(self) -> "KgslDeviceFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def has_read_hooks(self) -> bool:
        """Whether a fault, drift or access-policy hook sees every read."""
        return (
            self.fault_injector is not None
            or self.drift_injector is not None
            or self.access_policy is not None
        )

    # ------------------------------------------------------------------

    def ioctl(self, request: int, arg) -> int:
        """Dispatch an ioctl request, mutating ``arg`` like the kernel does.

        Returns 0 on success; raises :class:`IoctlError` with a POSIX errno
        on failure, mirroring the syscall contract.
        """
        if self._closed:
            raise IoctlError(errno.EBADF, "device file is closed")
        self.ioctl_count += 1
        if self.fault_injector is not None:
            # may raise a transient error or steal a reserved register,
            # exactly where the real driver's failures surface
            self.fault_injector.on_ioctl(self, request, arg)
        if request == IOCTL_KGSL_PERFCOUNTER_GET:
            return self._perfcounter_get(arg)
        if request == IOCTL_KGSL_PERFCOUNTER_PUT:
            return self._perfcounter_put(arg)
        if request == IOCTL_KGSL_PERFCOUNTER_READ:
            return self._perfcounter_read(arg)
        if request == IOCTL_KGSL_DEVICE_GETPROPERTY:
            return self._device_getproperty(arg)
        raise IoctlError(errno.ENOTTY, f"unsupported ioctl request {request:#x}")

    # ------------------------------------------------------------------

    def _check_policy(self, operation: str, groupid: int, countable: int) -> None:
        if self.access_policy is None:
            return
        self.access_policy.check(
            context=self.context, operation=operation, groupid=groupid, countable=countable
        )

    def _perfcounter_get(self, arg: KgslPerfcounterGet) -> int:
        if not isinstance(arg, KgslPerfcounterGet):
            raise IoctlError(errno.EFAULT, "PERFCOUNTER_GET needs kgsl_perfcounter_get")
        self._check_policy("get", arg.groupid, arg.countable)
        if arg.groupid not in _KNOWN_GROUPS:
            # real driver: -EINVAL for a group the GPU does not expose
            raise IoctlError(errno.EINVAL, f"unknown counter group {arg.groupid:#x}")
        self._reserved.add((arg.groupid, arg.countable))
        # The register offset is an opaque MMIO offset in the real driver.
        arg.offset = 0x4000 + len(self._reserved) * 8
        return 0

    def _perfcounter_put(self, arg: KgslPerfcounterPut) -> int:
        if not isinstance(arg, KgslPerfcounterPut):
            raise IoctlError(errno.EFAULT, "PERFCOUNTER_PUT needs kgsl_perfcounter_put")
        self._reserved.discard((arg.groupid, arg.countable))
        return 0

    def _perfcounter_read(self, arg: KgslPerfcounterRead) -> int:
        if not isinstance(arg, KgslPerfcounterRead):
            raise IoctlError(errno.EFAULT, "PERFCOUNTER_READ needs kgsl_perfcounter_read")
        if arg.count == 0:
            raise IoctlError(errno.EINVAL, "empty read buffer")
        values = self.timeline.values_at(self.clock.now)
        for slot in arg.reads:
            self._check_policy("read", slot.groupid, slot.countable)
            key = (slot.groupid, slot.countable)
            if key not in self._reserved:
                raise IoctlError(
                    errno.EINVAL,
                    f"counter (group={slot.groupid:#x}, countable={slot.countable}) "
                    "not reserved; call PERFCOUNTER_GET first",
                )
            # an integer key finds the timeline's CounterGroup key: an
            # IntEnum member hashes and compares as its value
            raw = values.get(key, 0)
            if self.drift_injector is not None:
                # signature drift is physical — the GPU itself runs
                # slower / renders differently — so it rewrites the raw
                # value before any mitigation or measurement fault sees it
                raw = self.drift_injector.drift_value(key, raw, self.clock.now)
            if self.access_policy is not None:
                raw = self.access_policy.filter_value(
                    context=self.context,
                    groupid=slot.groupid,
                    countable=slot.countable,
                    value=raw,
                    now=self.clock.now,
                )
            slot.value = raw
        if self.fault_injector is not None:
            self.fault_injector.after_read(arg.reads, self.clock.now)
        return 0

    def read_block(
        self, slots: Sequence[Tuple[int, int]], times: Sequence[float]
    ) -> np.ndarray:
        """``len(times)`` sequential ``PERFCOUNTER_READ``s of ``slots``.

        Read ``i`` runs with the device clock set to ``times[i]``; row
        ``i`` of the returned ``int64[len(times), len(slots)]`` holds its
        slot values.  The effect is that of the ioctls one by one:
        ``EBADF`` on a closed fd, ``EINVAL`` for an empty read or an
        unreserved slot, ``ioctl_count`` up by one per read and the
        clock left at the last read time.  When every read is sure to
        succeed and no hook sees reads, the values come from one
        :meth:`~repro.gpu.timeline.RenderTimeline.values_at_many` query;
        otherwise the reads go through :meth:`ioctl` one at a time, so
        each hook and each error behaves exactly as in that loop.
        """
        times = np.asarray(times, dtype=float).reshape(-1)
        n = len(times)
        if n == 0:
            return np.zeros((0, len(slots)), dtype=np.int64)
        if (
            self._closed
            or self.has_read_hooks
            or not slots
            or not self._reserved.issuperset(slots)
            or times[0] < self.clock.now
            or bool((np.diff(times) < 0).any())
        ):
            return self._read_each(slots, times)
        values = self.timeline.values_at_many(times)
        self.ioctl_count += n
        self.clock.set(float(times[-1]))
        columns = [_TIMELINE_COLUMN.get(key, -1) for key in slots]
        if -1 in columns:
            # a reserved counter the timeline does not model reads 0
            values = np.hstack([values, np.zeros((n, 1), dtype=np.int64)])
        return values[:, columns]

    def _read_each(self, slots: Sequence[Tuple[int, int]], times: np.ndarray) -> np.ndarray:
        out = np.zeros((len(times), len(slots)), dtype=np.int64)
        for i, t in enumerate(times.tolist()):
            self.clock.set(t)
            read = KgslPerfcounterRead(
                reads=[KgslPerfcounterReadGroup(groupid=g, countable=c) for g, c in slots]
            )
            self.ioctl(IOCTL_KGSL_PERFCOUNTER_READ, read)
            out[i] = [slot.value for slot in read.reads]
        return out

    def _device_getproperty(self, arg: KgslDeviceGetProperty) -> int:
        """``KGSL_PROP_DEVICE_INFO``: identify the GPU, as every user-space
        driver does at startup.  Always permitted — which is why the attack
        can use it for device recognition without privilege."""
        if not isinstance(arg, KgslDeviceGetProperty):
            raise IoctlError(errno.EFAULT, "DEVICE_GETPROPERTY needs kgsl_device_getproperty")
        if arg.type != KGSL_PROP_DEVICE_INFO:
            raise IoctlError(errno.EINVAL, f"unsupported property {arg.type:#x}")
        model = self.adreno_model
        chip_id = ((model // 100) << 24) | (((model // 10) % 10) << 16) | ((model % 10) << 8)
        arg.value = KgslDeviceInfo(device_id=0, chip_id=chip_id, gpu_id=model)
        return 0

    # ------------------------------------------------------------------

    def reserved_counters(self) -> Tuple[Tuple[int, int], ...]:
        """The (groupid, countable) registers this fd currently holds."""
        return tuple(sorted(self._reserved))

    def revoke_counter(self, key: Tuple[int, int]) -> None:
        """Another client reclaimed this register: drop the reservation.

        Subsequent PERFCOUNTER_READs that still name the register fail
        with ``EINVAL`` until the caller re-registers it, which is the
        contention behaviour the resilient sampler must survive.
        """
        self._reserved.discard(key)


def open_kgsl(
    timeline: RenderTimeline,
    clock: Optional[DeviceClock] = None,
    context: Optional[ProcessContext] = None,
    access_policy=None,
    adreno_model: int = 650,
    fault_injector=None,
    drift_injector=None,
) -> KgslDeviceFile:
    """``open("/dev/kgsl-3d0", O_RDWR)`` equivalent for the simulation."""
    return KgslDeviceFile(
        timeline=timeline,
        clock=clock,
        context=context,
        access_policy=access_policy,
        adreno_model=adreno_model,
        fault_injector=fault_injector,
        drift_injector=drift_injector,
    )
