"""Cumulative counter values over time: the render timeline.

A :class:`RenderTimeline` is the ordered list of frame renders executed by
the GPU during a session.  Each frame starts at a wall-clock time and takes
``render_time_s`` to complete; its counter increments accrue *linearly over
the render interval*.  This is the mechanism behind the paper's *split*
readings (Section 5.1): "if a PC is being read when the GPU is in the
process of drawing the key press popup, the change of this PC could be
split into multiple consecutive changes with smaller amounts".

Queries are O(log n + k) via per-counter prefix sums, where k is the small
number of frames still in flight at the query time.
:meth:`RenderTimeline.values_at` answers one time;
:meth:`RenderTimeline.values_at_many` answers a whole block of read times
with the same arithmetic in array form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.gpu import counters as pc
from repro.gpu.pipeline import FrameStats

#: Stable column order for the 11 selected counters.
COUNTER_ORDER: List[pc.CounterId] = [spec.counter_id for spec in pc.SELECTED_COUNTERS]
_COLUMN: Dict[pc.CounterId, int] = {cid: i for i, cid in enumerate(COUNTER_ORDER)}


@dataclass(frozen=True)
class FrameRender:
    """One frame render scheduled on the GPU."""

    start_s: float
    stats: FrameStats
    label: str = ""

    @property
    def end_s(self) -> float:
        return self.start_s + self.stats.render_time_s

    def progress(self, t: float) -> float:
        """Fraction of this frame's increments accrued by time ``t``."""
        if t <= self.start_s:
            return 0.0
        if t >= self.end_s:
            return 1.0
        duration = self.stats.render_time_s
        if duration <= 0:
            return 1.0
        return (t - self.start_s) / duration


class RenderTimeline:
    """Ordered frame renders with fast cumulative-counter queries."""

    def __init__(self) -> None:
        self._frames: List[FrameRender] = []
        self._sorted = True
        self._starts: Optional[np.ndarray] = None
        self._prefix: Optional[np.ndarray] = None
        self._rows: Optional[np.ndarray] = None
        self._ends: Optional[np.ndarray] = None
        self._durations: Optional[np.ndarray] = None
        self._max_duration = 0.0

    def add(self, frame: FrameRender) -> None:
        if self._frames and frame.start_s < self._frames[-1].start_s:
            self._sorted = False
        self._frames.append(frame)
        self._starts = None

    def add_render(self, start_s: float, stats: FrameStats, label: str = "") -> FrameRender:
        frame = FrameRender(start_s=start_s, stats=stats, label=label)
        self.add(frame)
        return frame

    @property
    def frames(self) -> List[FrameRender]:
        self._ensure_index()
        return self._frames

    @property
    def end_time_s(self) -> float:
        if not self._frames:
            return 0.0
        return max(f.end_s for f in self._frames)

    def _ensure_index(self) -> None:
        if self._starts is not None:
            return
        if not self._sorted:
            self._frames.sort(key=lambda f: f.start_s)
            self._sorted = True
        n = len(self._frames)
        self._starts = np.array([f.start_s for f in self._frames], dtype=float)
        matrix = np.zeros((n, len(COUNTER_ORDER)), dtype=np.int64)
        for i, frame in enumerate(self._frames):
            for cid, amount in frame.stats.increment.values.items():
                matrix[i, _COLUMN[cid]] = amount
        self._prefix = np.vstack(
            [np.zeros((1, len(COUNTER_ORDER)), dtype=np.int64), np.cumsum(matrix, axis=0)]
        )
        self._rows = matrix
        self._ends = np.array([f.end_s for f in self._frames], dtype=float)
        self._durations = np.array(
            [f.stats.render_time_s for f in self._frames], dtype=float
        )
        self._max_duration = max(
            (f.stats.render_time_s for f in self._frames), default=0.0
        )

    def values_at(self, t: float) -> Dict[pc.CounterId, int]:
        """Cumulative counter values at wall-clock time ``t`` (seconds)."""
        self._ensure_index()
        if not self._frames:
            return {cid: 0 for cid in COUNTER_ORDER}
        assert self._starts is not None and self._prefix is not None
        # Frames started strictly before t contribute; later ones do not.
        idx = int(np.searchsorted(self._starts, t, side="right"))
        totals = self._prefix[idx].copy()
        # Subtract the unaccrued share of frames still in flight.  Only
        # frames started within max_duration of t can be unfinished.
        window_start = t - self._max_duration - 1e-12
        first = int(np.searchsorted(self._starts, window_start, side="left"))
        for i in range(first, idx):
            frame = self._frames[i]
            progress = frame.progress(t)
            if progress >= 1.0:
                continue
            for cid, amount in frame.stats.increment.values.items():
                accrued = int(round(amount * progress))
                totals[_COLUMN[cid]] -= amount - accrued
        return {cid: int(totals[_COLUMN[cid]]) for cid in COUNTER_ORDER}

    def values_at_many(self, ts) -> np.ndarray:
        """Cumulative counter values at every time in ``ts``.

        Returns ``int64[len(ts), 11]`` in :data:`COUNTER_ORDER`, row ``i``
        equal to :meth:`values_at` ``(ts[i])`` exactly: the same prefix
        rows, the same in-flight window, the same ``start + render_time``
        ends and the same half-to-even rounding of partial accruals.
        :meth:`values_at` stays the scalar reference this is tested
        against.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        self._ensure_index()
        if not self._frames:
            return np.zeros((len(ts), len(COUNTER_ORDER)), dtype=np.int64)
        assert self._starts is not None and self._prefix is not None
        idx = np.searchsorted(self._starts, ts, side="right")
        totals = self._prefix[idx]
        first = np.searchsorted(
            self._starts, ts - self._max_duration - 1e-12, side="left"
        )
        # one (query, frame) pair per frame that may still be in flight
        counts = np.maximum(idx - first, 0)
        pairs = int(counts.sum())
        if pairs == 0:
            return totals
        query = np.repeat(np.arange(len(ts)), counts)
        offsets = np.cumsum(counts) - counts
        frame = first[query] + (np.arange(pairs) - offsets[query])
        t = ts[query]
        start = self._starts[frame]
        duration = self._durations[frame]
        # FrameRender.progress: nothing accrued at or before the start;
        # done at the end, or at once for a zero-length render
        waiting = t <= start
        partial = ~waiting & (t < self._ends[frame]) & (duration > 0)
        keep = waiting | partial
        if not keep.any():
            return totals
        progress = np.zeros(pairs)
        progress[partial] = (t[partial] - start[partial]) / duration[partial]
        query, frame, progress = query[keep], frame[keep], progress[keep]
        amounts = self._rows[frame]
        accrued = np.rint(amounts * progress[:, None]).astype(np.int64)
        np.subtract.at(totals, query, amounts - accrued)
        return totals

    def frames_between(self, t0: float, t1: float) -> List[FrameRender]:
        """Frames starting in ``[t0, t1)`` — for trace inspection."""
        self._ensure_index()
        assert self._starts is not None
        lo = int(np.searchsorted(self._starts, t0, side="left"))
        hi = int(np.searchsorted(self._starts, t1, side="left"))
        return self._frames[lo:hi]

    def busy_fraction(self, t0: float, t1: float) -> float:
        """Fraction of ``[t0, t1)`` the GPU spends rendering.

        Used by the contention model and exposed to the victim OS the way
        Android exposes ``gpu_busy_percentage`` (paper footnote 10).
        """
        if t1 <= t0:
            return 0.0
        # the in-flight window below needs a fresh max duration
        self._ensure_index()
        busy = 0.0
        for frame in self.frames_between(t0 - self._max_duration, t1):
            start = max(t0, frame.start_s)
            end = min(t1, frame.end_s)
            if end > start:
                busy += end - start
        return min(1.0, busy / (t1 - t0))


def merge_timelines(timelines: List[RenderTimeline]) -> RenderTimeline:
    """Combine several timelines (e.g. app rendering + background GPU load)."""
    merged = RenderTimeline()
    all_frames: List[FrameRender] = []
    for timeline in timelines:
        all_frames.extend(timeline.frames)
    for frame in sorted(all_frames, key=lambda f: f.start_s):
        merged.add(frame)
    return merged
