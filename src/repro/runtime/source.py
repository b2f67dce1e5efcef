"""Event sources: where a session's timestamped payloads come from.

An :class:`EventSource` is anything that can be turned into an iterator
of ``(t, payload)`` pairs in non-decreasing ``t`` order.  The runtime
pulls from sources *lazily* — one event per scheduling step — so a
source backed by a live sampler only issues the counter reads that are
actually consumed (a mode switch abandons the rest, exactly like the
Android service dropping its idle poll when it escalates).

:class:`SamplerDeltaSource` is the production source: it drives the
sampler and yields only the nonzero counter deltas — the attack's raw
event stream.  With ``chunk > 1`` it pulls reads in blocks of ``chunk``,
trading mode-switch granularity for throughput (the attack sessions use
this; the monitoring service's idle watch keeps ``chunk=1`` so
escalation happens on the confirming read).  A block comes from
:meth:`~repro.kgsl.sampler.PerfCounterSampler.iter_blocks` — one bulk
KGSL read differenced as an ``[n, 11]`` matrix — whenever the sampler's
:attr:`~repro.kgsl.sampler.PerfCounterSampler.reads_in_blocks` holds;
with a fault, drift or policy hook installed, or a counter lost or
denied, the reads go one at a time through
:meth:`~repro.kgsl.sampler.PerfCounterSampler.iter_samples` and the
vectorized extractor.  Both give the same deltas.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Iterator, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.kgsl.sampler import (
    IDLE,
    PcDelta,
    PcSample,
    PerfCounterSampler,
    SystemLoad,
    masked_delta,
    nonzero_block_deltas,
    nonzero_deltas_vectorized,
)
from repro.gpu import counters as pc
from repro.obs import MetricsRegistry, resolve_registry

#: One timestamped payload flowing through a session's stage chain.
SourceEvent = Tuple[float, object]


@runtime_checkable
class EventSource(Protocol):
    """A stream of timestamped payloads in non-decreasing time order."""

    def events(self) -> Iterator[SourceEvent]: ...


class IterableSource:
    """An :class:`EventSource` over precomputed ``(t, payload)`` pairs or
    payloads with a ``.t`` attribute (e.g. a list of ``PcDelta``)."""

    def __init__(self, items: Iterable) -> None:
        self._items = items

    def events(self) -> Iterator[SourceEvent]:
        for item in self._items:
            if isinstance(item, tuple):
                yield item
            else:
                yield (float(item.t), item)


class SamplerDeltaSource:
    """Streams nonzero PC deltas from a live :class:`PerfCounterSampler`.

    Args:
        sampler: the counter-reading service (owns the KGSL fd and RNG).
        t0, t1: sampling window.
        load: concurrent CPU/GPU load during the window.
        chunk: reads pulled per step.  ``1`` differences sample pairs
            incrementally; larger values difference blocks of reads at
            once (see the module docstring for the two block routes).
        gap_factor: a delta spanning more than ``gap_factor`` nominal
            sampling intervals is flagged ``gap=True`` (reads between
            its endpoints were dropped or deferred).
        metrics: optional :class:`repro.obs.MetricsRegistry`.  Emission
            and gap tallies are flushed once when the stream closes
            (also on abandonment by a mode switch); chunked extraction
            is additionally timed under a ``source.extract`` span.
    """

    #: Default sample-spacing multiple beyond which a delta is a gap.
    GAP_FACTOR = 3.0

    def __init__(
        self,
        sampler: PerfCounterSampler,
        t0: float,
        t1: float,
        load: SystemLoad = IDLE,
        chunk: int = 1,
        gap_factor: float = GAP_FACTOR,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        if gap_factor <= 1.0:
            raise ValueError("gap_factor must exceed 1")
        self.sampler = sampler
        self.t0 = t0
        self.t1 = t1
        self.load = load
        self.chunk = chunk
        self.gap_factor = gap_factor
        self.metrics = resolve_registry(metrics)
        self.deltas_emitted = 0
        self.gaps_detected = 0

    @property
    def start_t(self) -> float:
        return self.t0

    @property
    def reads_issued(self) -> int:
        """Counter reads actually performed so far (dropped reads excluded)."""
        return self.sampler.reads_issued

    def events(self) -> Iterator[SourceEvent]:
        try:
            if self.chunk > 1 and self.sampler.reads_in_blocks:
                yield from self._blocks()
                return
            ticks = self.sampler.iter_samples(self.t0, self.t1, load=self.load)
            if self.chunk == 1:
                yield from self._incremental(ticks)
            else:
                yield from self._chunked(ticks)
        finally:
            # runs on natural exhaustion AND on generator close (a mode
            # switch abandoning the stream), so the tallies always land
            if self.metrics.enabled:
                self.metrics.counter("source.deltas_emitted").inc(self.deltas_emitted)
                self.metrics.counter("source.gaps_detected").inc(self.gaps_detected)

    def _finalize(self, delta: PcDelta) -> PcDelta:
        """Stamp the gap flag on a delta spanning missed reads."""
        if delta.t - delta.prev_t > self.gap_factor * self.sampler.interval_s:
            self.gaps_detected += 1
            if not delta.gap:
                delta = replace(delta, gap=True)
        return delta

    def _incremental(self, ticks: Iterator[PcSample]) -> Iterator[SourceEvent]:
        prev: Optional[PcSample] = None
        for sample in ticks:
            if prev is not None:
                if prev.missing or sample.missing or prev.values.keys() != sample.values.keys():
                    delta = masked_delta(prev, sample)
                else:
                    diff = pc.delta(prev.values, sample.values)
                    delta = PcDelta(t=sample.t, prev_t=prev.t, values=diff)
                if delta:
                    delta = self._finalize(delta)
                    self.deltas_emitted += 1
                    yield (delta.t, delta)
            prev = sample

    def _chunked(self, ticks: Iterator[PcSample]) -> Iterator[SourceEvent]:
        prev: Optional[PcSample] = None
        while True:
            batch: List[PcSample] = []
            for sample in ticks:
                batch.append(sample)
                if len(batch) >= self.chunk:
                    break
            if not batch:
                return
            # the span brackets only the extraction call — it must not
            # cross the yields below (interleaved sessions would corrupt
            # the registry's nesting stack)
            with self.metrics.span("source.extract"):
                extracted = nonzero_deltas_vectorized(batch, prev=prev)
            for delta in extracted:
                delta = self._finalize(delta)
                self.deltas_emitted += 1
                yield (delta.t, delta)
            prev = batch[-1]

    def _blocks(self) -> Iterator[SourceEvent]:
        blocks = self.sampler.iter_blocks(
            self.t0, self.t1, load=self.load, chunk=self.chunk
        )
        gap_s = self.gap_factor * self.sampler.interval_s
        times = values = None
        for block in blocks:
            if len(block.t) == 0:
                continue
            with self.metrics.span("source.extract"):
                if times is None:
                    times, values = block.t, block.values
                else:
                    # the last read of the previous block opens this one
                    times = np.concatenate([times[-1:], block.t])
                    values = np.concatenate([values[-1:], block.values])
                extracted = nonzero_block_deltas(
                    block.counter_ids, times, values, gap_s=gap_s
                )
            for delta in extracted:
                self.gaps_detected += delta.gap
                self.deltas_emitted += 1
                yield (delta.t, delta)
