"""Which ``repro`` entry points the traced run wraps, and the metrics it
derives from them.

Layer names follow the module stack: scene compile and render
(``android``, ``gpu``), the render timeline, the KGSL ioctl boundary and
its sampler, delta extraction, the session runtime, Algorithm 1 and the
classifier (``core``), the three KGSL boundary hooks (``faults``,
``lifecycle``, ``mitigations``) and the collector client.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro import api
from repro.android.device import VictimDevice
from repro.collector.client import CollectorClient
from repro.collector.router import CollectorTier
from repro.core.classifier import ClassificationModel
from repro.core.offline import OfflineTrainer
from repro.core.online import OnlineEngine
from repro.faults import FaultInjector
from repro.gpu.pipeline import AdrenoPipeline
from repro.gpu.timeline import RenderTimeline
from repro.kgsl import ioctl as kgsl_ioctl
from repro.kgsl.device_file import KgslDeviceFile
from repro.kgsl.sampler import PerfCounterSampler
from repro.lifecycle.calibration import CalibrationService
from repro.lifecycle.drift import DriftInjector
from repro.mitigations.policy import PolicyEnforcer
import repro.core.offline as offline_module
import repro.runtime.source as source_module
from repro.runtime.session import SessionRuntime

from tracer import OTHER, LayerTracer

IOCTL_NAMES = {
    kgsl_ioctl.IOCTL_KGSL_PERFCOUNTER_GET: "get",
    kgsl_ioctl.IOCTL_KGSL_PERFCOUNTER_PUT: "put",
    kgsl_ioctl.IOCTL_KGSL_PERFCOUNTER_READ: "read",
    kgsl_ioctl.IOCTL_KGSL_DEVICE_GETPROPERTY: "getproperty",
}

#: Every layer row of the table; each yields ``<layer>.calls``,
#: ``<layer>.busy_s`` and ``<layer>.self_s``.
LAYERS = (
    "api.train", "api.simulate", "api.attack", "api.run_sessions",
    "core.offline.train", "core.offline.collect",
    "android.compile", "gpu.render", "gpu.values_at",
    "kgsl.ioctl", "kgsl.sampler", "kgsl.extract",
    "runtime.run", "core.online.feed",
    "core.classifier.classify_batch", "core.classifier.classify_composite",
    "faults.hook", "lifecycle.drift", "mitigations.policy",
    "lifecycle.recalibrate", "collector.tier.start", "collector.client.send",
)

#: Counts each traced run reports besides ``<layer>.calls``.
COUNTS = (
    "kgsl.ioctl.calls.get", "kgsl.ioctl.calls.put",
    "kgsl.ioctl.calls.read", "kgsl.ioctl.calls.getproperty",
    "kgsl.sampler.reads", "kgsl.sampler.reads_dropped",
    "kgsl.extract.deltas", "core.classifier.classify_batch.rows",
    "android.compile.frames", "gpu.render.compile_calls", "runtime.events",
    "faults.injected", "lifecycle.recalibrate.accepted",
    "collector.sessions_ingested", "collector.dupes_dropped",
    "collector.frames_ingested", "collector.batch_frames",
    "collector.journal.records", "collector.journal.bytes",
    "collector.client.retries", "collector.client.injected_drops",
)

#: Collector counts that depend on how acks race the sender (how results
#: group into batch frames decides which writes the seeded network faults
#: hit), so they are reported but need not repeat between runs.
TIMING_DEPENDENT = (
    "collector.dupes_dropped", "collector.frames_ingested",
    "collector.batch_frames", "collector.frames_per_result",
    "collector.journal.bytes", "collector.client.retries",
    "collector.client.injected_drops",
)


def repeatable(metrics: Dict[str, float]):
    """The metrics two traced runs of the same code must agree on."""
    return [
        name for name in metrics
        if not name.endswith("_s") and name not in TIMING_DEPENDENT
    ]


def _engine_session(tracer, args) -> str:
    return tracer.session_name(args[0])


def _count_ioctl(counts, args, result) -> None:
    counts["kgsl.ioctl.calls." + IOCTL_NAMES.get(args[1], "other")] += 1


def _count_rows(counts, args, result) -> None:
    counts["core.classifier.classify_batch.rows"] += len(result)


def _count_frames(counts, args, result) -> None:
    counts["android.compile.frames"] += len(result.timeline.frames)


def _count_nonzero(counts, args, result) -> None:
    counts["kgsl.extract.deltas"] += sum(1 for delta in result if delta)


def _count_events(counts, args, result) -> None:
    counts["runtime.events"] += sum(s.events_dispatched for s in args[0].sessions)


def _count_refit(counts, args, result) -> None:
    counts["lifecycle.recalibrate.accepted"] += result is not None


def install(tracer: LayerTracer) -> Callable[[], int]:
    """Wrap every layer entry point; calls run untimed until the tracer
    is entered.  Returns a function giving the reads the traced samplers
    dropped so far."""
    for name in ("train", "simulate", "attack", "run_sessions"):
        tracer.patch(api, name, "api." + name, span=True)
    tracer.patch(OfflineTrainer, "train", "core.offline.train", span=True)
    tracer.patch(OfflineTrainer, "collect", "core.offline.collect", span=True)
    tracer.patch(VictimDevice, "compile", "android.compile", span=True,
                 after=_count_frames)

    def count_render(counts, args, result) -> None:
        # renders made while compiling a session, for the cache hit ratio
        counts["gpu.render.compile_calls"] += tracer.depth("android.compile") > 0

    tracer.patch(AdrenoPipeline, "render", "gpu.render", after=count_render)
    tracer.patch(RenderTimeline, "values_at", "gpu.values_at")
    tracer.patch(KgslDeviceFile, "ioctl", "kgsl.ioctl", after=_count_ioctl)

    samplers: Dict[int, tuple] = {}

    def sampler_started(sampler) -> None:
        samplers.setdefault(id(sampler), (sampler, sampler.reads_dropped))

    def sampler_step(counts, sampler, sample) -> None:
        counts["kgsl.sampler.reads"] += 1

    tracer.patch_generator(PerfCounterSampler, "iter_samples", "kgsl.sampler",
                           sampler_started, sampler_step)
    # the extraction functions are called through the importing module's
    # namespace, so that is where they are replaced
    tracer.patch(source_module, "nonzero_deltas_vectorized", "kgsl.extract",
                 after=_count_nonzero)
    tracer.patch(offline_module, "deltas", "kgsl.extract", after=_count_nonzero)
    tracer.patch(SessionRuntime, "run", "runtime.run", span=True,
                 after=_count_events)
    tracer.patch(OnlineEngine, "feed", "core.online.feed", span=True,
                 session=_engine_session)
    tracer.patch(ClassificationModel, "classify_batch",
                 "core.classifier.classify_batch", after=_count_rows)
    tracer.patch(ClassificationModel, "classify_composite",
                 "core.classifier.classify_composite")
    tracer.patch(FaultInjector, "on_ioctl", "faults.hook")
    tracer.patch(FaultInjector, "after_read", "faults.hook")
    tracer.patch(DriftInjector, "drift_value", "lifecycle.drift")
    tracer.patch(PolicyEnforcer, "check", "mitigations.policy")
    tracer.patch(PolicyEnforcer, "filter_value", "mitigations.policy")
    tracer.patch(CalibrationService, "recalibrate", "lifecycle.recalibrate",
                 after=_count_refit)
    tracer.patch(CollectorTier, "start", "collector.tier.start", span=True)
    tracer.patch(CollectorClient, "send_results", "collector.client.send",
                 span=True)

    def dropped_reads() -> int:
        return sum(s.reads_dropped - start for s, start in samplers.values())

    return dropped_reads


def layer_metrics(tracer: LayerTracer, dropped_reads: int) -> Dict[str, float]:
    """Every per-layer metric of one traced region, zeros included."""
    out: Dict[str, float] = {}
    for layer in LAYERS + (OTHER,):
        out[layer + ".calls"] = tracer.calls.get(layer, 0)
        out[layer + ".busy_s"] = tracer.busy_s.get(layer, 0.0)
        out[layer + ".self_s"] = tracer.self_s.get(layer, 0.0)
    del out[OTHER + ".calls"], out[OTHER + ".busy_s"]
    counts = dict(tracer.counts)
    counts["kgsl.sampler.reads_dropped"] = dropped_reads
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    reads = out["kgsl.sampler.reads"]
    out["kgsl.sampler.delta_yield"] = out["kgsl.extract.deltas"] / reads if reads else 0.0
    frames = out["android.compile.frames"]
    out["gpu.render.cache_hit_ratio"] = (
        1.0 - out["gpu.render.compile_calls"] / frames if frames else 0.0
    )
    results = out["collector.sessions_ingested"]
    out["collector.frames_per_result"] = (
        out["collector.frames_ingested"] / results if results else 0.0
    )
    out["trace.wall_s"] = tracer.wall_s
    return out
