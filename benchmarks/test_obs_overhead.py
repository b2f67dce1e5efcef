"""Observability overhead: an enabled registry must cost under 5 %.

The obs layer (``repro.obs``) promises two things about cost.  With the
default :data:`~repro.obs.NULL_REGISTRY` the instrumented paths run the
same instruction stream as uninstrumented code (parity is asserted in
``tests/test_obs.py``); this bench pins the *enabled* side: a live
:class:`MetricsRegistry` — counters flushed at stage boundaries, the
per-inference latency histogram, spans around the run and extraction —
must stay within 5 % of the uninstrumented attack.

The two variants run in interleaved rounds and the gate is the median of
the per-round ratios (``conftest.paired_overhead``), so drift in host
speed between two separately timed batches cannot fail it.

Emits ``BENCH_obs.json``: the final observed run's own manifest plus
the headline overhead numbers as gauges.
"""

import pytest

from conftest import paired_overhead, run_once, write_bench_manifest
from repro.core.model_store import ModelStore
from repro.core.pipeline import EavesdropAttack, simulate_credential_entry, train_model
from repro.obs import MetricsRegistry

pytestmark = pytest.mark.bench

CREDENTIAL = "hunter2pw"


@pytest.fixture(scope="module")
def store(config, chase):
    store = ModelStore()
    store.add(train_model(config, chase, seed=7))
    return store


@pytest.fixture(scope="module")
def trace(config, chase):
    return simulate_credential_entry(config, chase, CREDENTIAL, seed=1)


def runner(store, trace, metrics=None):
    attack = EavesdropAttack(
        store, recognize_device=False, fault_plan=None, metrics=metrics
    )
    return lambda: attack.run_on_trace(trace, seed=101)


def test_enabled_registry_adds_under_5_percent(benchmark, store, trace):
    timing = run_once(
        benchmark,
        lambda: paired_overhead(
            runner(store, trace), runner(store, trace, MetricsRegistry())
        ),
    )
    # one more observed run into a fresh registry, for its own manifest
    registry = MetricsRegistry()
    runner(store, trace, registry)()
    print(
        f"\nobs registry on: baseline {timing.baseline_s * 1e3:.1f} ms, "
        f"observed {timing.candidate_s * 1e3:.1f} ms "
        f"(paired median {timing.overhead:+.1%})"
    )
    print(f"  counters collected : {len(registry.snapshot()['counters'])}")
    print(f"  latency samples    : {registry.histogram('engine.inference_latency_s').count}")

    registry.gauge("bench.baseline_s").set(timing.baseline_s)
    registry.gauge("bench.observed_s").set(timing.candidate_s)
    registry.gauge("bench.overhead_frac").set(timing.overhead)
    write_bench_manifest("obs", registry)

    assert timing.overhead < 0.05, "an enabled metrics registry must stay within 5% of baseline"
