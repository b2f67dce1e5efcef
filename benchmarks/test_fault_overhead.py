"""Fault-machinery overhead: disabled injection must be (nearly) free.

The fault subsystem (``repro.faults``) promises that with no plan
installed the sampling fast path is hook-free: ``FaultPlan.injector``
returns ``None`` for a disabled plan, so the sampler and device file
never consult an injector.  This bench pins the cost of having the
machinery *available but off* at under 5 % of a run with no plan at all,
and reports the cost of the mild profile for context.

Both comparisons run the two variants in interleaved rounds and gate the
median of the per-round ratios (``conftest.paired_overhead``), so drift
in host speed between two separately timed batches cannot fail the gate.
"""

import pytest

from conftest import paired_overhead, run_once
from repro.core.model_store import ModelStore
from repro.core.pipeline import EavesdropAttack, simulate_credential_entry, train_model
from repro.faults import FaultPlan

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


def runner(store, trace, fault_plan):
    attack = EavesdropAttack(store, recognize_device=False, fault_plan=fault_plan)
    return lambda: attack.run_on_trace(trace, seed=101)


def test_disabled_faults_add_under_5_percent(benchmark, store, trace):
    disabled_plan = FaultPlan.from_profile("none")
    # the structural half of the promise: a disabled plan installs no hook
    assert disabled_plan.injector(seed_offset=101) is None
    timing = run_once(
        benchmark,
        lambda: paired_overhead(
            runner(store, trace, None), runner(store, trace, disabled_plan)
        ),
    )
    print(
        f"\nfault machinery off: baseline {timing.baseline_s * 1e3:.1f} ms, "
        f"disabled-plan {timing.candidate_s * 1e3:.1f} ms "
        f"(paired median {timing.overhead:+.1%})"
    )
    assert timing.overhead < 0.05, "disabled fault injection must stay within 5% of baseline"


def test_mild_profile_overhead_is_bounded(store, trace):
    mild_plan = FaultPlan.from_profile("mild", seed=0)
    timing = paired_overhead(
        runner(store, trace, None), runner(store, trace, mild_plan), rounds=5, quartets=1
    )
    print(
        f"\nmild profile: baseline {timing.baseline_s * 1e3:.1f} ms, "
        f"mild {timing.candidate_s * 1e3:.1f} ms ({timing.overhead:+.1%})"
    )
    # retries, re-registration and jitter cost real work, but the
    # resilient path must stay the same order of magnitude
    assert 1.0 + timing.overhead < 3.0  # median mild/baseline ratio
