"""Benchmark harness configuration.

Each module regenerates one table or figure from the paper's evaluation
(see DESIGN.md's per-experiment index).  Benches print the same rows or
series the paper reports and assert only the *shape* — who wins, by
roughly what factor, where crossovers fall — since the substrate is a
simulator, not the authors' testbed.

Batch sizes are scaled down from the paper's (e.g. 30 random credentials
per length instead of 300) to keep a full harness run in minutes; every
module takes a ``--thorough``-style scale-up via the REPRO_BENCH_SCALE
environment variable.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.android.apps import app
from repro.android.os_config import default_config

#: Multiplier on batch sizes (REPRO_BENCH_SCALE=10 approximates the paper).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))


def scaled(n: int) -> int:
    return max(2, int(n * SCALE))


@pytest.fixture(scope="session")
def config():
    return default_config()


@pytest.fixture(scope="session")
def chase():
    return app("chase")


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def write_bench_manifest(name: str, registry, **meta):
    """Write a bench's run manifest to ``BENCH_<name>.json``.

    The output directory is ``REPRO_BENCH_OUT`` when set, otherwise this
    ``benchmarks/`` directory (the files are gitignored).  Benches pass
    their headline numbers as registry gauges so the manifest doubles as
    a machine-readable result record.
    """
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", Path(__file__).parent))
    path = out_dir / f"BENCH_{name}.json"
    registry.manifest(bench=name, scale=SCALE, **meta).write(path)
    print(f"\nwrote bench manifest: {path}")
    return path


@dataclass
class PairedTiming:
    """Per-call wall times of two variants from interleaved rounds."""

    baseline_s: float
    candidate_s: float
    #: median over rounds of candidate/baseline - 1
    overhead: float


def paired_overhead(
    baseline: Callable[[], object],
    candidate: Callable[[], object],
    rounds: int = 11,
    quartets: int = 4,
) -> PairedTiming:
    """The relative cost of ``candidate`` over ``baseline``, measured in
    paired rounds.

    A round times ``quartets`` groups of four single calls in the order
    baseline, candidate, candidate, baseline, and yields one ratio of the
    candidate's summed time to the baseline's.  Interleaving single calls
    lets a burst of background load land on both variants alike, and the
    mirrored order cancels a host speed that drifts within the group and
    any cost of running second; the median over rounds discards the
    rounds a long burst still skewed.  A garbage collection before each
    call keeps one variant's garbage from being collected on the other's
    clock.  Both variants run once untimed first, to warm caches.
    """
    baseline()
    candidate()
    ratios, base_times, cand_times = [], [], []
    for _ in range(rounds):
        spent = {"base": 0.0, "cand": 0.0}
        for _ in range(quartets):
            for side in ("base", "cand", "cand", "base"):
                fn = baseline if side == "base" else candidate
                gc.collect()
                started = time.perf_counter()
                fn()
                spent[side] += time.perf_counter() - started
        base_times.append(spent["base"] / (2 * quartets))
        cand_times.append(spent["cand"] / (2 * quartets))
        ratios.append(spent["cand"] / spent["base"])
    return PairedTiming(
        baseline_s=statistics.median(base_times),
        candidate_s=statistics.median(cand_times),
        overhead=statistics.median(ratios) - 1.0,
    )
