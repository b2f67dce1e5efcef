"""One benchmark process: set up a workload, run it, print one JSON line.

``run.py`` starts this file in a fresh interpreter for every cold
measurement, so process-lifetime caches (the render cache, the geometry
``lru_cache``) and ``ru_maxrss`` belong to one workload run only::

    python3 perfbench/worker.py --workload sessions-clean --seed 3 --mode main --seconds 15

Modes:

* ``main``  - set up, then run operations until ``--seconds`` of timed work
  are done (session workloads first run one small untimed warm-up batch);
* ``once``  - set up and run exactly one operation (the untraced twin of
  a traced run);
* ``trace`` - like ``once``, with every layer entry point wrapped;
* ``setup`` - set up only (an extra cold set-up sample).

All inputs (credentials, trace, sampler, fault and drift seeds, payload
ids) are derived from ``--seed``; the ``repro`` program only receives the
generated inputs, through ``repro.api`` and ``repro.collector``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The four ``repro steal`` scenarios: three keyboards on three apps,
#: plus the PIN-pad layout.
STEAL_SCENARIOS = ("gboard-chase", "swift-amex", "sogou-fidelity", "pinpad")
STEAL_LENGTH = 8
SESSION_SCENARIO = "gboard-chase"
#: Short credentials keep one session near 400 reads at the 8 ms cadence.
SESSION_LENGTH = 5
CLEAN_BATCH = 100
CONTENDED_BATCH = 16
#: Sessions in the untimed warm-up batch that fills lazy caches first.
WARMUP_SESSIONS = 4
INGEST_RESULTS = 100_000
INGEST_TEXT_LENGTH = 8

#: Stream keys that separate the input streams drawn from one seed.
_KEYS = {"steal": 1, "sessions-clean": 2, "sessions-contended": 3, "ingest": 4}


def _rng(seed: int, workload: str):
    import numpy as np

    return np.random.default_rng([seed, _KEYS[workload]])


def _seed(rng) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _text(rng, length: int, pool: str) -> str:
    """A uniform random credential over ``pool``."""
    return "".join(pool[i] for i in rng.integers(0, len(pool), size=length))


def _digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _session_record(result) -> list:
    """What a host-only speed-up must leave identical for one session."""
    return [result.text, result.reads_issued, dataclasses.asdict(result.stats)]


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- steal -------------------------------------------------------------


class Steal:
    """Cold ``repro steal`` over four scenarios: train, simulate, attack."""

    def __init__(self, api, seed: int) -> None:
        self.api = api
        rng = _rng(seed, "steal")
        self.inputs = []
        for name in STEAL_SCENARIOS:
            scenario = api.scenario(name)
            credential = _text(rng, STEAL_LENGTH, scenario.credential_pool())
            self.inputs.append((name, credential, _seed(rng), _seed(rng)))

    def setup(self) -> None:
        pass

    def warmup(self) -> None:
        pass  # measured cold on purpose

    def teardown(self) -> None:
        pass

    def op(self):
        api = self.api
        outcomes = []
        for name, credential, trace_seed, attack_seed in self.inputs:
            config = api.AttackConfig(
                scenario=name, recognize_device=False, fault_plan=None,
                mitigation=None, drift=None, calibration=None,
            )
            store = api.train(config=config)
            trace = api.simulate(credential=credential, seed=trace_seed, config=config)
            result = api.attack(store, trace, seed=attack_seed, config=config)
            outcomes.append((name, credential, result))
        return outcomes

    def check(self, outcomes) -> dict:
        return _score(outcomes)


# -- session batches ---------------------------------------------------


class Sessions:
    """``run_sessions(workers=1)`` over pre-simulated ``gboard-chase`` traces."""

    def __init__(self, api, seed: int, contended: bool) -> None:
        self.api = api
        workload = "sessions-contended" if contended else "sessions-clean"
        rng = _rng(seed, workload)
        pool = api.scenario(SESSION_SCENARIO).credential_pool()
        count = CONTENDED_BATCH if contended else CLEAN_BATCH
        self.credentials = [_text(rng, SESSION_LENGTH, pool) for _ in range(count)]
        self.trace_seeds = [_seed(rng) for _ in range(count)]
        self.batch_seed = _seed(rng)
        if contended:
            # allow-all installs no KGSL hook at all; a quantize step of 1
            # runs the policy hook on every read and changes no value
            passthrough = api.MitigationPolicy(name="passthrough", quantize_step=1)
            self.config = api.AttackConfig(
                scenario=SESSION_SCENARIO, recognize_device=False,
                gpu_utilization=0.5, cpu_utilization=0.3,
                fault_plan=api.FaultPlan.from_profile("mild", seed=_seed(rng)),
                drift=api.DriftPlan.from_profile("thermal-mild", seed=_seed(rng)),
                mitigation=passthrough, calibration="default",
            )
        else:
            self.config = api.AttackConfig(
                scenario=SESSION_SCENARIO, recognize_device=False,
                fault_plan=None, mitigation=None, drift=None, calibration=None,
            )

    def setup(self) -> None:
        api = self.api
        self.store = api.train(config=self.config)
        self.traces = [
            api.simulate(credential=c, seed=s, config=self.config)
            for c, s in zip(self.credentials, self.trace_seeds)
        ]

    def warmup(self) -> None:
        batch = self.api.run_sessions(
            self.store, self.traces[:WARMUP_SESSIONS], seed=self.batch_seed,
            config=self.config,
        )
        if len(batch) != WARMUP_SESSIONS:
            raise RuntimeError(f"warm-up returned {len(batch)} of {WARMUP_SESSIONS} sessions")

    def teardown(self) -> None:
        pass

    def op(self):
        return self.api.run_sessions(
            self.store, self.traces, seed=self.batch_seed, config=self.config
        )

    def check(self, batch) -> dict:
        outcomes = [
            (f"s{i}", credential, result)
            for i, (credential, result) in enumerate(zip(self.credentials, batch))
        ]
        score = _score(outcomes)
        # a session without a result is a failed operation
        score["attempted"] = len(self.traces)
        score["failed"] = len(self.traces) - len(batch)
        score["faults_injected"] = sum(
            r.faults.total for r in batch if r.faults is not None
        )
        return score


def _score(outcomes) -> dict:
    from repro.api import AccuracyReport

    report = AccuracyReport()
    records = []
    for name, credential, result in outcomes:
        report.add(credential, result.text)
        records.append([name, credential == result.text] + _session_record(result))
    return {
        "attempted": len(outcomes),
        "failed": 0,
        "exact": [r[:2] for r in records],
        "exact_rate": report.text_accuracy,
        "key_accuracy": report.key_accuracy,
        "digest": _digest(records),
    }


# -- journaled ingest --------------------------------------------------


class Ingest:
    """One client streams seeded results into a one-shard journaled tier."""

    def __init__(self, api, seed: int, work_dir: Path) -> None:
        self.api = api
        rng = _rng(seed, "ingest")
        self.payload_seed = _seed(rng)
        self.fault_seed = _seed(rng)
        self.client_offset = _seed(rng)
        self.tier_seed = _seed(rng)
        self.work_dir = work_dir
        self.passes = 0
        # Client and shard share one CPU (the spawned shard inherits the
        # mask).  Spread over two vCPUs, every ack round trip waits on a
        # cross-CPU wakeup whose latency follows the host's load, which
        # made one pass take 4.5 s or 10 s depending on the minute.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def setup(self) -> None:
        import numpy as np

        api = self.api
        rng = np.random.default_rng(self.payload_seed)
        n = INGEST_RESULTS
        pool = api.scenario(SESSION_SCENARIO).credential_pool()
        devices = rng.integers(0, 10_000, size=n)
        letters = np.array(list(pool))[
            rng.integers(0, len(pool), size=(n, INGEST_TEXT_LENGTH))
        ]
        exact = rng.random(n) < 0.9
        seeds = rng.integers(0, 2**31 - 1, size=n)
        deltas = rng.integers(0, 1 << 20, size=(n, 11))
        masks = rng.integers(0, 1 << 11, size=n)
        self.payloads = [
            api.SessionResultPayload(
                device_id=f"device-{int(devices[i]):05d}",
                session_index=i,
                text="".join(letters[i]),
                n_keys=INGEST_TEXT_LENGTH,
                exact=bool(exact[i]),
                seed=int(seeds[i]),
                deltas=tuple(int(v) for v in deltas[i]),
                mask=int(masks[i]),
            )
            for i in range(n)
        ]
        self.journal_dir = self.work_dir / f"ingest-{os.getpid()}-{self.passes}"
        self.passes += 1
        shutil.rmtree(self.journal_dir, ignore_errors=True)
        self.config = api.CollectorConfig(
            codec="binary", shards=1, journal_dir=str(self.journal_dir),
            journal_sync="flush", pipeline_depth=32,
            retry=api.RetryPolicy(max_attempts=10, base_delay_s=0.002, max_delay_s=0.05),
        )
        self.tier = api.CollectorTier(self.config, seed=self.tier_seed)
        self.tier.start()

    def warmup(self) -> None:
        pass  # every pass starts a fresh shard

    def teardown(self) -> None:
        self.tier.stop()
        shutil.rmtree(self.journal_dir, ignore_errors=True)

    def op(self):
        api = self.api
        self.client = api.CollectorClient(
            self.tier.endpoints[0], "bench-client",
            fault_plan=api.FaultPlan.from_profile("mild", seed=self.fault_seed),
            config=self.config, seed_offset=self.client_offset,
        )
        try:
            return self.client.send_results(self.payloads)
        except BaseException:
            self.client.close()
            self.tier.stop()
            raise

    def check(self, acked) -> dict:
        from repro.collector import count_journal_records

        self.client.close()
        self.tier.stop()
        counters = self.tier.merged_manifest().counters
        journal = self.tier.journal_file(0)
        stats = self.client.stats
        ingested = int(counters.get("collector.sessions_ingested", 0))
        dupes = int(counters.get("collector.dupes_dropped", 0))
        frames = int(counters.get("collector.frames_ingested", 0))
        sent = len(self.payloads)
        records = count_journal_records(journal)
        out = {
            "attempted": sent,
            # a result is lost unless it was acked, ingested once and journaled
            "failed": sent - min(acked, ingested, records),
            "counts": {
                "collector.sessions_ingested": ingested,
                "collector.dupes_dropped": dupes,
                "collector.frames_ingested": frames,
                "collector.batch_frames": int(counters.get("collector.batch_frames", 0)),
                "collector.journal.records": records,
                "collector.journal.bytes": journal.stat().st_size,
                "collector.client.retries": stats.retries,
                "collector.client.injected_drops": stats.injected_drops,
            },
            # exactly once: every result ingested and journaled once, and
            # every frame beyond the first copy of each result - the
            # resends after injected drops - absorbed by dedup
            "exactly_once": ingested == sent and records == sent
            and frames - ingested == dupes and stats.frames_sent == frames,
        }
        shutil.rmtree(self.journal_dir, ignore_errors=True)
        return out


# -- entry point -------------------------------------------------------


def _workload(api, name: str, seed: int, work_dir: Path):
    if name == "steal":
        return Steal(api, seed)
    if name == "ingest":
        return Ingest(api, seed, work_dir)
    return Sessions(api, seed, contended=name == "sessions-contended")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("main", "once", "trace", "setup"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from repro import api

    if args.mode == "trace":
        import layers
        from tracer import LayerTracer

        tracer = LayerTracer()
        dropped_reads = layers.install(tracer)
    imported = time.perf_counter()
    work = _workload(api, args.workload, args.seed, Path(args.work_dir))
    # set-up: imports for steal; imports, training and simulation for the
    # session workloads; payload build and shard spawn for ingest
    out = {"import_s": imported - _STARTED}

    if args.mode == "trace":
        with tracer:
            work.setup()
            with tracer.pause():
                work.warmup()
            raw = work.op()
        out["op"] = work.check(raw)
        # counts the workload read from its results and the collector
        tracer.counts["faults.injected"] = out["op"].get("faults_injected", 0)
        tracer.counts.update(out["op"].get("counts", {}))
        out["layers"] = layers.layer_metrics(tracer, dropped_reads())
        out["repeatable"] = layers.repeatable(out["layers"])
        out["table"] = tracer.table()
        out["spans"] = tracer.spans
        print(json.dumps(out))
        return 0

    setups = []
    ops = []
    deadline = None
    while True:
        # only ingest repeats its set-up: a fresh shard and journal per pass
        if not setups or args.workload == "ingest":
            started = time.perf_counter()
            work.setup()
            setups.append(time.perf_counter() - started)
            if args.mode == "setup":
                work.teardown()
                break
        if not ops:
            work.warmup()
        if deadline is None:
            deadline = time.perf_counter() + args.seconds
        started = time.perf_counter()
        raw = work.op()
        wall = time.perf_counter() - started
        op = work.check(raw)
        op["wall_s"] = wall
        ops.append(op)
        if len(ops) == 1:
            # peak memory after a fixed amount of work: set-up, warm-up and
            # one operation, however many operations the host has time for
            out["peak_rss_mb"] = _peak_rss_mb()
        if args.mode == "once" or time.perf_counter() >= deadline:
            break
    if ops:
        # the span a traced run covers: first set-up and first operation
        out["region_s"] = setups[0] + ops[0]["wall_s"]
    if args.workload != "ingest":
        setups[0] += out["import_s"]
    out["setups"] = setups
    out["ops"] = ops
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
