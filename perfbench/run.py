"""The repository benchmark: four seeded workloads through ``repro.api``.

    python3 perfbench/run.py --workload sessions-clean --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 3

Workloads (see ``perfbench/README.md`` for why each exists):

* ``steal`` - cold ``train`` -> ``simulate`` -> ``attack`` over four
  scenarios, one fresh process per repetition;
* ``sessions-clean`` - ``run_sessions`` over 100 idle-device traces;
* ``sessions-contended`` - ``run_sessions`` over 16 traces under load, with
  the fault, drift and policy hooks and recalibration on;
* ``ingest`` - one collector client streams 100k results into a journaled
  one-shard collector tier under mild network faults.

Every measurement runs in a fresh ``worker.py`` process.  With
``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics; with ``--trace 1`` a separate pair of processes
(untraced twin, traced run) gives the per-layer metrics and the tracing
overhead.  Every output is checked; a failed check makes the result
``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
PINNED = HERE / "pinned.json"

WORKLOADS = ("steal", "sessions-clean", "sessions-contended", "ingest")
SESSION_WORKLOADS = ("sessions-clean", "sessions-contended")
#: Cold set-ups measured per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170.0
#: Single-threaded BLAS: OpenBLAS threads spin while idle, and on two
#: cores they steal time from the collector shard and the sampler loop.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: What one operation of each workload completes, for the rate metric.
ITEMS = {
    "steal": ("steal_s", "credentials"),
    "sessions-clean": ("sessions_per_s", "sessions"),
    "sessions-contended": ("sessions_per_s", "sessions"),
    "ingest": ("ingest_per_s", "results"),
}


class CheckFailed(Exception):
    """A worker could not run or an output check failed."""


def run_worker(workload: str, seed: int, mode: str, seconds: float = 0.0) -> dict:
    """Run one fresh worker process; returns its JSON result."""
    env = dict(os.environ)
    env.update(WORKER_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
        "--work-dir", str(WORK_DIR),
    ]
    # a session of its own, so a timeout also kills the collector shard
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise CheckFailed(f"{workload} worker ({mode}) timed out")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise CheckFailed(f"{workload} worker ({mode}) exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def load_pinned() -> dict:
    return json.loads(PINNED.read_text()) if PINNED.exists() else {}


def check_digests(workload: str, seed: int, digests, problems: list) -> str:
    """Every operation must reproduce the seed's pinned output digest."""
    digests = set(digests)
    if len(digests) != 1:
        problems.append(f"outputs differ between repetitions: {sorted(digests)}")
    digest = min(digests)
    pinned = load_pinned().get(workload, {}).get(str(seed))
    if pinned is None:
        return f"{digest} (seed not pinned; repetitions agree)"
    if digest != pinned:
        problems.append(f"output digest {digest} != pinned {pinned}")
    return f"{digest} (matches pinned)" if digest == pinned else digest


# -- timed run ---------------------------------------------------------


def timed(workload: str, seed: int, seconds: float) -> dict:
    """Measure ``workload`` for ``seconds``; returns the report dict."""
    problems: list = []
    if workload == "steal":
        # each repetition is a fresh process, as one `repro steal` pays
        runs = []
        started = time.perf_counter()
        while not runs or time.perf_counter() - started < seconds:
            runs.append(run_worker(workload, seed, "once"))
        ops = [op for run in runs for op in run["ops"]]
        setups = [s for run in runs for s in run["setups"]]
        rss = statistics.median([run["peak_rss_mb"] for run in runs])
    else:
        run = run_worker(workload, seed, "main", seconds)
        ops, setups, rss = run["ops"], run["setups"], run["peak_rss_mb"]
    while len(setups) < SETUP_SAMPLES:
        setups.extend(run_worker(workload, seed, "setup")["setups"])

    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    report = {"items": ops[0]["attempted"]}
    if workload == "ingest":
        for op in ops:
            if not op["exactly_once"]:
                problems.append(f"ingest not exactly once: {op['counts']}")
        report["dupes_dropped"] = [op["counts"]["collector.dupes_dropped"] for op in ops]
    else:
        report["digest"] = check_digests(
            workload, seed, [op["digest"] for op in ops], problems
        )
        report["exact"] = ops[0]["exact"]
        report["exact_rate"] = ops[0]["exact_rate"]
        report["key_accuracy"] = ops[0]["key_accuracy"]
    walls = [op["wall_s"] for op in ops]
    report["walls"] = walls
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "throughput_per_s": (
            statistics.median([op["attempted"] / op["wall_s"] for op in ops]), "1/s"
        ),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    report["setups"] = setups
    return finish(workload, seed, attempted, failed, problems, metrics, report)


# -- traced run --------------------------------------------------------


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("delta_yield", "cache_hit_ratio")):
        return "fraction"
    if name.endswith("frames_per_result"):
        return "frames/result"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def traced(workload: str, seed: int) -> dict:
    """An untraced operation and two traced ones; per-layer metrics.

    The two traced runs must agree on every count that does not depend on
    timing; the first one is reported.
    """
    problems: list = []
    twin = run_worker(workload, seed, "once")
    run = run_worker(workload, seed, "trace")
    again = run_worker(workload, seed, "trace")
    op = run["op"]
    layers = run["layers"]
    for name in run["repeatable"]:
        if layers[name] != again["layers"][name]:
            problems.append(f"{name} differs between two traced runs: "
                            f"{layers[name]} != {again['layers'][name]}")
    layers["trace.untraced_wall_s"] = twin["region_s"]
    layers["trace.overhead_s"] = layers["trace.wall_s"] - twin["region_s"]
    self_total = sum(row[3] for row in run["table"])
    if abs(self_total - layers["trace.wall_s"]) > 1e-6 * max(1.0, layers["trace.wall_s"]):
        problems.append(f"self times sum to {self_total}, traced wall is {layers['trace.wall_s']}")
    report = {"table": run["table"], "wall": layers["trace.wall_s"]}
    ops = twin["ops"] + [run["op"], again["op"]]
    if workload == "ingest":
        for checked in ops:
            if not checked["exactly_once"]:
                problems.append(f"ingest not exactly once: {checked['counts']}")
    else:
        report["digest"] = check_digests(workload, seed, [o["digest"] for o in ops], problems)
    WORK_DIR.mkdir(exist_ok=True)
    spans_file = WORK_DIR / f"spans-{workload}-{seed}.json"
    spans_file.write_text(json.dumps(
        {"fields": ["name", "start_s", "end_s", "parent", "session"], "spans": run["spans"]}
    ))
    report["spans_file"] = str(spans_file.relative_to(ROOT))
    report["spans"] = len(run["spans"])
    metrics = {name: (value, unit_of(name)) for name, value in sorted(layers.items())}
    return finish(workload, seed, op["attempted"], op["failed"], problems, metrics, report)


# -- output ------------------------------------------------------------


def finish(workload, seed, attempted, failed, problems, metrics, report) -> dict:
    return {
        "workload": workload, "seed": seed, "attempted": attempted,
        "failed": failed + len(problems), "problems": problems,
        "metrics": metrics, "report": report,
    }


def describe(result: dict) -> None:
    """Human-readable summary; the machine-readable line comes last."""
    workload, report, metrics = result["workload"], result["report"], result["metrics"]
    print(f"== {workload} (seed {result['seed']})")
    if "table" in report:
        wall = report["wall"]
        print(f"   traced wall {wall:.3f} s, untraced "
              f"{metrics['trace.untraced_wall_s'][0]:.3f} s, tracing overhead "
              f"{metrics['trace.overhead_s'][0]:+.3f} s; {report['spans']} spans in "
              f"{report['spans_file']}")
        print(f"   {'layer':36s} {'calls':>9s} {'busy_s':>9s} {'self_s':>9s} {'self%':>6s}")
        for name, calls, busy, self_s in report["table"]:
            share = 100.0 * self_s / wall if wall else 0.0
            print(f"   {name:36s} {calls:9d} {busy:9.3f} {self_s:9.3f} {share:6.1f}")
        counts = [(n, v) for n, (v, u) in metrics.items() if u != "s" and ".calls" not in n]
        print("   " + ", ".join(f"{n}={v:g}" for n, v in counts))
    else:
        name, unit = ITEMS[workload]
        walls = report["walls"]
        wall = metrics["wall_s"][0]
        if workload == "steal":
            print(f"   steal_s        {wall:.3f} s (median of {len(walls)} cold repetitions, "
                  f"range {min(walls):.3f}-{max(walls):.3f})")
        else:
            rate = metrics["throughput_per_s"][0]
            print(f"   {name:14s} {rate:.1f} {unit}/s ({report['items']} per operation, "
                  f"median of {len(walls)}, walls {min(walls):.3f}-{max(walls):.3f} s)")
        if "exact_rate" in report:
            exact = [name for name, hit in report["exact"] if hit]
            detail = ", ".join(
                f"{name} {'exact' if hit else 'partial'}" for name, hit in report["exact"]
            ) if workload == "steal" else f"{len(exact)}/{len(report['exact'])} exact"
            print(f"   exact_rate     {report['exact_rate']:.4f} fraction ({detail})")
            print(f"   key_accuracy   {report['key_accuracy']:.4f} fraction")
            print(f"   output digest  {report['digest']}")
        if "dupes_dropped" in report:
            print(f"   duplicate frames absorbed per pass: {report['dupes_dropped']}")
        setups = ", ".join(f"{s:.3f}" for s in report["setups"])
        print(f"   setup_s        {metrics['setup_s'][0]:.3f} s (median of {setups})")
        print(f"   peak_rss_mb    {metrics['peak_rss_mb'][0]:.1f} MB")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")


def as_json(results) -> str:
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for name, (value, unit) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            if args.trace:
                result = traced(workload, args.seed)
            else:
                result = timed(workload, args.seed, args.seconds)
            describe(result)
            results.append(result)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(as_json(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
