"""Run one benchmark workload as a closed loop and print its metrics.

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 25 --trace 0

One client in one process submits a job, waits for its results, checks
them, and only then builds the next job, until ``--seconds`` have passed.
Each job gets a fresh emulated cloud, seeded from ``--seed``.  With ``--trace 0``
the last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced jobs alternate, and the JSON object holds
the per-layer metrics of the traced jobs.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
#: declares the metrics this program prints, with their units
SPEC_FILE = BENCH_DIR.parent / "BENCHMARK.json"

#: seeded clouds per run.  A run's seed derives one environment seed per
#: cloud, jobs take the clouds in turn, and each virtual metric is the mean
#: over the clouds: one cloud's makespan is set by its slowest call, which
#: varies by ~6% from seed to seed, and the mean of four halves that.  A run
#: measures every cloud at least once (with --trace 1, traced and untraced).
CLOUDS = 4

#: host timings are reported at the speed of a host that runs
#: ``reference_work`` in this many seconds of CPU time (see ``reference_s``)
REFERENCE_S = 0.1

HOST_TIMINGS = ("host_s", "host_cpu_s", "host_us_per_fn", "setup_s")
VIRTUAL_METRICS = ("virtual_s", "invoke_phase_s", "cost_usd")


@dataclass
class JobResult:
    """What one job measured, and how many of its calls failed."""

    cloud: int
    traced: bool
    #: ``reference_s()`` measured just before the job's set-up
    ref_s: float = 0.0
    #: REFERENCE_S over the reference time around the job; the host
    #: timings below are multiplied by it once the run ends
    speed: float = 1.0
    setup_s: float = 0.0
    host_s: float = 0.0
    host_cpu_s: float = 0.0
    activations: int = 0
    #: (virtual_s, invoke_phase_s, cost_usd)
    virtual: Optional[tuple[float, float, float]] = None
    calls: int = 0
    failed: int = 0
    layers: Optional[dict[str, float]] = None
    error: Optional[str] = None


class _RefRecord:
    __slots__ = ("key", "text")

    def __init__(self, key: int, text: str) -> None:
        self.key = key
        self.text = text


def reference_work() -> int:
    """A fixed pure-Python loop: small objects, attribute reads, dict
    updates, string and bytes building, the interpreter work the simulator
    does.  It imports nothing from the program, and must not change: every
    host timing of every run is scaled by its time."""
    totals: dict[int, int] = {}
    encoded = 0
    for i in range(120_000):
        record = _RefRecord(i % 997, str(i))
        totals[record.key] = totals.get(record.key, 0) + len(record.text)
        if i % 3 == 0:
            encoded += len(record.text.encode())
    return encoded + sum(totals.values())


def reference_s() -> float:
    """CPU seconds ``reference_work`` takes on this host right now.

    On a shared virtual machine the speed of one CPU flips between states
    up to 2x apart, for a fraction of a second to minutes at a time.  On a
    2-vCPU KVM guest (Intel Xeon), within two minutes, identical
    ``fanout_traced`` jobs took 1.20-2.33 s and this loop 0.054-0.115 s.
    The median ``host_s`` of 25-second windows of those jobs spread by 0.19
    of itself (interquartile range over median), and by 0.29-0.34 on
    ``scan``, against a bound of at most 0.25.  Scaled by this loop,
    measured before and after each job, the same ``fanout_traced`` windows
    spread by 0.014.
    """
    t0 = time.process_time()
    reference_work()
    return time.process_time() - t0


def scale_to_reference(results: list[JobResult], final_ref_s: float) -> None:
    """Scale each job's host timings by the reference loop's time around
    it: the mean of the time measured before it and before the next job."""
    refs = [j.ref_s for j in results] + [final_ref_s]
    for k, job in enumerate(results):
        job.speed = REFERENCE_S / ((refs[k] + refs[k + 1]) / 2)
        job.setup_s *= job.speed
        job.host_s *= job.speed
        job.host_cpu_s *= job.speed


def run_job(workload, cloud: int, probe=None) -> JobResult:
    """Set up a fresh environment, run one timed job, and check it."""
    import repro
    from repro.core import cost
    from repro.core.worker import RUNNER_ACTION_BASENAME

    gc.collect()
    job = JobResult(cloud=cloud, traced=probe is not None, ref_s=reference_s())
    holder: dict[str, Any] = {}
    with probe if probe is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        env = workload.create_env()

        def client():
            executor = repro.ibm_cf_executor(**workload.executor_kwargs)
            holder["executor"] = executor
            job.setup_s = time.perf_counter() - t0
            if probe is not None:
                probe.begin()
            v0 = env.now()
            c0 = time.process_time()
            h0 = time.perf_counter()
            outputs, extra = workload.run(env, executor)
            job.host_s = time.perf_counter() - h0
            job.host_cpu_s = time.process_time() - c0
            v1 = env.now()
            if probe is not None:
                probe.end()
            return executor, v0, v1, outputs, extra

        try:
            executor, v0, v1, outputs, extra = env.run(client)
        except Exception as exc:  # noqa: BLE001 - a failed job is a result
            executor = holder.get("executor")
            job.calls = max(1, len(executor.futures) if executor is not None else 0)
            job.failed = job.calls
            job.error = f"{type(exc).__name__}: {exc}"
            return job
        records = env.platform.activations()
        starts = [
            r.start_time
            for r in records
            if r.action_name.startswith(RUNNER_ACTION_BASENAME) and r.start_time is not None
        ]
        job.activations = len(records)
        job.virtual = (
            v1 - v0,
            max(starts) - v0,
            env.platform.billing.total_cost() + cost.cos_request_cost(env.storage.request_counts()),
        )
        job.calls = len(executor.futures)
        job.failed = workload.failed_calls(env, outputs, extra, job.calls)
        if probe is not None:
            job.layers = probe.snapshot(env, executor, extra)
    return job


def tail_percentile(values: list[float]) -> Optional[tuple[int, float]]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    ordered = sorted(values)
    for pct in (99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def end_to_end(
    measured: list[JobResult], peak_rss_mb: float, units: dict[str, str]
) -> dict[str, float]:
    raw_host_s = statistics.median(j.host_s / j.speed for j in measured)
    speeds = sorted(j.speed for j in measured)
    print(
        f"  host timings scaled to a host that runs the reference loop in {REFERENCE_S} s:"
        f" scale {speeds[0]:.3f}-{speeds[-1]:.3f}, median {statistics.median(speeds):.3f};"
        f" unscaled median host_s {raw_host_s:.6g} s"
    )
    samples = {
        "host_s": [j.host_s for j in measured],
        "host_cpu_s": [j.host_cpu_s for j in measured],
        "host_us_per_fn": [1e6 * j.host_s / j.activations for j in measured],
        "setup_s": [j.setup_s for j in measured],
    }
    for name in HOST_TIMINGS:
        values = samples[name]
        tail = tail_percentile(values)
        tail_text = (
            f"p{tail[0]} {tail[1]:.6g}" if tail else "no percentile has 10 jobs beyond it"
        )
        print(
            f"  {name:<16} {statistics.median(values):.6g} {units[name]}"
            f"  (median of {len(values)} jobs; {tail_text})"
        )
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    print(
        f"  {'peak_rss_mb':<16} {metrics['peak_rss_mb']:.6g} {units['peak_rss_mb']}"
        f"  (peak over the warm-up and the first {CLOUDS} jobs)"
    )
    by_cloud = {j.cloud: j.virtual for j in measured}
    for i, name in enumerate(VIRTUAL_METRICS):
        metrics[name] = math.fsum(by_cloud[c][i] for c in range(CLOUDS)) / CLOUDS
        print(
            f"  {name:<16} {metrics[name]!r} {units[name]}"
            f"  (virtual, mean of {CLOUDS} clouds)"
        )
    return metrics


def per_layer(
    probe, untraced: list[JobResult], traced: list[JobResult], units: dict[str, str]
) -> dict[str, float]:
    from probes import SHARE_LAYERS, median_snapshot

    metrics = median_snapshot([j.layers for j in traced])
    metrics.update(probe.shares())
    samples = probe.sampler.samples
    metrics["sampler.samples"] = samples
    metrics["overhead.host_s"] = statistics.median(j.host_s for j in traced) - statistics.median(
        j.host_s for j in untraced
    )
    for name in units:
        note = f"  (of {samples} samples)" if name.endswith(".host_share") else ""
        print(f"  {name:<24} {metrics[name]:.6g} {units[name]}{note}")
    others = sorted(set(probe.sampler.counts) - set(SHARE_LAYERS))
    for label in others:
        share = probe.sampler.counts[label] / samples
        print(f"  ({label} share {share:.4f} of {samples} samples, not a metric)")
    return metrics


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts, on one CPU.

    The simulator holds the GIL, so it never runs two threads at once, but
    it hands the GIL from thread to thread thousands of times per job.
    Across CPUs each hand-off is a cross-CPU wake-up, whose latency on a
    virtual machine varies with the host's load: unpinned, ``host_s`` ran
    0.04-0.43 s above ``host_cpu_s`` on ``shuffle``, pinned at most 0.03 s.
    A change that adds real parallelism must revisit this.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC_DIR}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    units = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC_DIR))
    import jobs

    if args.workload not in jobs.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(jobs.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    clouds = [
        jobs.WORKLOADS[args.workload](args.seed * CLOUDS + cloud) for cloud in range(CLOUDS)
    ]
    probe = None
    if args.trace:
        import repro
        from probes import LayerProbe, StackSampler

        probe = LayerProbe(
            StackSampler(
                repro_dir=str(Path(repro.__file__).parent),
                user_file=jobs.__file__,
                user_functions=jobs.USER_FUNCTIONS,
                bench_dir=str(BENCH_DIR),
            )
        )

    # one untimed job first: imports and first-use costs stay out of the
    # measurement; it is still checked and counted
    results = [run_job(clouds[0], 0)]
    measured: list[JobResult] = []
    peak_rss_mb = 0.0
    deadline = time.perf_counter() + args.seconds
    while results[-1].error is None:
        # with --trace 1, an untraced and a traced job share each cloud in turn
        traced = probe is not None and len(measured) % 2 == 1
        turn = len(measured) // 2 if probe is not None else len(measured)
        cloud = turn % CLOUDS
        measured.append(run_job(clouds[cloud], cloud, probe if traced else None))
        if len(measured) == CLOUDS:
            # resident memory grows from job to job (by ~3 MB per job on
            # fanout_traced), so the peak is read after a fixed number of
            # jobs, not after as many as the host's speed let the run fit
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results.append(measured[-1])
        untraced = [j for j in measured if not j.traced]
        traced_jobs = [j for j in measured if j.traced]
        if (
            time.perf_counter() >= deadline
            and len(untraced) >= CLOUDS
            and (probe is None or len(traced_jobs) >= CLOUDS)
        ):
            break
    gc.collect()
    scale_to_reference(results, reference_s())

    attempted = sum(j.calls for j in results)
    failed = sum(j.failed for j in results)
    errors = [j.error for j in results if j.error]
    for cloud in range(CLOUDS):
        virtuals = {j.virtual for j in results if j.cloud == cloud and j.virtual is not None}
        if len(virtuals) > 1:
            errors.append(f"same-seed jobs gave different virtual metrics: {sorted(virtuals)}")
    correct = not errors and failed == 0

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"closed loop, 1 client, {len(measured)} measured jobs + 1 warm-up"
    )
    print(f"  failed_frac      {failed / attempted!r} ratio  ({failed} of {attempted} calls)")
    for error in errors:
        print(f"  ERROR: {error}")
    metrics: dict[str, float] = {}
    if not errors:
        untraced = [j for j in measured if not j.traced]
        if probe is None:
            values = end_to_end(untraced, peak_rss_mb, units)
        else:
            values = per_layer(probe, untraced, [j for j in measured if j.traced], units)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
