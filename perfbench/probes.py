"""Per-layer instrumentation for the traced run, kept outside the program.

:class:`LayerProbe` measures one job's layers from the outside, in three
ways:

* it wraps the public entry points of ``core``, ``cos`` and ``dag`` with
  host-clock (and, for submission, virtual-clock) timers and counters;
* after the job it reads the counters the program already exposes
  (kernel, platform, billing, object store, exchange, executor);
* a :class:`StackSampler` thread reads every thread's stack with
  ``sys._current_frames()`` and charges each running thread's self time
  to the ``repro`` package that owns the innermost non-stdlib frame.

Nothing here changes virtual time: wrappers only read clocks and count,
so a traced job must report the same virtual metrics as an untraced one.
"""

from __future__ import annotations

import gc
import inspect
import os
import statistics
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Iterable, Optional

from repro.core import serializer
from repro.core.executor import FunctionExecutor
from repro.cos.client import COSClient
from repro.dag.scheduler import DagScheduler

#: the GIL switch interval while sampling.  At the default 5 ms the
#: sampler thread rarely gets the lock: 8 samples in one 1.7 s fanout job,
#: against 87 at 0.5 ms.
SAMPLER_SWITCH_INTERVAL_S = 0.0005

#: seconds between two stack samples
SAMPLER_INTERVAL_S = 0.001

#: packages whose host share is reported as a per-layer metric
SHARE_LAYERS = ("vtime", "core", "faas", "cos", "net", "dag", "workloads", "trace", "user")

_THREADING_FILE = os.path.normcase(os.path.abspath(threading.__file__))


class StackSampler:
    """All-thread stack sampler attributing self time to packages.

    A thread whose innermost frame is ``threading.Condition.wait`` or
    ``Thread._wait_for_tstate_lock`` is parked, not running, and is not
    counted.  Standard-library frames are charged to their nearest caller
    inside ``repro``, the user's function bodies or the benchmark.
    """

    def __init__(
        self,
        repro_dir: str,
        user_file: str,
        user_functions: Iterable[str],
        bench_dir: str,
    ) -> None:
        self._repro_dir = os.path.normcase(os.path.abspath(repro_dir)) + os.sep
        self._user_file = os.path.normcase(os.path.abspath(user_file))
        self._user_functions = frozenset(user_functions)
        self._bench_dir = os.path.normcase(os.path.abspath(bench_dir)) + os.sep
        self._labels: dict[Any, Optional[str]] = {}
        self.counts: Counter = Counter()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _label(self, code) -> Optional[str]:
        """The package a code object belongs to: ``None`` for stdlib and
        other frames charged to their caller, ``"parked"`` for a wait."""
        label = self._labels.get(code, "")
        if label != "":
            return label
        path = os.path.normcase(os.path.abspath(code.co_filename))
        if path.startswith(self._repro_dir):
            top = path[len(self._repro_dir):].split(os.sep)[0]
            label = top[:-3] if top.endswith(".py") else top
            if label == "__init__":
                label = "repro"
        elif path == self._user_file and self._user_functions.intersection(
            code.co_qualname.split(".")
        ):
            # the function bodies and the comprehensions nested in them
            label = "user"
        elif path.startswith(self._bench_dir):
            # a sample inside the GC callback is a collection in progress
            label = "gc" if code.co_name == "_on_gc" else "bench"
        elif path == _THREADING_FILE and code.co_name in ("wait", "_wait_for_tstate_lock"):
            label = "parked"
        else:
            label = None
        self._labels[code] = label
        return label

    def _attribute(self, frame) -> Optional[str]:
        """The package charged for a thread's innermost frame, or ``None``
        for a parked thread."""
        if self._label(frame.f_code) == "parked":
            return None
        while frame is not None:
            label = self._label(frame.f_code)
            if label is not None and label != "parked":
                return label
            frame = frame.f_back
        return "other"

    def _run(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(SAMPLER_INTERVAL_S):
            # sys._current_frames() holds the interpreter's thread-list lock
            # while it allocates.  A collection there can run Python code
            # (finalizers, gc.callbacks) and hand the GIL to a thread that
            # then blocks on that lock to start a thread: a deadlock.
            gc.disable()
            try:
                frames = sys._current_frames()
            finally:
                gc.enable()
            for ident, frame in frames.items():
                if ident == me:
                    continue
                label = self._attribute(frame)
                if label is not None:
                    self.counts[label] += 1

    def start(self) -> None:
        # by-value user code is rebuilt per call: drop the last job's code objects
        self._labels.clear()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="stack-sampler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    @property
    def samples(self) -> int:
        return sum(self.counts.values())


class LayerProbe:
    """Timers and counters around each layer's public entry points.

    Use as a context manager around one whole job (set-up included, so the
    COS clients built during set-up are seen), and call :meth:`begin` and
    :meth:`end` around the timed region: counters reset at ``begin``, and
    the sampler and the GC timer run only between the two.  The sampler's
    counts accumulate over every job that one probe traces.
    """

    def __init__(self, sampler: StackSampler) -> None:
        self.sampler = sampler
        # re-entrant: a collection's finalizers may reach a wrapper while
        # this thread already holds the lock
        self._lock = threading.RLock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._cos_clients: list[COSClient] = []
        self._gc_start: Optional[float] = None
        self._gc_pause_s = 0.0
        self._gc_collections = 0
        self._active = False
        self._switch_interval = sys.getswitchinterval()
        self.counters: Counter = Counter()

    # -- counting --------------------------------------------------------
    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _outermost(self) -> bool:
        return getattr(self._local, "depth", 0) == 0

    def _timed(self, prefix: str, virtual: bool = False) -> Callable:
        """A wrapper factory timing an executor method on the host clock
        (and the virtual clock).

        Only the outermost call on a thread is timed, so ``map_reduce_shuffle``
        calling ``map`` counts once.
        """
        probe = self

        def wrap(fn: Callable) -> Callable:
            def wrapper(executor, *args, **kwargs):
                if not probe._outermost():
                    return fn(executor, *args, **kwargs)
                probe._local.depth = 1
                v0 = executor.kernel.now() if virtual else 0.0
                t0 = time.perf_counter()
                try:
                    return fn(executor, *args, **kwargs)
                finally:
                    host = time.perf_counter() - t0
                    probe._local.depth = 0
                    with probe._lock:
                        probe.counters[prefix + ".calls"] += 1
                        probe.counters[prefix + ".host_s"] += host
                        if virtual:
                            probe.counters[prefix + ".virtual_s"] += executor.kernel.now() - v0

            return wrapper

        return wrap

    def _serializer(self, size: Callable[[Any, Any], int]) -> Callable:
        """A wrapper factory for ``serialize``/``deserialize``: calls, host
        time and ``size(argument, result)`` bytes."""
        probe = self

        def wrap(fn: Callable) -> Callable:
            def wrapper(obj):
                t0 = time.perf_counter()
                out = fn(obj)
                host = time.perf_counter() - t0
                with probe._lock:
                    probe.counters["core.serialize.calls"] += 1
                    probe.counters["core.serialize.bytes"] += size(obj, out)
                    probe.counters["core.serialize.host_s"] += host
                return out

            return wrapper

        return wrap

    def _counted(self, name: str, size: Callable[[tuple, Any], int]) -> Callable:
        """A wrapper factory adding ``size(args, result)`` to counter ``name``;
        generator functions (the ``*_steps`` twins) stay generators."""
        probe = self

        def wrap(fn: Callable) -> Callable:
            if inspect.isgeneratorfunction(fn):

                def steps_wrapper(*args, **kwargs):
                    out = yield from fn(*args, **kwargs)
                    probe.add(name, size(args, out))
                    return out

                return steps_wrapper

            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                probe.add(name, size(args, out))
                return out

            return wrapper

        return wrap

    def _cos_init(self, fn: Callable) -> Callable:
        probe = self

        def wrapper(client, *args, **kwargs):
            fn(client, *args, **kwargs)
            with probe._lock:
                probe._cos_clients.append(client)

        return wrapper

    # -- installation ----------------------------------------------------
    def _patch(self, owner: Any, name: str, wrap: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrap(original))

    def __enter__(self) -> "LayerProbe":
        submit = self._timed("core.submit", virtual=True)
        for name in ("map", "map_partitions", "map_reduce_shuffle"):
            self._patch(FunctionExecutor, name, submit)
        wait = self._timed("core.wait")
        for name in ("wait", "get_result"):
            self._patch(FunctionExecutor, name, wait)
        self._patch(serializer, "serialize", self._serializer(lambda _obj, blob: len(blob)))
        self._patch(serializer, "deserialize", self._serializer(lambda blob, _obj: len(blob)))
        # (client, bucket, key, data, ...) -> the bytes returned or written
        read = self._counted("cos.bytes_read", lambda _args, data: len(data))
        for name in ("get_object", "read_range", "get_object_steps", "read_range_steps"):
            self._patch(COSClient, name, read)
        written = self._counted("cos.bytes_written", lambda args, _out: len(args[3]))
        for name in ("put_object", "put_object_steps"):
            self._patch(COSClient, name, written)
        self._patch(COSClient, "__init__", self._cos_init)
        # (scheduler, dag)
        nodes = self._counted("dag.nodes", lambda args, _run: len(args[1]))
        self._patch(DagScheduler, "submit", nodes)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.end()
        gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._cos_clients.clear()

    def _on_gc(self, phase: str, _info: dict) -> None:
        # No lock: the interpreter runs one collection at a time, and a
        # collection can start inside ``add`` while this thread holds it.
        if not self._active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self._gc_pause_s += time.perf_counter() - self._gc_start
            self._gc_collections += 1
            self._gc_start = None

    def begin(self) -> None:
        """Start of the timed region: reset counters, start sampling."""
        with self._lock:
            self.counters.clear()
        self._gc_pause_s = 0.0
        self._gc_collections = 0
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(SAMPLER_SWITCH_INTERVAL_S)
        self._active = True
        self.sampler.start()

    def end(self) -> None:
        """End of the timed region (idempotent)."""
        if not self._active:
            return
        self._active = False
        self.sampler.stop()
        sys.setswitchinterval(self._switch_interval)

    # -- the job's per-layer snapshot -------------------------------------
    def snapshot(self, env, executor, extra: dict) -> dict[str, float]:
        """Per-layer values of one job: probe counters, program counters,
        and the workload's own observations in ``extra``."""
        out = {
            name: float(self.counters.get(name, 0))
            for name in (
                "core.submit.host_s", "core.submit.virtual_s", "core.wait.host_s",
                "core.wait.calls", "core.serialize.calls", "core.serialize.bytes",
                "core.serialize.host_s", "cos.bytes_read", "cos.bytes_written",
                "dag.nodes",
            )
        }
        out["gc.pause_s"] = self._gc_pause_s
        out["gc.collections"] = self._gc_collections
        kernel = env.kernel
        out["vtime.tasks"] = kernel.spawned_total
        out["vtime.threads_peak"] = kernel.thread_stats()["peak_threads"]
        resilience = executor.resilience_stats()
        out["core.retries"] = resilience["invocation_retries"]
        out["net.retries"] = resilience["invoke_network_retries"] + sum(
            client.retries for client in self._cos_clients
        )
        records = env.platform.activations()
        delays = sorted(r.wait_time for r in records if r.wait_time is not None)
        cold = sum(1 for r in records if r.cold_start)
        out["faas.activations"] = len(records)
        out["faas.cold_starts"] = cold
        out["faas.cold_ratio"] = cold / len(records) if records else 0.0
        out["faas.start_delay_p50_s"] = _percentile(delays, 50)
        out["faas.start_delay_p99_s"] = _percentile(delays, 99)
        out["faas.throttled"] = env.platform.throttled_total
        out["faas.gb_s"] = env.platform.billing.total_gb_seconds()
        counts = env.storage.request_counts()
        for op in ("get", "range", "put", "list"):
            out["cos." + op] = counts.get(op, 0)
        out["cos.head"] = counts.get("head", 0) + counts.get("head_bucket", 0)
        exchange = env.exchange.stats()
        for key in ("puts", "gets", "bytes_put", "bytes_got"):
            out["exchange." + key] = exchange.get(key, 0)
        for name in (
            "scan.partitions", "scan.bytes_read", "scan.rows_scanned",
            "scan.pruned_ratio", "trace.events", "trace.export_s",
        ):
            out[name] = float(extra.get(name, 0))
        return out

    def shares(self) -> dict[str, float]:
        """Host-time share of each reported package over all sampled jobs."""
        total = self.sampler.samples
        return {
            layer + ".host_share": (self.sampler.counts.get(layer, 0) / total if total else 0.0)
            for layer in SHARE_LAYERS
        }


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return float(sorted_values[int(rank) - 1])


def median_snapshot(snapshots: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over several jobs' snapshots."""
    return {key: statistics.median(s[key] for s in snapshots) for key in snapshots[0]}
