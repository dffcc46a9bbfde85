"""Top-level command line: ``python -m repro``.

Run without arguments for the subcommand listing — it is generated from
the command registry at the bottom of this module, so a new subcommand
shows up the moment it is registered (the old hand-written docstring had
drifted out of date more than once).
"""

from __future__ import annotations

import sys
from typing import Callable, Optional, Sequence


def _cmd_version(args: Sequence[str]) -> int:
    del args
    import repro

    print(f"repro {repro.__version__} — IBM-PyWren reproduction")
    print("substrates: vtime kernel, cos, faas (OpenWhisk-like), mq, net")
    return 0


def _cmd_quickstart(args: Sequence[str]) -> int:
    del args
    import repro as pw

    def my_map_function(x):
        return x + 7

    env = pw.CloudEnvironment.create()

    def main():
        executor = pw.ibm_cf_executor()
        executor.map(my_map_function, [3, 6, 9])
        return executor.get_result(), pw.now()

    result, elapsed = env.run(main)
    print(f"map(x + 7, [3, 6, 9]) -> {result}   ({elapsed:.1f}s virtual)")
    return 0


def _cmd_demo(args: Sequence[str]) -> int:
    del args
    import repro as pw
    from repro.faas.shell import WskShell

    env = pw.CloudEnvironment.create()

    def main():
        executor = pw.ibm_cf_executor(invoker_mode="massive")

        def task(x):
            pw.sleep(10)
            return x * x

        return executor.get_result(executor.map(task, list(range(20))))

    results = env.run(main)
    print(f"ran 20 functions -> sum of squares = {sum(results)}\n")
    shell = WskShell(env)
    for command in ["action list", "activation list --limit 3", "billing summary"]:
        print(f"$ wsk {command}")
        print(shell.run(command))
        print()
    return 0


def _cmd_trace(args: Sequence[str]) -> int:
    """Inspect a trace JSONL file; render Fig. 2/3-style SVG or Chrome JSON."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Summarize an exported trace and render it as the "
        "paper's Fig. 2/3-style SVG timeline or Chrome trace_event JSON "
        "(loadable in Perfetto).",
    )
    parser.add_argument("file", help="trace JSONL file (executor.trace_jsonl())")
    parser.add_argument("--svg", metavar="OUT", help="write timeline SVG here")
    parser.add_argument(
        "--chrome", metavar="OUT", help="write Chrome trace_event JSON here"
    )
    parser.add_argument(
        "--title", default=None, help="SVG title (default: derived from file)"
    )
    parser.add_argument(
        "--tenant", default=None, metavar="NAMESPACE",
        help="keep only one tenant's events (multi-tenant traces stamp a "
        "'tenant' id; namespace attrs match too)",
    )
    opts = parser.parse_args(list(args))

    from repro.analytics.timeline import render_execution_timeline
    from repro.trace import derive, export

    with open(opts.file, "r", encoding="utf-8") as fh:
        events = export.from_jsonl(fh.read())
    if opts.tenant is not None:
        events = [
            event
            for event in events
            if event.get_id("tenant") == opts.tenant
            or event.get_attr("tenant") == opts.tenant
            or event.get_attr("namespace") == opts.tenant
        ]
        if not events:
            print(f"{opts.file}: no events for tenant {opts.tenant!r}")
            return 1
    if not events:
        print(f"{opts.file}: no events")
        return 1

    by_layer: dict[str, int] = {}
    for event in events:
        by_layer[event.layer] = by_layer.get(event.layer, 0) + 1
    horizon = max(event.end for event in events)
    print(f"{opts.file}: {len(events)} events over {horizon:.2f}s virtual")
    for layer in sorted(by_layer):
        print(f"  {layer:<11} {by_layer[layer]}")

    records = derive.call_records_from_events(events)
    if records:
        stats = derive.job_stats_from_events(events)
        print(
            f"calls: {stats.n_calls}  makespan: {stats.makespan:.2f}s  "
            f"spawn spread: {stats.spawn_spread:.2f}s  "
            f"p95 duration: {stats.p95_duration:.2f}s  "
            f"failed: {stats.failed_calls}  retries: {stats.retries_total}"
        )
    billing = derive.billing_totals_from_events(events)
    if billing["activations"]:
        print(
            f"billing: {billing['activations']} activations, "
            f"{billing['gb_seconds']:.3f} GB-s, ${billing['cost']:.6f}"
        )

    if opts.svg:
        from repro.analytics.timeline import dag_stage_groups, render_staged_timeline

        title = opts.title or f"Trace {opts.file}"
        groups = dag_stage_groups(events)
        if groups:
            # DAG workloads render grouped by stage (one colored band per
            # stage) so the barrier-free overlap between stages is visible
            with open(opts.svg, "w", encoding="utf-8") as fh:
                fh.write(render_staged_timeline(groups, title=title))
            n_nodes = sum(len(ivs) for _stage, ivs in groups)
            print(f"wrote {opts.svg} ({n_nodes} DAG nodes, {len(groups)} stages)")
        else:
            intervals = derive.execution_intervals(events)
            with open(opts.svg, "w", encoding="utf-8") as fh:
                fh.write(render_execution_timeline(intervals, title=title))
            print(f"wrote {opts.svg} ({len(intervals)} executions)")
    if opts.chrome:
        export.write_chrome_trace(events, opts.chrome)
        print(f"wrote {opts.chrome} (open in Perfetto / chrome://tracing)")
    return 0


def _cmd_dag(args: Sequence[str]) -> int:
    """``python -m repro dag render``: emit Graphviz/SVG of a built graph."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro dag",
        description="Inspect DAG workflows: 'render' builds one of the "
        "example graphs and emits Graphviz DOT (stdout or --dot) and/or "
        "a standalone SVG (--svg).",
    )
    parser.add_argument("action", choices=["render"])
    parser.add_argument(
        "--example",
        default="mergesort",
        choices=["mergesort", "wordcount", "sequence"],
        help="which example graph to build (default: mergesort)",
    )
    parser.add_argument(
        "--depth", type=int, default=2, help="mergesort tree depth"
    )
    parser.add_argument(
        "--reducers", type=int, default=4, help="wordcount reducer count"
    )
    parser.add_argument(
        "--stages", type=int, default=3, help="sequence chain length"
    )
    parser.add_argument(
        "--no-fuse", action="store_true", help="disable linear-chain fusion"
    )
    parser.add_argument("--dot", metavar="OUT", help="write DOT here")
    parser.add_argument("--svg", metavar="OUT", help="write SVG here")
    parser.add_argument(
        "--swarm-trace",
        metavar="JSONL",
        help="a swarm-scheduled run's trace JSONL; colors DOT edges by "
        "the invoking site (who invoked whom)",
    )
    opts = parser.parse_args(list(args))

    from repro.dag import DagBuilder, render

    builder = DagBuilder()
    if opts.example == "mergesort":
        def _leaf(chunk):
            return sorted(chunk)

        def _merge(results):
            merged = []
            for part in results:
                merged.extend(part)
            return sorted(merged)

        def build(width, d):
            if d <= 0 or width <= 1:
                return builder.call(_leaf, None, name=f"sort/{width}", stage="sort")
            left = build(width // 2, d - 1)
            right = build(width - width // 2, d - 1)
            return builder.reduce(
                _merge, [left, right], name=f"merge/{width}", stage=f"merge{d}"
            )

        build(2 ** max(opts.depth, 0), max(opts.depth, 0))
    elif opts.example == "wordcount":
        def _count(text):
            return text

        def _reduce(futures):
            return futures

        maps = builder.map(_count, list(range(4)), name="map", stage="map")
        for index in range(max(opts.reducers, 1)):
            builder.reduce(
                _reduce, maps, pass_futures=True,
                name=f"reduce[{index}]", stage="reduce",
            )
    else:  # sequence
        def _stage(value):
            return value

        node = builder.call(_stage, 0, name="f0", stage="seq")
        for index in range(1, max(opts.stages, 1)):
            node = node.then(_stage, name=f"f{index}", stage="seq")

    dag = builder.build(fuse=not opts.no_fuse)
    print(render.describe(dag))
    invoked_by = None
    if opts.swarm_trace:
        from repro.trace import export

        with open(opts.swarm_trace, encoding="utf-8") as fh:
            invoked_by = render.swarm_invoked_by(export.from_jsonl(fh.read()))
        print(f"swarm trace: {len(invoked_by)} worker-fired nodes")
    dot = render.to_dot(dag, invoked_by=invoked_by)
    if opts.dot:
        with open(opts.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
        print(f"wrote {opts.dot}")
    elif not opts.svg:
        print(dot, end="")
    if opts.svg:
        with open(opts.svg, "w", encoding="utf-8") as fh:
            fh.write(render.to_svg(dag))
        print(f"wrote {opts.svg}")
    return 0


def _cmd_events(args: Sequence[str]) -> int:
    """``python -m repro events resume``: crash the driver, adopt the job.

    The whole cloud lives inside one virtual-time kernel, so the demo
    plays both drivers: client-crash chaos kills generation 0 at the
    seeded virtual time, then a fresh executor replays the journal,
    reconciles against committed statuses in COS and finishes the run.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro events",
        description="Durable event-sourced orchestration: 'resume' runs a "
        "workload under client-crash chaos, then reattaches to the "
        "orphaned job from its journal and completes it with zero lost "
        "work.",
    )
    parser.add_argument("action", choices=["resume"])
    parser.add_argument(
        "--crash-at", type=float, default=4.0,
        help="virtual time (s) at which the driver dies (default: 4.0)",
    )
    parser.add_argument("--seed", type=int, default=7, help="chaos seed")
    parser.add_argument(
        "--workload", default="map_reduce",
        choices=["map_reduce", "mergesort"],
        help="what the doomed driver runs (default: map_reduce)",
    )
    parser.add_argument(
        "--journal", metavar="OUT", default=None,
        help="also write the replayed journal as JSONL here",
    )
    opts = parser.parse_args(list(args))

    import repro as pw
    from repro.chaos import ChaosProfile

    chaos = ChaosProfile(
        "client-crash", seed=opts.seed, client_crash_at_s=opts.crash_at
    )
    env = pw.CloudEnvironment.create(events=True, chaos=chaos)

    def _submit(executor):
        if opts.workload == "map_reduce":
            executor.map_reduce(
                lambda x: x * x, [1, 2, 3, 4, 5, 6], lambda xs: sum(xs)
            )
        else:
            def _chunk(values):
                pw.sleep(5)
                return sorted(values)

            def _merge(parts):
                pw.sleep(2)
                return sorted(x for part in parts for x in part)

            executor.map_reduce(_chunk, [[9, 4], [7, 1], [8, 2]], _merge)

    def main() -> int:
        executor = pw.ibm_cf_executor()
        job_id = executor.executor_id
        try:
            _submit(executor)
            result = executor.get_result()
            print(
                f"driver survived to t={pw.now():.1f}s (crash window "
                f"missed); result: {result}"
            )
            return 0
        except pw.ClientCrashError:
            print(f"driver killed at t={pw.now():.1f}s (job {job_id})")
            adopter = env.executor()
            job = adopter.reattach(job_id)
            stats = job.stats
            print(
                f"replayed {stats['events_replayed']} events -> "
                f"{stats['calls']} calls "
                f"({stats['already_committed']} already committed, "
                f"{stats['reinvoked']} re-invoked, "
                f"{stats['refired']} re-fired, {stats['buried']} buried)"
            )
            result = job.get_result()
            print(f"resumed result at t={pw.now():.1f}s: {result}")
            if opts.journal:
                from repro.events import to_jsonl

                with open(opts.journal, "w", encoding="utf-8") as fh:
                    fh.write(to_jsonl(adopter.journal.replay()))
                print(f"wrote {opts.journal}")
            return 0

    return env.run(main)


def _cmd_exchange(args: Sequence[str]) -> int:
    """``python -m repro exchange``: inspect the exchange backends.

    Runs a small shuffle wordcount through the chosen backend and prints
    what the new observability surface exposes: backend identity, node
    capacities, hit/miss counters, COS request tallies with their dollar
    cost, and (for the VM backend) provisioned VM-seconds.
    """
    import argparse

    from repro.config import ExchangeConfig

    parser = argparse.ArgumentParser(
        prog="python -m repro exchange",
        description="Inspect intermediate-data exchange backends: run a "
        "small shuffle through one and report node capacities, hit/miss "
        "counters and the COS-requests vs VM-seconds bill.",
    )
    parser.add_argument(
        "--backend", default="vm", choices=ExchangeConfig.BACKENDS,
        help="exchange backend to exercise (default: vm)",
    )
    parser.add_argument("--seed", type=int, default=42, help="run seed")
    parser.add_argument(
        "--docs", type=int, default=12, help="documents to shuffle"
    )
    parser.add_argument(
        "--reducers", type=int, default=3, help="reducer fan-in"
    )
    opts = parser.parse_args(list(args))

    import repro as pw
    from repro.core import cost
    from repro.core.shuffle import merge_shuffle_results

    env = pw.CloudEnvironment.create(seed=opts.seed, exchange=opts.backend)
    docs = [
        f"serverless data analytics shuffle exchange doc{i}"
        for i in range(max(opts.docs, 1))
    ]

    def main_() -> dict:
        executor = pw.ibm_cf_executor()
        reducers = executor.map_reduce_shuffle(
            lambda text: [(w, 1) for w in text.split()],
            docs,
            lambda key, values: sum(values),
            n_reducers=max(opts.reducers, 1),
        )
        merge_shuffle_results(executor.get_result(reducers))
        return {"t": pw.now()}

    run = env.run(main_)
    info = env.exchange.describe()
    print(f"backend: {info['backend']}   (wall {run['t']:.2f}s virtual)")
    for node in info["nodes"]:
        line = (
            f"  node {node['node']}: "
            f"{node['used_bytes']}/{node['capacity_bytes']} bytes"
        )
        if node.get("crash_at_s") is not None:
            line += f"  crash@{node['crash_at_s']:.1f}s"
        print(line)
    stats = env.exchange.stats()
    if stats:
        hits = stats.get("hits", 0)
        misses = stats.get("misses", 0)
        print(f"  tier reads: {hits} hits, {misses} misses")
    counts = env.storage.request_counts()
    cos_usd = cost.cos_request_cost(counts)
    ops = ", ".join(f"{op}={n}" for op, n in sorted(counts.items()))
    print(f"  cos requests: {ops}")
    billing = env.exchange.billing(env.now())
    print(
        f"  bill: cos ${cos_usd:.6f}"
        + (
            f" + {billing['vm_nodes']} VM nodes x "
            f"{billing['vm_seconds'] / max(billing['vm_nodes'], 1):.1f}s "
            f"= ${billing['vm_cost_usd']:.6f}"
            if billing.get("vm_seconds")
            else ""
        )
    )
    return 0


def _cmd_bench(args: Sequence[str]) -> int:
    from repro.bench.__main__ import main as bench_main

    return bench_main(list(args))


#: the single subcommand registry: name -> (handler, one-line help).
#: ``main()`` dispatches from it and the usage listing is generated from
#: it, so the two cannot drift apart.
COMMANDS: dict[str, tuple[Callable[[Sequence[str]], int], str]] = {
    "version": (_cmd_version, "package + substrate versions"),
    "quickstart": (_cmd_quickstart, "run the Fig. 1 flow end to end"),
    "demo": (_cmd_demo, "quickstart + wsk-style inspection"),
    "bench": (_cmd_bench, "paper experiments (fig2, fig3, ...); see repro.bench"),
    "trace": (_cmd_trace, "inspect / render an exported trace (SVG, Chrome)"),
    "dag": (_cmd_dag, "Graphviz/SVG of a built DAG (dag render)"),
    "events": (_cmd_events, "durable orchestration demo (events resume)"),
    "exchange": (_cmd_exchange, "inspect exchange backends: nodes, hits, bill"),
}


def usage() -> str:
    """The subcommand listing, generated from :data:`COMMANDS`."""
    lines = [
        "python -m repro — serverless-analytics reproduction CLI.",
        "",
        "Subcommands:",
    ]
    for name, (_handler, help_line) in COMMANDS.items():
        lines.append(f"    {name:<12} {help_line}")
    lines.append("")
    lines.append("Run 'python -m repro <subcommand> --help' for options.")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(usage())
        return 2
    command, *rest = argv
    entry = COMMANDS.get(command)
    if entry is None:
        print(f"unknown command {command!r}\n{usage()}")
        return 2
    handler, _help = entry
    return handler(rest)


if __name__ == "__main__":
    sys.exit(main())
