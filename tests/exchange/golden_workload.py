"""The frozen workload behind the golden exchange traces.

The exchange-backend refactor (ROADMAP item 4) rewired every intermediate
read/write in ``InternalStorage`` through an :class:`~repro.exchange.base.
ExchangeBackend`.  Its acceptance bar: with ``ExchangeConfig`` unset, a
same-seed run must produce a **byte-identical** trace export to the
pre-refactor code.  This module pins that bar:

* ``golden_trace_default_exchange.jsonl`` was generated *before* the
  refactor landed, from the then-current COS-only intermediate path, by
  ``run_traced()`` below (see ``write_golden``).
* ``golden_trace_cached_exchange.jsonl`` is the same workload on the
  ``"cached-cos"`` backend, exported by the code that still kept the
  memory tier in its own ``repro.cache`` package with a separate
  ``CacheConfig``; it pins the fold of that tier into
  :class:`~repro.exchange.cached.CachedCosExchange`.
* ``test_golden_regression.py`` re-runs the identical workload on every
  test run and asserts each export still matches the committed bytes.

Both fixtures depend on the checkout path: by-value code objects are
marshalled with their absolute ``co_filename``, and payload bytes feed the
bandwidth model, so trace ``bytes`` and durations differ when the tests
run from a checkout at another path (ROADMAP item 1).

The workload is a traced ``map_reduce_shuffle`` wordcount — it exercises
shuffle-partition writes/reads and result blobs (the two intermediate
kinds the backend owns) plus the DAG-ridden reducers, at a fixed seed.

Everything here must stay importable at the stable module path
``tests.exchange.golden_workload`` so the shipped functions pickle by
reference with deterministic bytes; regenerate (only for an intentional,
documented behaviour change) with::

    PYTHONPATH=src:. python -c \
        "from tests.exchange.golden_workload import write_golden; write_golden()"

(``write_golden("cached-cos")`` for the cached fixture).
"""

from __future__ import annotations

import os

SEED = 123
N_DOCS = 10
N_REDUCERS = 3
#: committed golden trace per exchange backend
GOLDEN_PATHS = {
    "cos": os.path.join(
        os.path.dirname(__file__), "golden_trace_default_exchange.jsonl"
    ),
    "cached-cos": os.path.join(
        os.path.dirname(__file__), "golden_trace_cached_exchange.jsonl"
    ),
}


def word_pairs(text):
    return [(word, 1) for word in text.split()]


def count_values(key, values):
    del key
    return sum(values)


def docs() -> list[str]:
    words = ["cloud", "serverless", "shuffle", "exchange", "cos", "vm"]
    return [
        " ".join(words[(i + j) % len(words)] for j in range(18 + i))
        for i in range(N_DOCS)
    ]


def expected_counts() -> dict[str, int]:
    counts: dict[str, int] = {}
    for doc in docs():
        for word in doc.split():
            counts[word] = counts.get(word, 0) + 1
    return counts


def run_traced(exchange: str = "cos") -> str:
    """One traced same-seed wordcount on the given exchange backend.

    ``"cos"`` is the default environment (``ExchangeConfig()``).

    Returns the exported trace JSONL with the executor id normalized to
    ``EXEC`` (the id embeds a per-process serial; everything else in the
    export is a pure function of the seed).
    """
    import repro as pw
    from repro.core.environment import CloudEnvironment
    from repro.core.shuffle import merge_shuffle_results

    env = CloudEnvironment.create(seed=SEED, trace=True, exchange=exchange)

    def main():
        executor = pw.ibm_cf_executor()
        reducers = executor.map_reduce_shuffle(
            word_pairs, docs(), count_values, n_reducers=N_REDUCERS
        )
        merged = merge_shuffle_results(executor.get_result(reducers))
        return merged, executor.executor_id, executor.trace_jsonl()

    merged, executor_id, jsonl = env.run(main)
    assert merged == expected_counts(), "golden workload result drifted"
    return jsonl.replace(executor_id, "EXEC")


def write_golden(exchange: str = "cos") -> str:
    """(Re)generate a committed golden trace.  Intentional changes only."""
    path = GOLDEN_PATHS[exchange]
    jsonl = run_traced(exchange)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonl)
    print(f"wrote {path} ({len(jsonl.splitlines())} events)")
    return path
