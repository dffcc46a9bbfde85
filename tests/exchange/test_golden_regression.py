"""The tentpole regression gate: exchange traces are byte-identical.

``golden_trace_default_exchange.jsonl`` was exported by the pre-refactor
code (COS-only intermediates, no backend seam) from the frozen workload
in :mod:`tests.exchange.golden_workload`.  With ``ExchangeConfig`` unset
the refactored stack must reproduce it byte for byte — same events, same
timestamps, same ordering, same JSON serialization.

``golden_trace_cached_exchange.jsonl`` pins the ``"cached-cos"`` backend
the same way: it was exported before the memory tier moved from its own
``repro.cache`` package into :mod:`repro.exchange`, and the merged
backend must still reproduce it.
"""

from __future__ import annotations

import pathlib

import pytest

from tests.exchange.golden_workload import GOLDEN_PATHS, run_traced

BACKENDS = ["cos", "cached-cos"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestGolden:
    def test_trace_matches_golden(self, backend):
        got = run_traced(backend)
        want = pathlib.Path(GOLDEN_PATHS[backend]).read_text(encoding="utf-8")
        assert want, "golden fixture missing or empty"
        # compare prefixes first for a readable diff on regression
        if got != want:
            for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
                assert a == b, f"first divergence at trace line {i + 1}"
        assert got == want

    def test_run_is_self_deterministic(self, backend):
        assert run_traced(backend) == run_traced(backend)
