"""``repro.exchange`` — pluggable backends for intermediate-data exchange.

Selected by :class:`~repro.config.ExchangeConfig` (see
ARCHITECTURE.md "Exchange backends"):

* ``"cos"`` — :class:`CosExchange`, the paper's direct COS path (default);
* ``"cached-cos"`` — :class:`CachedCosExchange`, the write-through
  memory tier over the invoker nodes' caches;
* ``"vm"`` — :class:`VmExchange`, a provisioned ephemeral-store cluster.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.exchange.base import BoundExchange, ExchangeBackend
from repro.exchange.cached import CachedCosExchange
from repro.exchange.cos import CosExchange
from repro.exchange.vm import VmExchange

__all__ = [
    "ExchangeBackend",
    "BoundExchange",
    "CosExchange",
    "CachedCosExchange",
    "VmExchange",
    "build_exchange",
]


def build_exchange(
    exchange_config: Any,
    n_nodes: int,
    kernel: Any = None,
    tracer: Any = None,
    chaos: Any = None,
) -> ExchangeBackend:
    """Build the environment's backend from its config."""
    backend = exchange_config.backend
    if backend == "cos":
        return CosExchange()
    if backend == "cached-cos":
        return CachedCosExchange(
            exchange_config, n_nodes, kernel=kernel, tracer=tracer
        )
    if backend == "vm":
        return VmExchange(
            exchange_config, kernel=kernel, tracer=tracer, chaos=chaos
        )
    raise ValueError(f"unknown exchange backend {backend!r}")


def normalize_exchange(exchange: Any) -> Optional[Any]:
    """Normalize an ``exchange=`` argument into an ``ExchangeConfig``.

    Accepts ``None`` (defer to ``config.exchange``), a backend name
    (``"vm"``), or an :class:`~repro.config.ExchangeConfig`.
    """
    if exchange is None:
        return None
    from repro.config import ExchangeConfig

    if isinstance(exchange, str):
        return ExchangeConfig(backend=exchange)
    if isinstance(exchange, ExchangeConfig):
        return exchange
    raise TypeError(
        "exchange must be None, a backend name or an ExchangeConfig"
    )
