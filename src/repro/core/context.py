"""Ambient environment context.

``pw.ibm_cf_executor()`` works both on the client *and inside a running
cloud function* (that is how §4.4's dynamic composition works: any function
may spin up an executor and fan out).  The binding between the running code
and its cloud environment is kept here, in a context variable:
``CloudEnvironment.run`` pushes the client's binding, and the runner worker
pushes one with ``in_cloud=True`` around each function execution so nested
executors get in-cloud network links automatically.  Every kernel task
starts in a copy of its spawner's context, so a task spawned under a
binding inherits it, and bindings the task pushes stay its own.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.errors import NoActiveEnvironmentError


@dataclass(frozen=True)
class AmbientContext:
    """What the running code knows about 'its' cloud.

    ``call_info`` is populated only inside a running function executor: the
    invocation params (executor/callset/call ids, storage location), which
    lets framework code running *as* the function — e.g. the shuffle map
    shim — address per-call COS objects.
    """

    environment: Any  # CloudEnvironment (untyped to avoid an import cycle)
    in_cloud: bool
    call_info: Optional[dict[str, Any]] = None
    #: the platform's ExecutionContext when inside a running function
    execution_context: Any = None


# innermost binding last; a tuple, so a task's copy of its spawner's
# context never shares a mutable stack with it
_STACK: contextvars.ContextVar[tuple[AmbientContext, ...]] = contextvars.ContextVar(
    "repro_ambient_stack", default=()
)


def push_context(
    environment: Any,
    in_cloud: bool,
    call_info: Optional[dict[str, Any]] = None,
    execution_context: Any = None,
) -> None:
    ctx = AmbientContext(environment, in_cloud, call_info, execution_context)
    _STACK.set(_STACK.get() + (ctx,))


def pop_context() -> None:
    stack = _STACK.get()
    if not stack:
        raise RuntimeError("pop_context() with no pushed context")
    _STACK.set(stack[:-1])


def current_context() -> Optional[AmbientContext]:
    stack = _STACK.get()
    return stack[-1] if stack else None


def require_context() -> AmbientContext:
    ctx = current_context()
    if ctx is None:
        raise NoActiveEnvironmentError(
            "no active cloud environment on this thread; run client code "
            "through CloudEnvironment.run() or pass environment= explicitly"
        )
    return ctx
