"""Ambient context per kernel task: isolation, inheritance, and lifetime.

Every task runs in its own ``contextvars.Context``, copied from its spawner.
These tests pin what that guarantees for the two kinds of ambient state the
program keeps — trace ids (``Tracer.bind``) and the cloud binding
(``repro.core.context``) — and for ``current_task()`` itself.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref

from repro.core import context as ambient
from repro.trace.tracer import _IDS, Tracer
from repro.vtime import current_task, sleep, vjoin, vsleep


def _state(tracer: Tracer, tag: str) -> tuple[dict, object]:
    """The caller's ambient trace ids and cloud binding, as seen right now."""
    tracer.point(tag, "test", t=0.0)
    (event,) = [e for e in tracer.raw_events() if e.name == tag]
    binding = ambient.current_context()
    return event.id_dict(), binding.environment if binding else None


class TestModelTaskIsolation:
    def test_binding_held_across_a_yield_stays_with_its_task(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        seen = {}

        def holder():
            with tracer.bind(job="a"):
                ambient.push_context("env-a", in_cloud=True)
                try:
                    yield vsleep(2)
                    seen["holder"] = _state(tracer, "holder")
                finally:
                    ambient.pop_context()
            seen["holder-after"] = _state(tracer, "holder-after")

        def other():
            # steps while ``holder`` is suspended inside its bindings
            yield vsleep(1)
            seen["other"] = _state(tracer, "other")

        def main():
            tasks = [kernel.spawn_model(holder), kernel.spawn_model(other)]
            for task in tasks:
                task.join()

        kernel.run(main)
        assert seen["holder"] == ({"job": "a"}, "env-a")
        assert seen["other"] == ({}, None)
        assert seen["holder-after"] == ({}, None)

    def test_current_task_is_the_model_task_across_yields(self, kernel):
        def body():
            first = current_task()
            yield vsleep(1)
            return first, current_task()

        def main():
            task = kernel.spawn_model(body)
            task.join()
            return task, task.result()

        task, (first, second) = kernel.run(main)
        assert first is task
        assert second is task


class TestPoolThreadReuse:
    def test_reused_thread_carries_none_of_the_first_tasks_bindings(self, kernel):
        tracer = Tracer(kernel, enabled=True)

        def leaky():
            # bindings set and never undone
            _IDS.set({"job": "first"})
            ambient.push_context("env-first", in_cloud=True)
            return threading.current_thread(), _state(tracer, "first")

        def clean():
            return threading.current_thread(), _state(tracer, "second")

        def main():
            first = kernel.spawn(leaky)
            first.join()
            # the finished worker parks itself after waking the joiner
            deadline = time.monotonic() + 5.0
            while not kernel._pool_idle and time.monotonic() < deadline:
                time.sleep(0.001)
            second = kernel.spawn(clean)
            second.join()
            return first.result(), second.result()

        (first_thread, first_state), (second_thread, second_state) = kernel.run(main)
        assert first_state == ({"job": "first"}, "env-first")
        assert second_thread is first_thread
        assert second_state == ({}, None)


def _holding_child(tracer: Tracer, seen: dict, key: str):
    """A thread-task body and a model-task body that record what they
    inherited, then hold bindings of their own for 5 virtual seconds."""

    def thread_child():
        seen[key + "-thread"] = _state(tracer, key + "-thread")
        with tracer.bind(call="t"):
            ambient.push_context("env-thread-child", in_cloud=True)
            try:
                sleep(5)
            finally:
                ambient.pop_context()

    def model_child():
        seen[key + "-model"] = _state(tracer, key + "-model")
        with tracer.bind(call="m"):
            ambient.push_context("env-model-child", in_cloud=True)
            try:
                yield vsleep(5)
            finally:
                ambient.pop_context()

    return thread_child, model_child


class TestSpawnInheritance:
    def test_children_of_a_thread_task_inherit_and_do_not_leak_back(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        seen = {}
        thread_child, model_child = _holding_child(tracer, seen, "child")

        def main():
            with tracer.bind(job="parent"):
                ambient.push_context("env-parent", in_cloud=False)
                try:
                    children = [kernel.spawn(thread_child), kernel.spawn_model(model_child)]
                    sleep(1)  # both children now hold their own bindings
                    seen["parent"] = _state(tracer, "parent")
                    for child in children:
                        child.join()
                finally:
                    ambient.pop_context()

        kernel.run(main)
        assert seen["child-thread"] == ({"job": "parent"}, "env-parent")
        assert seen["child-model"] == ({"job": "parent"}, "env-parent")
        assert seen["parent"] == ({"job": "parent"}, "env-parent")

    def test_children_of_a_model_task_inherit_and_do_not_leak_back(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        seen = {}
        thread_child, model_child = _holding_child(tracer, seen, "child")

        def parent():
            with tracer.bind(job="parent"):
                ambient.push_context("env-parent", in_cloud=False)
                try:
                    children = [kernel.spawn(thread_child), kernel.spawn_model(model_child)]
                    yield vsleep(1)  # both children now hold their own bindings
                    seen["parent"] = _state(tracer, "parent")
                    for child in children:
                        yield vjoin(child)
                finally:
                    ambient.pop_context()

        kernel.run(lambda: kernel.spawn_model(parent).join())
        assert seen["child-thread"] == ({"job": "parent"}, "env-parent")
        assert seen["child-model"] == ({"job": "parent"}, "env-parent")
        assert seen["parent"] == ({"job": "parent"}, "env-parent")


class TestCurrentTaskOutsideTasks:
    def test_none_on_the_outside_thread_after_run(self, kernel):
        inside = kernel.run(current_task)
        assert inside is not None
        assert current_task() is None

    def test_none_inside_a_raw_thread_started_from_a_task(self, kernel):
        box = {}

        def main():
            raw = threading.Thread(target=lambda: box.setdefault("task", current_task()))
            raw.start()
            raw.join(timeout=5.0)
            assert not raw.is_alive()
            return current_task()

        assert kernel.run(main) is not None
        assert box == {"task": None}


class TestModelTaskLifetime:
    def test_finished_model_task_is_freed_without_the_cyclic_collector(self, kernel):
        def body():
            yield vsleep(1)
            return 7

        def main():
            task = kernel.spawn_model(body)
            task.join()
            assert task.result() == 7
            return weakref.ref(task)

        gc.collect()
        gc.disable()
        try:
            ref = kernel.run(main)
            assert ref() is None
        finally:
            gc.enable()
