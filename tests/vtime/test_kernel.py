"""Unit tests for the virtual-time kernel."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.vtime import (
    DeadlockError,
    Kernel,
    NotInKernelError,
    VEvent,
    VQueue,
    current_kernel,
    current_task,
    gather,
    now,
    sleep,
)


class TestBasics:
    def test_time_starts_at_zero(self, kernel):
        assert kernel.now() == 0.0

    def test_custom_start_time(self):
        assert Kernel(start_time=100.0).now() == 100.0

    def test_run_returns_result(self, kernel):
        assert kernel.run(lambda: 42) == 42

    def test_run_propagates_exception(self, kernel):
        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            kernel.run(boom)

    def test_sleep_advances_virtual_time(self, kernel):
        def main():
            sleep(12.5)
            return kernel.now()

        assert kernel.run(main) == 12.5

    def test_sleep_zero_is_noop_in_time(self, kernel):
        def main():
            sleep(0)
            return kernel.now()

        assert kernel.run(main) == 0.0

    def test_negative_sleep_clamps_to_zero(self, kernel):
        def main():
            sleep(-5)
            return kernel.now()

        assert kernel.run(main) == 0.0

    def test_sequential_sleeps_accumulate(self, kernel):
        def main():
            for _ in range(10):
                sleep(1)
            return kernel.now()

        assert kernel.run(main) == 10.0

    def test_wall_clock_far_smaller_than_virtual(self, kernel):
        import time

        t0 = time.monotonic()

        def main():
            sleep(3600.0)

        kernel.run(main)
        assert time.monotonic() - t0 < 5.0
        assert kernel.now() == 3600.0


class TestSpawn:
    def test_spawn_runs_concurrently_in_virtual_time(self, kernel):
        def worker():
            sleep(10)
            return kernel.now()

        def main():
            tasks = [kernel.spawn(worker) for _ in range(5)]
            return gather(tasks)

        assert kernel.run(main) == [10.0] * 5
        assert kernel.now() == 10.0

    def test_spawn_results_in_order(self, kernel):
        def worker(i):
            sleep(10 - i)
            return i

        def main():
            return gather([kernel.spawn(worker, i) for i in range(5)])

        assert kernel.run(main) == [0, 1, 2, 3, 4]

    def test_spawn_exception_surfaces_via_gather(self, kernel):
        def bad():
            sleep(1)
            raise RuntimeError("task failed")

        def main():
            gather([kernel.spawn(bad)])

        with pytest.raises(RuntimeError, match="task failed"):
            kernel.run(main)

    def test_join_returns_true_when_finished(self, kernel):
        def worker():
            sleep(5)
            return "done"

        def main():
            task = kernel.spawn(worker)
            assert task.join() is True
            return task.result()

        assert kernel.run(main) == "done"

    def test_join_timeout_expires(self, kernel):
        def worker():
            sleep(100)

        def main():
            task = kernel.spawn(worker)
            finished = task.join(timeout=10)
            return finished, kernel.now()

        finished, t = kernel.run(main)
        assert finished is False
        assert t == 10.0

    def test_task_result_before_finish_raises(self, kernel):
        def worker():
            sleep(50)

        def main():
            task = kernel.spawn(worker)
            with pytest.raises(NotInKernelError):
                task.result()
            task.join()

        kernel.run(main)

    def test_spawned_total_counts(self, kernel):
        def main():
            gather([kernel.spawn(lambda: None) for _ in range(7)])

        kernel.run(main)
        assert kernel.spawned_total == 8  # 7 workers + main

    def test_nested_spawn(self, kernel):
        def leaf():
            sleep(3)
            return 1

        def mid():
            return sum(gather([kernel.spawn(leaf) for _ in range(2)]))

        def main():
            return sum(gather([kernel.spawn(mid) for _ in range(2)]))

        assert kernel.run(main) == 4
        assert kernel.now() == 3.0

    def test_many_tasks_scale(self, kernel):
        def worker():
            sleep(60)

        def main():
            gather([kernel.spawn(worker) for _ in range(500)])
            return kernel.now()

        assert kernel.run(main) == 60.0


class TestAmbient:
    def test_current_kernel_inside(self, kernel):
        def main():
            return current_kernel() is kernel

        assert kernel.run(main) is True

    def test_current_kernel_outside_is_none(self):
        assert current_kernel() is None
        assert current_task() is None

    def test_now_outside_kernel_is_wall_clock(self):
        import time

        assert abs(now() - time.monotonic()) < 1.0

    def test_sleep_primitive_requires_kernel(self, kernel):
        with pytest.raises(NotInKernelError):
            kernel.sleep(1)

    def test_task_names(self, kernel):
        def main():
            task = kernel.spawn(lambda: None, name="my-task")
            task.join()
            return task.name

        assert kernel.run(main) == "my-task"


class TestDeadlock:
    def test_wait_without_timer_deadlocks(self, kernel):
        def main():
            VEvent(kernel).wait()

        with pytest.raises(DeadlockError):
            kernel.run(main)

    def test_deadlock_message_names_tasks(self, kernel):
        def main():
            VEvent(kernel).wait()

        with pytest.raises(DeadlockError, match="main"):
            kernel.run(main)

    def test_two_tasks_waiting_on_each_other(self, kernel):
        ev1, ev2 = None, None

        def main():
            nonlocal ev1, ev2
            ev1, ev2 = VEvent(kernel), VEvent(kernel)

            def a():
                ev1.wait()
                ev2.set()

            task = kernel.spawn(a)
            ev2.wait()  # deadlock: nobody sets ev1
            task.join()

        with pytest.raises(DeadlockError):
            kernel.run(main)


class TestDeterminism:
    def test_same_seeded_run_is_reproducible(self):
        def experiment() -> float:
            kernel = Kernel()

            def worker(i):
                sleep(i * 0.7)
                sleep((i * 31 % 7) * 0.3)
                return kernel.now()

            def main():
                return tuple(gather([kernel.spawn(worker, i) for i in range(20)]))

            return kernel.run(main)

        assert experiment() == experiment()

    def test_timer_ordering_is_fifo_for_equal_times(self, kernel):
        order = []

        def worker(i):
            sleep(5)
            order.append(i)

        def main():
            gather([kernel.spawn(worker, i) for i in range(10)])

        kernel.run(main)
        assert order == list(range(10))


class TestWakeStress:
    def test_every_block_gets_exactly_one_wake(self):
        """Thread tasks block and are woken thousands of times, by timers and
        by each other, with thread switches forced every few bytecodes.  A
        lost wake hangs the run; a doubled one raises from ``Lock.release``."""
        kernel = Kernel(pool_size=4)
        queues = [VQueue(kernel) for _ in range(12)]

        def relay(i):
            for round_ in range(100):
                sleep((i * 7 + round_) % 5 * 0.1)
                queues[(i + 1) % len(queues)].put(round_)
                queues[i].get()
            return i

        result = {}

        def drive():
            result["value"] = kernel.run(
                lambda: gather([kernel.spawn(relay, i) for i in range(len(queues))])
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            driver = threading.Thread(target=drive)
            driver.start()
            driver.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not driver.is_alive(), "a thread task was never woken"
        assert result["value"] == list(range(len(queues)))
