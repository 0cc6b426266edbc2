"""Unit tests of the load generator on synthetic series.

Run with ``python3 -m pytest ceresbench/tests``.
"""

from __future__ import annotations

import ast
import random
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402


def test_imports_nothing_from_the_program():
    tree = ast.parse((HERE / "loadgen.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "repro" not in imported
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}


def test_percentile_needs_ten_samples_beyond_the_rank():
    values = list(range(1, 1001))
    assert loadgen.percentile(values, 0.99) == 990
    assert loadgen.percentile(values, 0.5) == 500
    with pytest.raises(loadgen.InsufficientSamples):
        loadgen.percentile(values[:999], 0.99)
    assert loadgen.percentile(list(range(100)), 0.9) == 89
    with pytest.raises(loadgen.InsufficientSamples):
        loadgen.percentile(list(range(99)), 0.9)
    with pytest.raises(loadgen.InsufficientSamples):
        loadgen.percentile(list(range(19)), 0.5)


def test_percentile_ignores_input_order():
    values = list(range(200))
    shuffled = values[:]
    random.Random(3).shuffle(shuffled)
    assert loadgen.percentile(shuffled, 0.9) == loadgen.percentile(values, 0.9)


def test_highest_supported_falls_back_to_a_lower_rank():
    assert loadgen.highest_supported(list(range(1000)), (0.99, 0.9)) == (0.99, 989)
    assert loadgen.highest_supported(list(range(150)), (0.99, 0.9)) == (0.9, 134)
    with pytest.raises(loadgen.InsufficientSamples):
        loadgen.highest_supported(list(range(50)), (0.99, 0.9))


def test_poisson_schedule_is_seeded_and_has_the_rate():
    first = loadgen.poisson_schedule(50.0, 5000, seed="s")
    assert first == loadgen.poisson_schedule(50.0, 5000, seed="s")
    assert first != loadgen.poisson_schedule(50.0, 5000, seed="t")
    assert all(later > earlier for earlier, later in zip(first, first[1:]))
    assert 5000 / first[-1] == pytest.approx(50.0, rel=0.05)


def test_backlog_growth():
    flat = [(t / 10, (t * 7) % 3) for t in range(100)]
    assert not loadgen.backlog_growing(flat, 100, 2)
    rising = [(t / 10, t // 4) for t in range(100)]
    assert loadgen.backlog_growing(rising, 100, 2)
    # A rise within the allowance (5% of 1000 requests) is noise.
    slight = [(t / 10, t // 40) for t in range(100)]
    assert not loadgen.backlog_growing(slight, 1000, 2)
    assert not loadgen.backlog_growing([(0.0, 5)], 10, 2)


class FakeClock:
    """A clock that only moves when someone sleeps or is served."""

    def __init__(self):
        self.now = 0.0
        self.lock = threading.Lock()

    def __call__(self):
        return self.now

    def advance(self, seconds):
        with self.lock:
            self.now += seconds


def test_open_loop_times_from_the_due_time():
    clock = FakeClock()
    sleeps = []

    def sleep(seconds):
        sleeps.append(seconds)
        clock.advance(seconds)

    def send(conn, index):
        clock.advance(0.5)  # every request takes half a second
        return True, 200

    # Three requests due at once on one connection: the second and third
    # wait for the first, and their latency counts that wait.
    loop = loadgen.run_open_loop(
        [1.0, 1.0, 1.0], send, 1, clock=clock, sleep=sleep
    )
    latencies = [done - due for done, due in zip(loop.done, loop.due)]
    assert latencies == pytest.approx([0.5, 1.0, 1.5])
    assert sleeps == pytest.approx([1.0 + loadgen.START_DELAY_S])
    # The generator was never late: the waits were the connection's.
    assert loop.lag == pytest.approx([0.0, 0.0, 0.0])
    assert [b for _, b in loop.backlog] == [2, 1, 0]
    assert loop.attempted == 3 and loop.failed == 0


def test_open_loop_records_generator_lag_and_failures():
    clock = FakeClock()

    def late_sleep(seconds):
        clock.advance(seconds + 0.01)  # the generator wakes 10 ms late

    def send(conn, index):
        clock.advance(0.001)
        return index != 1, 200 if index != 1 else 503

    loop = loadgen.run_open_loop(
        [0.1, 0.2, 0.3], send, 1, clock=clock, sleep=late_sleep
    )
    assert loop.lag == pytest.approx([0.01, 0.01, 0.01])
    assert loop.failed == 1 and loop.status[1] == 503


def test_open_loop_on_real_threads_sends_every_request_once():
    seen = []
    lock = threading.Lock()

    def send(conn, index):
        with lock:
            seen.append(index)
        time.sleep(0.001)
        return True, 200

    offsets = loadgen.poisson_schedule(400.0, 200, seed=1)
    loop = loadgen.run_open_loop(offsets, send, 2)
    assert sorted(seen) == list(range(200))
    assert loop.attempted == 200
    assert all(sent >= due - 1e-6 for sent, due in zip(loop.sent, loop.due))


def test_closed_loop_runs_until_time_and_count_are_reached():
    sent = []

    def send(conn, index):
        sent.append((conn, index))
        time.sleep(0.001)
        return True, 200

    loop = loadgen.run_closed_loop([[0, 2], [1]], send, 0.0, min_requests=9)
    assert loop.attempted >= 9
    assert {index for conn, index in sent if conn == 0} == {0, 2}
    assert {index for conn, index in sent if conn == 1} == {1}
    assert loop.due == loop.sent
