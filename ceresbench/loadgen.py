"""Load generation for the serving workloads: standard library only.

This module imports nothing from ``repro``: it is the client side of the
benchmark and must not share code, caches or bugs with the program it
measures.  It provides

* seeded Poisson arrival schedules (:func:`poisson_schedule`);
* an open loop (:func:`run_open_loop`) that sends each request over a
  small pool of persistent connections when it is due, times it from
  its *due* time (so a stall also charges the wait it imposes on the
  requests queued behind it) and records how late the generator itself
  ran (*lag*);
* a closed loop (:func:`run_closed_loop`) for callers that wait for each
  reply before sending the next request;
* backlog-growth detection (:func:`backlog_growing`);
* percentiles that refuse a rank without ten samples beyond it
  (:func:`percentile`).

The transport is a callable ``send(connection_index, request_index)``
returning ``(ok, status)``; :class:`HttpConnections` supplies the HTTP
one, and tests substitute fakes.
"""

from __future__ import annotations

import bisect
import http.client
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "MIN_BEYOND",
    "HttpConnections",
    "InsufficientSamples",
    "LoopResult",
    "backlog_growing",
    "highest_supported",
    "percentile",
    "poisson_schedule",
    "run_closed_loop",
    "run_open_loop",
]

#: A percentile is reported only when at least this many samples lie
#: beyond its rank; with fewer, the value is one or two outliers.
MIN_BEYOND = 10

#: An open loop's first request is due this long after the loop starts,
#: so that every connection thread is running before anything is due.
START_DELAY_S = 0.05

Send = Callable[[int, int], "tuple[bool, int]"]


class InsufficientSamples(ValueError):
    """The sample is too small for the requested percentile."""


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (``0 < q < 1``).

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_BEYOND` samples lie strictly beyond the rank: a p99 needs
    1000 samples, a p90 needs 100, a median needs 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond its rank; "
            f"{MIN_BEYOND} are required"
        )
    return sorted(values)[rank - 1]


def highest_supported(values, quantiles) -> tuple[float, float]:
    """``(q, value)`` for the highest of ``quantiles`` the sample supports."""
    for q in sorted(quantiles, reverse=True):
        try:
            return q, percentile(values, q)
        except InsufficientSamples:
            continue
    raise InsufficientSamples(
        f"{len(values)} samples support none of {sorted(quantiles)}"
    )


def poisson_schedule(rate: float, n: int, seed) -> list[float]:
    """Due times (seconds from the start) of ``n`` Poisson arrivals at
    ``rate`` per second, drawn from ``random.Random(seed)``."""
    if rate <= 0 or n < 1:
        raise ValueError("rate must be positive and n at least 1")
    rng = random.Random(seed)
    due = []
    clock = 0.0
    for _ in range(n):
        clock += rng.expovariate(rate)
        due.append(clock)
    return due


def backlog_growing(
    samples: list[tuple[float, int]], n_requests: int, connections: int
) -> bool:
    """True when the client-side backlog grew over a rung.

    ``samples`` are ``(time, requests due but not yet sent)`` pairs.  The
    least-squares line through them must rise, over the sampled span, by
    more than ``max(2 * connections, 5% of the rung's requests)``: a
    Poisson rung below capacity queues a few requests now and then, a
    rung above capacity queues more and more.
    """
    if len(samples) < 2:
        return False
    n = len(samples)
    mean_t = sum(t for t, _ in samples) / n
    mean_b = sum(b for _, b in samples) / n
    var_t = sum((t - mean_t) ** 2 for t, _ in samples)
    if var_t == 0:
        return False
    slope = sum((t - mean_t) * (b - mean_b) for t, b in samples) / var_t
    span = samples[-1][0] - samples[0][0]
    return slope * span > max(2 * connections, 0.05 * n_requests)


@dataclass
class LoopResult:
    """Per-request timings of one loop, all on the ``clock`` timeline."""

    #: request index per completed send, in completion order.
    index: list[int] = field(default_factory=list)
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    status: list[int] = field(default_factory=list)
    #: how late the generator sent each request beyond the moment it
    #: could have: past its due time when the connection was idle, past
    #: the connection freeing up when the request was already overdue.
    lag: list[float] = field(default_factory=list)
    #: ``(time, requests due but not yet sent)`` at each send.
    backlog: list[tuple[float, int]] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ok if not ok)

    def _record(self, index, due, sent, done, ok, status, lag) -> None:
        self.index.append(index)
        self.due.append(due)
        self.sent.append(sent)
        self.done.append(done)
        self.ok.append(ok)
        self.status.append(status)
        self.lag.append(lag)


def run_open_loop(
    offsets: list[float],
    send: Send,
    connections: int,
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> LoopResult:
    """Send request ``i`` at ``start + offsets[i]`` over ``connections``
    persistent connections, one thread each.

    A connection takes the next request in due order as soon as it is
    free; if that request is not yet due it sleeps until it is.  Requests
    are timed from their due time, so time spent waiting for a free
    connection counts against latency.
    """
    result = LoopResult()
    lock = threading.Lock()
    cursor = [0]
    start = clock() + START_DELAY_S
    due_times = [start + offset for offset in offsets]
    result.started = start

    def connection(conn: int) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(due_times):
                return
            due = due_times[index]
            free_at = clock()
            if due > free_at:
                sleep(due - free_at)
            sent = clock()
            waiting = bisect.bisect_right(due_times, sent) - index - 1
            ok, status = send(conn, index)
            done = clock()
            with lock:
                result.backlog.append((sent, max(0, waiting)))
                result._record(
                    index, due, sent, done, ok, status,
                    sent - max(due, free_at),
                )

    _run_threads(connection, connections)
    result.finished = clock()
    result.backlog.sort()
    return result


def run_closed_loop(
    plans: list[list[int]],
    send: Send,
    seconds: float,
    *,
    min_requests: int = 0,
) -> LoopResult:
    """One client per plan, each cycling through its request indices and
    sending the next only after the previous reply, until ``seconds``
    have passed and at least ``min_requests`` were sent.  A request is
    due when it is sent; its lag is the gap since the client's previous
    reply."""
    result = LoopResult()
    lock = threading.Lock()
    issued = [0]
    start = time.perf_counter()
    end = start + seconds
    result.started = start

    def client(conn: int) -> None:
        plan = plans[conn]
        previous = time.perf_counter()
        step = 0
        while True:
            with lock:
                if previous >= end and issued[0] >= min_requests:
                    return
                issued[0] += 1
            index = plan[step % len(plan)]
            step += 1
            sent = time.perf_counter()
            ok, status = send(conn, index)
            done = time.perf_counter()
            with lock:
                result._record(index, sent, sent, done, ok, status, sent - previous)
            previous = done

    _run_threads(client, len(plans))
    result.finished = time.perf_counter()
    return result


def _run_threads(target: Callable[[int], None], count: int) -> None:
    errors: list[BaseException] = []

    def guarded(conn: int) -> None:
        try:
            target(conn)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(conn,), daemon=True)
        for conn in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class HttpConnections:
    """One persistent HTTP/1.1 connection per load thread.

    :meth:`post` returns ``(status, body)``; a status of 0 means the
    request failed on the wire (refused, reset or timed out), after which
    that connection is reopened for the next request.
    """

    def __init__(self, host: str, port: int, count: int, timeout: float) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conns: list[http.client.HTTPConnection | None] = [None] * count

    def post(self, conn: int, path: str, body: bytes, headers: dict) -> tuple[int, bytes]:
        connection = self._conns[conn]
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._conns[conn] = connection
        try:
            connection.request("POST", path, body, headers)
            response = connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            self._conns[conn] = None
            return 0, b""
        if response.will_close:
            connection.close()
            self._conns[conn] = None
        return response.status, data

    def close(self) -> None:
        for index, connection in enumerate(self._conns):
            if connection is not None:
                connection.close()
                self._conns[index] = None
