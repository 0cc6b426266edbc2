"""``repro serve-http`` with spans around the serving layers.

Usage::

    python3 ceresbench/traced_server.py SPANS_OUT serve-http [ARGS...]

Before the server starts, this launcher wraps, where the server looks
them up:

* ``parse_html`` as ``repro.serving.server`` imports it (``dom.parse``);
* ``ExtractionService.extract_pages`` / ``extract_pages_transfer``
  (``service.extract_pages`` / ``service.extract_pages_transfer``);
* ``ModelRegistry.load`` / ``load_global`` (``registry.load`` /
  ``registry.load_global``: residency misses);
* ``AdmissionQueue.offer`` / ``take_batch`` and ``PendingRequest.fulfill``
  (instants ``queue.offer`` / ``queue.take`` / ``request.fulfill``);
* ``ServingServer.handle_extract`` (``serving.handle``).

Requests are told apart by the client's ``X-Bench-Id`` header.  Spans
stay in memory and are written to SPANS_OUT as JSON after the server has
drained and ``main`` returned.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

from spans import SpanRecorder


def install(recorder: SpanRecorder) -> None:
    from repro.runtime.registry import ModelRegistry
    from repro.runtime.service import ExtractionService
    from repro.serving import server as server_module
    from repro.serving.batching import AdmissionQueue, PendingRequest
    from repro.serving.server import ServingServer

    def pages_of(_result, _service, site, documents, *_rest, **_kw):
        return {"site": site, "pages": len(documents)}

    recorder.wrap(server_module, "parse_html", "dom.parse")
    recorder.wrap(ExtractionService, "extract_pages", "service.extract_pages", pages_of)
    recorder.wrap(
        ExtractionService, "extract_pages_transfer",
        "service.extract_pages_transfer", pages_of,
    )
    recorder.wrap(
        ModelRegistry, "load", "registry.load",
        lambda _result, _registry, site: {"site": site},
    )
    recorder.wrap(ModelRegistry, "load_global", "registry.load_global")

    current = threading.local()
    #: id(PendingRequest) -> the X-Bench-Id of the request that made it.
    #: PendingRequest has __slots__, so the id cannot ride on the object.
    owners: dict[int, str | None] = {}

    handle_extract = ServingServer.handle_extract

    def traced_handle(self, handler):
        bench = handler.headers.get("X-Bench-Id")
        current.bench = bench
        try:
            with recorder.span("serving.handle", bench=bench):
                return handle_extract(self, handler)
        finally:
            current.bench = None

    offer = AdmissionQueue.offer

    def traced_offer(self, request):
        bench = getattr(current, "bench", None)
        owners[id(request)] = bench
        recorder.mark("queue.offer", bench=bench)
        return offer(self, request)

    take_batch = AdmissionQueue.take_batch

    def traced_take(self):
        claimed = take_batch(self)
        if claimed is not None:
            _, batch = claimed
            recorder.mark(
                "queue.take",
                benches=[owners.get(id(request)) for request in batch],
                pages=sum(len(request.documents) for request in batch),
            )
        return claimed

    fulfill = PendingRequest.fulfill

    def traced_fulfill(self, outcome):
        answered = fulfill(self, outcome)
        if answered:
            recorder.mark("request.fulfill", bench=owners.get(id(self)))
        return answered

    for owner, attribute, replacement in (
        (ServingServer, "handle_extract", traced_handle),
        (AdmissionQueue, "offer", traced_offer),
        (AdmissionQueue, "take_batch", traced_take),
        (PendingRequest, "fulfill", traced_fulfill),
    ):
        setattr(owner, attribute, replacement)


def main(argv: list[str]) -> int:
    spans_out = Path(argv[0])
    recorder = SpanRecorder()
    install(recorder)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        spans_out.write_text(json.dumps(recorder.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
