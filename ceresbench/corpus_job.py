"""One corpus run in a process of its own, so that the memory sampled
around it belongs to the program alone.

Usage::

    python3 ceresbench/corpus_job.py CORPUS_DIR KB_PATH OUT_DIR [--trace|--setup]

The plain run calls ``repro.runtime.runner.run_corpus`` with two worker
processes, a registry, a run journal, an extraction JSONL and a fused
JSONL output.  The traced run (``--trace``) makes the same public calls
in the same order as ``run_corpus`` and its ``_attempt_site``, with a
span around each layer, and writes the same two outputs; the caller
checks they are byte-identical to a plain run's.

Prints one JSON object: wall seconds of the run, pages, sites ok, and
``(pages, seconds since start)`` for each site as it was committed.
Spans of a traced run go to ``OUT_DIR/spans.json``, the workers' apart
from the coordinating process's.

``--setup`` does only the program's set-up before the first site (its
imports, the corpus scan, the journal, the page fingerprints and the
fusion store) and prints an empty object; the caller times the process.
"""

from __future__ import annotations

import concurrent.futures
import json
import sys
import time
from pathlib import Path

from spans import SpanRecorder

WORKERS = 2


def plain_run(corpus: Path, kb: Path, out: Path) -> dict:
    from repro.runtime.runner import run_corpus

    committed: list[float] = []
    with open(out / "extractions.jsonl", "w", encoding="utf-8") as rows, open(
        out / "fused.jsonl", "w", encoding="utf-8"
    ) as fused:
        start = time.perf_counter()
        reports = run_corpus(
            corpus, kb, out / "registry",
            max_workers=WORKERS,
            output=rows,
            fuse=fused,
            run_dir=out / "run",
            log=lambda _line: committed.append(time.perf_counter() - start),
        )
        wall = time.perf_counter() - start
    # Reports come back in commit order, one log line per site.
    return {
        "wall_s": wall,
        "sites": len(reports),
        "sites_ok": sum(1 for report in reports if report.ok),
        "pages": sum(report.n_pages for report in reports),
        "commits": [
            [report.n_pages, at] for report, at in zip(reports, committed)
        ],
    }


def _traced_site(site: str, pages_dir: str, kb_path: str, registry_root: str,
                 config_data: dict) -> dict:
    """``runner._run_site`` + ``_attempt_site`` for one site, first
    attempt only, with a span around each layer."""
    from repro import obs
    from repro.core import pipeline as pipeline_module
    from repro.core.pipeline import CeresPipeline
    from repro.fusion.reliability import extraction_agreement
    from repro.kb.io import load_kb
    from repro.runtime import runner
    from repro.runtime.registry import ModelRegistry
    from repro.runtime.serialize import SiteModel, config_from_dict
    from repro.runtime.service import ExtractionService

    recorder = SpanRecorder()
    recorder.wrap(runner, "parse_html", "dom.parse")
    recorder.wrap(pipeline_module, "cluster_pages", "clustering.cluster")
    try:
        # Metrics on, tracing off, as run_corpus runs its workers.
        with obs.scoped(tracing=False, metrics=True) as (_, site_metrics):
            with site_metrics.timer("runner.site_seconds"), \
                    recorder.span("runner.site", site=site):
                config = config_from_dict(config_data)
                with recorder.span("kb.load"):
                    kb = load_kb(kb_path)
                documents = runner.load_site_documents(pages_dir)
                pipeline = CeresPipeline(kb, config)
                with recorder.span("annotation.annotate") as attrs:
                    result = pipeline.annotate(documents)
                    attrs["annotations"] = result.annotation_count
                with recorder.span("train.fit"):
                    pipeline.train(documents, result)
                site_model = SiteModel.from_result(site, config, result)
                with recorder.span(
                    "registry.save", clusters=len(site_model.clusters)
                ):
                    ModelRegistry(registry_root).save(site_model)
                service = ExtractionService()
                service.add_site_model(site_model)
                with recorder.span("service.score", pages=len(documents)), \
                        obs.stage("stage.extract", pages=len(documents)):
                    extractions = service.extract_pages(site, documents, None)
                checked, agreed = extraction_agreement(kb, extractions)
                rows = [
                    runner.extraction_row(
                        extraction, documents[extraction.page_index].url, site
                    )
                    for extraction in extractions
                ]
                service.publish_metrics(site_metrics)
                site_metrics.record_cache(pipeline.matcher.cache_stats())
    except Exception as exc:  # reported as a failed site, like run_corpus
        return {"site": site, "ok": False, "error": repr(exc), "rows": [],
                "spans": recorder.spans, "n_pages": 0}
    finally:
        recorder.restore()
    return {
        "site": site,
        "ok": True,
        "n_pages": len(documents),
        "n_extractions": len(extractions),
        "kb_checked": checked,
        "kb_agreed": agreed,
        "rows": rows,
        "spans": recorder.spans,
    }


def prepare(corpus: Path, out: Path):
    """What ``run_corpus`` does before its first site, by the same public
    calls: find the sites, open the run journal, fingerprint every
    site's pages and make the fusion store."""
    from repro.core.config import CeresConfig
    from repro.fusion.store import FactStore
    from repro.runtime import resilience
    from repro.runtime.runner import PAGE_SUFFIXES, discover_corpus
    from repro.runtime.serialize import config_to_dict

    specs = discover_corpus(corpus)
    config_data = config_to_dict(CeresConfig())
    journal = resilience.RunJournal(out / "run")
    journal.open(
        config_hash=resilience.config_fingerprint(config_data, None),
        resume=False,
    )
    fingerprints = {
        spec.site: resilience.site_fingerprint(
            sorted(
                path for path in Path(spec.pages_dir).iterdir()
                if path.is_file() and path.suffix.lower() in PAGE_SUFFIXES
            )
        )
        for spec in specs
    }
    return specs, config_data, journal, fingerprints, FactStore(use_reliability=True)


def setup_only(corpus: Path, _kb: Path, out: Path) -> dict:
    """The program's set-up for a corpus run and nothing else: import
    ``run_corpus`` and do what it does before its first site."""
    from repro.runtime.runner import run_corpus  # noqa: F401  (its imports)

    _specs, _config, journal, _fingerprints, store = prepare(corpus, out)
    journal.close()
    store.close()
    return {}


def traced_run(corpus: Path, kb: Path, out: Path) -> dict:
    from repro.fusion.store import write_fused_jsonl
    from repro.runtime import resilience

    recorder = SpanRecorder()
    committed: list[list] = []
    pages = sites_ok = 0
    worker_spans: list[dict] = []
    start = time.perf_counter()
    specs, config_data, journal, fingerprints, store = prepare(corpus, out)
    ok_sites: list[str] = []
    try:
        # The default start method, as in run_corpus: this process runs
        # no threads, and the two runs should start workers alike.
        with concurrent.futures.ProcessPoolExecutor(max_workers=WORKERS) as pool:
            futures = {}
            for spec in specs:
                journal.record_site(
                    spec.site, resilience.STATE_RUNNING,
                    fingerprint=fingerprints[spec.site],
                )
                futures[
                    pool.submit(
                        _traced_site, spec.site, spec.pages_dir, str(kb),
                        str(out / "registry"), config_data,
                    )
                ] = spec
            for future in concurrent.futures.as_completed(futures):
                payload = future.result()
                site = payload["site"]
                worker_spans.extend(payload["spans"])
                if payload["ok"]:
                    journal.write_rows(site, payload["rows"])
                    journal.record_site(
                        site, resilience.STATE_DONE,
                        fingerprint=fingerprints[site],
                        report={k: v for k, v in payload.items()
                                if k not in ("rows", "spans")},
                    )
                    with recorder.span("fusion.ingest", rows=len(payload["rows"])):
                        store.ingest_rows(payload["rows"])
                        store.observe_agreement(
                            site, payload["kb_checked"], payload["kb_agreed"]
                        )
                    ok_sites.append(site)
                    sites_ok += 1
                else:
                    journal.record_site(
                        site, resilience.STATE_FAILED,
                        fingerprint=fingerprints[site],
                    )
                pages += payload["n_pages"]
                committed.append(
                    [payload["n_pages"], time.perf_counter() - start]
                )
        with open(out / "extractions.jsonl", "w", encoding="utf-8") as rows:
            for site in sorted(ok_sites):
                rows.write(journal.read_rows_text(site))
        with open(out / "fused.jsonl", "w", encoding="utf-8") as fused, \
                recorder.span("fusion.finalize"):
            write_fused_jsonl(store.finalize(), fused)
        wall = time.perf_counter() - start
    finally:
        journal.close()
        store.close()
    (out / "spans.json").write_text(
        json.dumps({"workers": worker_spans, "coordinator": recorder.spans}),
        encoding="utf-8",
    )
    return {
        "wall_s": wall,
        "sites": len(specs),
        "sites_ok": sites_ok,
        "pages": pages,
        "commits": committed,
    }


def main(argv: list[str]) -> int:
    corpus, kb, out = (Path(arg) for arg in argv[:3])
    mode = {"--trace": traced_run, "--setup": setup_only}.get(
        argv[3] if len(argv) > 3 else "", plain_run
    )
    out.mkdir(parents=True, exist_ok=True)
    result = mode(corpus, kb, out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
