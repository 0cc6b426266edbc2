"""The repository benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 ceresbench/run.py --workload corpus-longtail --seed 1 --seconds 15 --trace 0

Workloads (see README.md): ``corpus-longtail``, ``serve-single`` and
``serve-bulk``.  The run builds its inputs from ``--seed``, measures,
checks the program's outputs, appends a record to the live ledger under
``ceresbench/_work/ledger/`` and prints, as the last line of standard
output, one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  It exits 1 when an output check fails and 2 when it
cannot run at all.
"""

from __future__ import annotations

import argparse
import datetime
import json
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("corpus-longtail", "serve-single", "serve-bulk")

#: The metric catalogue (names, units, which way is better, bounds).
MANIFEST = ROOT / "BENCHMARK.json"
#: Where every run appends its record.  It is run scratch (ignored by
#: git); ``ledger/`` holds the committed records that defined the benchmark.
LEDGER = HERE / "_work" / "ledger"

_CORPUS_ONLY = (
    "kb.load_s", "kb.loads", "clustering.cluster_s", "annotation.annotate_s",
    "annotation.annotations", "train.fit_s", "train.clusters", "registry.save_s",
    "fusion.ingest_s", "fusion.finalize_s", "runner.unattributed_s",
)
_SERVING_ONLY = (
    "registry.loads", "registry.load_ms", "transfer.score_ms_per_page",
    "serving.batch_pages", "serving.batch_requests", "serving.queue_wait_ms",
    "serving.handle_ms", "serving.wire_ms", "serving.unattributed_ms",
    "loadgen.lag_p95_ms",
)
#: Per-layer metrics of layers a workload never runs: a traced run
#: reports every per-layer metric, and these read 0.
NOT_RUN = {
    "corpus-longtail": _SERVING_ONLY,
    "serve-single": _CORPUS_ONLY,
    "serve-bulk": _CORPUS_ONLY,
}


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: int
    trace: bool

    @staticmethod
    def report(line: str) -> None:
        print(line, flush=True)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import host

    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}

    if args.workload == "corpus-longtail":
        import corpus as workload_module
    else:
        import serve as workload_module

    work = HERE / "_work" / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    # Taken before the run, so that the record names the code that ran.
    commit, digest = host.git_commit(ROOT), host.source_digest(ROOT)
    ctx = Context(ROOT, work, args.seed, args.seconds, bool(args.trace))
    ctx.report(f"== {args.workload} seed={args.seed} seconds={args.seconds} "
               f"trace={args.trace}")
    try:
        result = workload_module.run(ctx, args.workload)
    except Exception:
        traceback.print_exc()
        print("error: the run did not complete", file=sys.stderr)
        return 2

    metrics = result["metrics"]
    if ctx.trace:
        for name in NOT_RUN[args.workload]:
            metrics.setdefault(name, 0.0)
    wanted = per_layer if ctx.trace else end_to_end
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"error: the run did not measure {missing}", file=sys.stderr)
        return 2
    problems = result["problems"]
    correct = not problems
    attempted, failed = result["attempted"], result["failed"]

    ctx.report("end-to-end:" if not ctx.trace else "end-to-end (traced, not reported):")
    for name, unit in end_to_end.items():
        ctx.report(f"  {name:24s} {metrics[name]:14.4f} {unit}")
    if ctx.trace:
        ctx.report("per layer:")
        for name, unit in per_layer.items():
            ctx.report(f"  {name:28s} {metrics[name]:14.4f} {unit}")
    ctx.report(f"operations: {attempted} attempted, {failed} failed "
               f"(failed_frac {failed / max(1, attempted):.4f})")
    for problem in problems:
        ctx.report(f"CHECK FAILED: {problem}")
    ctx.report("outputs correct" if correct else "outputs NOT correct")

    units = {**end_to_end, **per_layer}
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": commit,
        "source_digest": digest,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "host": host.host_fingerprint(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / max(1, attempted),
        "problems": problems,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
        **result["extra"],
    }
    ledger = host.ledger_path(LEDGER, args.workload, args.seconds, ctx.trace)
    if ctx.trace and "tracing_overhead" not in record:
        _report_overhead(ctx, host, record)
    host.append_record(ledger, record)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0 if correct else 1


def _report_overhead(ctx, host, record: dict) -> None:
    """Tracing overhead against untraced ledger records of the same
    workload, source, seed and host."""
    plain = [
        old for old in host.read_records(
            host.ledger_path(LEDGER, record["workload"], record["seconds"], False)
        )
        if old["source_digest"] == record["source_digest"]
        and old["seed"] == record["seed"] and old["host"] == record["host"]
    ]
    if not plain:
        ctx.report("tracing overhead: no untraced record of this seed and source yet")
        return
    latest = plain[-1]["metrics"]
    for name in ("throughput_pages_per_s", "latency_p50_ms", "latency_p90_ms"):
        traced = record["metrics"][name]["value"]
        untraced = latest[name]["value"]
        if untraced:
            ctx.report(f"tracing overhead on {name}: {(traced / untraced - 1) * 100:+.1f}%")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
