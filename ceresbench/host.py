"""What a run records about where it ran, and the run ledger.

* :func:`host_fingerprint` and :func:`source_digest` say which machine
  and which source produced a record, so only like is compared with like.
* :func:`append_record` appends one JSON line per run to a ledger file
  named after the workload, run length and trace flag: records of
  different shapes never share a file, and a file is only ever opened
  for appending.  The live ledger is run scratch, ignored by git; the
  records that defined the benchmark are a committed copy (README.md).
* :class:`TreeMemory` samples the peak resident memory of a process and
  its descendants.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path

__all__ = [
    "TreeMemory",
    "append_record",
    "git_commit",
    "host_fingerprint",
    "ledger_path",
    "python_env",
    "read_records",
    "source_digest",
    "start_group",
    "wait_group",
]

#: Files whose content defines what a run measured: the program and the
#: benchmark itself.
DIGEST_GLOBS = ("src/**/*.py", "pyproject.toml", "ceresbench/*.py")


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    paths = sorted(
        {path for pattern in DIGEST_GLOBS for path in root.glob(pattern)}
    )
    for path in paths:
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _git(root: Path, *args: str) -> str | None:
    try:
        completed = subprocess.run(
            ["git", *args], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, with ``+dirty`` appended when a file the
    source digest covers differs from HEAD; None outside a git work
    tree."""
    if not (root / ".git").exists():
        return None
    head = _git(root, "rev-parse", "HEAD")
    if not head:
        return None
    changed = _git(root, "status", "--porcelain", "--", "src", "pyproject.toml", "ceresbench")
    return head + "+dirty" if changed else head


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_fingerprint() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def ledger_path(ledger_dir: Path, workload: str, seconds: int, trace: bool) -> Path:
    return ledger_dir / f"{workload}-s{seconds}-trace{int(trace)}.jsonl"


def append_record(path: Path, record: dict) -> None:
    """Append one record as one line, durably; never rewrites the file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
        os.fsync(fd)
    finally:
        os.close(fd)


def read_records(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


def _parents() -> dict[int, int]:
    """pid -> parent pid of every process in /proc."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1:
            parents[int(entry)] = int(fields[1])
    return parents


def _peak_kib(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


#: Seconds between two readings of a process tree's memory.
SAMPLE_INTERVAL_S = 0.25


class TreeMemory:
    """Peak resident memory of a process tree, in MiB.

    A background thread reads every live descendant's high-water mark
    (``VmHWM``) every :data:`SAMPLE_INTERVAL_S` seconds; the result is the
    sum over every process seen of its last reading.  :meth:`read_now` takes a
    final reading before the caller stops the tree.
    """

    def __init__(self, root_pid: int) -> None:
        self.root_pid = root_pid
        self._peaks: dict[int, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def read_now(self) -> None:
        children: dict[int, list[int]] = {}
        for pid, parent in _parents().items():
            children.setdefault(parent, []).append(pid)
        pending = [self.root_pid]
        while pending:
            pid = pending.pop()
            peak = _peak_kib(pid)
            if peak is None:
                continue
            with self._lock:
                self._peaks[pid] = max(peak, self._peaks.get(pid, 0))
            pending.extend(children.get(pid, ()))

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.read_now()

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        with self._lock:
            return sum(self._peaks.values()) / 1024.0


def python_env(root: Path) -> dict:
    """Environment for a child Python that imports ``repro`` from source
    and keeps its temporary files inside the checkout."""
    env = dict(os.environ)
    tmp = root / "ceresbench" / "_work" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULT_PLAN", None)
    return env


PYTHON = sys.executable


def start_group(command: list[str], root: Path, env: dict | None = None,
                **kwargs) -> subprocess.Popen:
    """Start a child Python (environment :func:`python_env` unless given)
    in a process group of its own, so that it can be stopped together
    with the workers it forks."""
    return subprocess.Popen(
        command, cwd=root, env=env or python_env(root),
        stdin=subprocess.DEVNULL, start_new_session=True, **kwargs,
    )


def wait_group(process: subprocess.Popen, timeout: float):
    """``communicate`` with a deadline; past it, kill the whole group."""
    try:
        return process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
