"""Shared plumbing: where the program lives, scratch space, bookkeeping."""

from __future__ import annotations

import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space inside the checkout; every run makes and removes its own
#: subdirectory here.
WORK = ROOT / ".perfbench_work"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The environment the benchmark started with: nodes run under this one.
NODE_ENV = dict(os.environ)
START_AFFINITY = frozenset(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_to_one_cpu() -> int:
    """Run the benchmark, and every node it starts (affinity is inherited),
    on the first CPU it may use.  The client and the node then hand each
    request over on one CPU instead of waking an idle virtual CPU, whose
    wake-up latency the hypervisor sets, not the program.

    The price: the node's decode pool and any parallel ingest share that CPU
    with the client, so a change that uses the second core cannot show a
    gain here, and CPU time a node adds is charged to the client's latency.
    With the client and the node on different CPUs, hot p50 spread 0.46
    over five seeds, against 0.06 on one CPU (see README)."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def single_threaded_blas() -> None:
    """One BLAS thread in the benchmark process (codec-sweep runs the codecs
    on one thread); must run before numpy is imported.  Nodes keep
    ``NODE_ENV``."""
    for name in BLAS_VARS:
        os.environ.setdefault(name, "1")


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def import_program() -> None:
    """Put ``src`` on the path and import ``repro``, or raise ProgramMissing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def make_workdir(prefix: str) -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()  # only when no other run is using it
    except OSError:
        pass


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM in {status}")


def environment() -> Dict[str, object]:
    """What the numbers were measured on."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {"benchmark_process": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
            "node": {v: NODE_ENV.get(v, "unset (library default)")
                     for v in BLAS_VARS}}
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(START_AFFINITY),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas,
        "fsync": "on, as the program ships it (staged archive, manifest "
                 "rewrite and directory entries)",
    }


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed because an output was wrong (not an error)
        self.messages: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, message: str, *, wrong: bool) -> None:
        self.attempted += 1
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.messages) < 10:
            self.messages.append(message)


class Stopwatch:
    """Deadline for the measured phase of a run."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.deadline = self.start + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def elapsed(self) -> float:
        return time.perf_counter() - self.start
