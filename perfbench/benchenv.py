"""Process set-up shared by the benchmark scripts: BLAS threads, import path,
and the environment record written next to every result.

`configure()` must run before numpy is imported anywhere in the process.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# One BLAS thread: the shapes are small (batch 64-256) and the runs share two
# vCPUs with other tenants, so a second thread adds spread, not speed.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configure() -> None:
    """Pin BLAS threads and put the checkout's `src` first on the import path.
    Exits with status 2 when the checkout holds no library to measure."""
    if not (SRC / "dmapl" / "__init__.py").is_file():
        print(f"error: no dmapl package under {SRC}", file=sys.stderr)
        sys.exit(2)
    if "numpy" in sys.modules:
        raise RuntimeError("configure() must run before numpy is imported")
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dmapl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(**extra) -> dict:
    import numpy as np

    blas = {}
    config = getattr(getattr(np, "__config__", None), "CONFIG", {})
    dep = config.get("Build Dependencies", {}).get("blas", {})
    if dep:
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _commit(),
        "src_sha256": _src_digest(),
        **extra,
    }
