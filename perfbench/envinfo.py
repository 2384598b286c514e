"""The machine and software a result was measured on."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _kib(size: str) -> int:
    units = {"K": 1, "M": 1024, "G": 1024 * 1024}
    return int(size[:-1]) * units[size[-1]] if size and size[-1] in units else 0


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():  # never report the commit of an enclosing repository
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10, check=False
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def record(root: Path, blas_threads: int, largest_array_bytes: int) -> dict:
    """Environment of a run; ``largest_array_bytes`` is the workload's biggest array."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_sizes()
    l3_kib = _kib(caches.get("L3", ""))
    note = (
        f"largest array {largest_array_bytes / 2**20:.1f} MiB "
        + (f"fits in L3 ({l3_kib / 1024:.0f} MiB); " if largest_array_bytes <= l3_kib * 1024 else "exceeds L3; ")
        + "no DRAM-bandwidth ratio is claimed"
    )
    return {
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "memory_note": note,
        "computed_counts": "transform.cmacs and cuntz.dense_bytes are computed from array sizes, not measured",
    }
