"""The machine and toolchain a run measured on, read from the running process."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

THREAD_COUNT_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> str:
    parts = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        parts.append(f"L{level} {kind.lower()} {size}")
    return ", ".join(parts) or "unknown"


def _blas() -> tuple[str, str]:
    """(library and version, threads it reports) for numpy's BLAS."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return name, "unknown"
    for path in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        lib = ctypes.CDLL(path)
        for symbol in THREAD_COUNT_SYMBOLS:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return name, str(fn())
    return name, "unknown"


def describe(nproc: int) -> list[str]:
    blas, threads = _blas()
    caps = ", ".join(f"{v}={os.environ.get(v)}" for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return [
        f"nproc {nproc}, cpu {_cpu_model()}",
        f"caches (cpu0) {_caches()}",
        f"python {platform.python_version()}, numpy {np.__version__}",
        f"blas {blas}, {threads} threads ({caps})",
    ]
