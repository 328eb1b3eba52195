"""The host record saved with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy
import scipy

_BLAS_THREAD_SYMBOLS = (
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


def _blas() -> tuple[str, int | str]:
    """BLAS library numpy was built with, and the thread count it runs with."""
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):
        name = "unknown"
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def src_lines(root: Path) -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((root / "src").rglob("*.py"))
    )


def host_record(root: Path, seed: int) -> dict:
    blas, blas_threads = _blas()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "seed": seed,
        "src_lines": src_lines(root),
    }
