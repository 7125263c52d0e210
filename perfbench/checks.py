"""Output checks and provenance, written independently of arbsurf's own code."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

FEAS_TOL = 1e-10


def cone_violation(values, strikes) -> float:
    """Largest breach of the arbitrage-free cone by a price grid.

    ``values`` has maturities as rows and strikes as columns.  The three
    conditions are: prices nondecreasing in maturity (calendar), slopes
    nondecreasing in strike (convexity), and prices nonnegative.  A grid
    holding NaN or infinity reads as the largest finite float.
    """
    C = np.asarray(values, dtype=float)
    K = np.asarray(strikes, dtype=float)
    if not np.all(np.isfinite(C)):
        return sys.float_info.max
    calendar = C[:-1] - C[1:]
    slopes = (C[:, 1:] - C[:, :-1]) / (K[1:] - K[:-1])
    convexity = slopes[:, :-1] - slopes[:, 1:]
    worst = max(float(np.max(calendar, initial=0.0)),
                float(np.max(convexity, initial=0.0)),
                float(np.max(-C, initial=0.0)))
    return min(worst, sys.float_info.max)


def non_finite_paths(obj, path="") -> list[str]:
    """Paths of every NaN or infinite number in a JSON-like tree."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in non_finite_paths(v, f"{path}/{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in non_finite_paths(v, f"{path}/{i}")]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return [path]
    return []


def digest(summary_json: str) -> str:
    return hashlib.sha256(summary_json.encode()).hexdigest()


def blas_info() -> dict:
    """Name, version and live thread count of the BLAS numpy loaded."""
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path) -> dict:
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "git_commit": _git_commit(root),
    }
