"""Machine description, a fixed calibration kernel, and fresh-import timing."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info = {var: os.environ.get(var) for var in _BLAS_VARS}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        info["library"] = "unknown"
    return info


def environment() -> dict:
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }


def calibrate(reps: int = 11) -> float:
    """Median ms of a fixed numpy kernel: batched 2x2 complex products and
    elementwise arithmetic on 1024 points, the operations the program's
    cascades are made of.  Its ratio between two runs tells a slow phase of
    the machine from a slower program."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1024, 2, 2)) + 1j * rng.standard_normal((1024, 2, 2))
    a /= np.abs(a).max()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        t = a
        for _ in range(20):
            t = a @ t
            t = t / (1.0 + np.abs(t))
        float(np.abs(t).sum())
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def fresh_import_seconds(root: str, src: str, module: str) -> float:
    """Seconds to import ``module`` in a fresh interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env=_child_env(src), capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def module_import_seconds(root: str, src: str, module: str) -> float:
    """Cumulative import time of one module (with the imports it triggers
    first) inside a fresh ``import oemarray.cli``, from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import oemarray.cli"], cwd=root, env=_child_env(src),
                          capture_output=True, text=True, timeout=120, check=True)
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(parts[1]) * 1e-6
    raise RuntimeError(f"{module} missing from the import-time report")
