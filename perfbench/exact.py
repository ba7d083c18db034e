"""The exact-scan yardstick and the host record.

Ground truth comes from the benchmark's own batched GEMM, not from
``repro.data.groundtruth``, so a change to the program cannot move the
yardstick it is judged against.
"""

from __future__ import annotations

import ctypes
import os
import platform
import time
from typing import Tuple

import numpy as np

#: Queries per GEMM block: 128 x 100k float64 distances is ~100 MB.
BLOCK = 128


def exact_knn(data: np.ndarray, norms2: np.ndarray, queries: np.ndarray,
              depth: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact ``depth`` nearest neighbours of every query, nearest first.

    One ``|x|^2 - 2 Q X^T`` GEMM per block of queries plus
    ``argpartition``; returns ``(ids, distances)`` of shape ``(m, depth)``.
    """
    m = queries.shape[0]
    ids = np.empty((m, depth), dtype=np.int64)
    dists = np.empty((m, depth), dtype=np.float64)
    for lo in range(0, m, BLOCK):
        block = queries[lo:lo + BLOCK]
        d2 = norms2[None, :] - 2.0 * (block @ data.T)
        part = np.argpartition(d2, depth - 1, axis=1)[:, :depth]
        part_d2 = np.take_along_axis(d2, part, axis=1)
        order = np.argsort(part_d2, axis=1, kind="stable")
        ids[lo:lo + BLOCK] = np.take_along_axis(part, order, axis=1)
        q2 = np.einsum("ij,ij->i", block, block)[:, None]
        sel = np.take_along_axis(part_d2, order, axis=1) + q2
        dists[lo:lo + BLOCK] = np.sqrt(np.maximum(sel, 0.0))
    return ids, dists


def yardstick(data: np.ndarray, queries: np.ndarray, depth: int):
    """Ground truth plus the exact scan's queries per second on this host."""
    started = time.perf_counter()
    norms2 = np.einsum("ij,ij->i", data, data)
    ids, dists = exact_knn(data, norms2, queries, depth)
    qps = queries.shape[0] / (time.perf_counter() - started)
    return ids, dists, qps


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, or -1 when it cannot be asked."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def host_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }
