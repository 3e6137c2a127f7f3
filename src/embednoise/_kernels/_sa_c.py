"""The C kernel, sa.c, through ctypes; same contract as _sa_py.run_metropolis."""
import ctypes
import os
import zlib

import numpy as np

NAME = "c"
SOURCE = os.path.join(os.path.dirname(__file__), "sa.c")
FLAGS = ["-O2", "-shared", "-fPIC", "-ffp-contract=off"]


def bind(cache_dir: str):
    """Load sa.c's library from cache_dir, compiling it there once per source and flags."""
    global _fn
    with open(SOURCE, "rb") as f:
        lib = os.path.join(cache_dir, f"sa-{zlib.crc32(f.read() + ' '.join(FLAGS).encode()):08x}.so")
    if not os.path.exists(lib):
        import subprocess
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{lib}.{os.getpid()}.tmp"
        proc = subprocess.run(["cc", *FLAGS, "-o", tmp, SOURCE], capture_output=True, text=True)
        if proc.returncode:  # (no cc at all raised FileNotFoundError, also an OSError)
            raise OSError(f"cc exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        os.replace(tmp, lib)  # atomic: a concurrent loader sees no file or a whole one
    _fn = ctypes.CDLL(lib).run_metropolis
    _fn.argtypes = [ctypes.c_long if k == "l" else ctypes.c_void_p for k in "lllpplppplppp"]
    _fn.restype = None


def _ptr(a, dtype, shape, per_read=False):
    """Address of `a`, whose rows (per_read) or whole (otherwise) must be C-contiguous."""
    ok = a[0].flags.c_contiguous and a.strides[0] % 8 == 0 if per_read else a.flags.c_contiguous
    if a.dtype != dtype or a.shape != shape or not ok:
        raise ValueError(f"kernel input must be {np.dtype(dtype)} {shape}, C-contiguous")
    return a.ctypes.data


def run_metropolis(spins, h, nbr_idx, nbr_val, perms, betas, log_u, row_ptr):
    """Run len(betas) Metropolis sweeps in place; h and nbr_val may be broadcast views."""
    (reads, n), nnz, sweeps = spins.shape, len(nbr_idx), len(betas)
    if not spins.flags.writeable or not all(np.all((0 <= a) & (a < n)) for a in (nbr_idx, perms)):
        raise ValueError("spins must be writeable, and nbr_idx and perms must index 0..n-1")
    rows = _ptr(row_ptr, np.int32, (n + 1,))
    if row_ptr[0] != 0 or row_ptr[-1] != nnz or np.any(row_ptr[1:] < row_ptr[:-1]):
        raise ValueError("row_ptr must rise from 0 to len(nbr_idx), never falling")
    _fn(reads, n, sweeps, _ptr(spins, np.int8, (reads, n)),
        _ptr(h, np.float64, (reads, n), True), h.strides[0] // 8, rows,
        _ptr(nbr_idx, np.int32, (nnz,)), _ptr(nbr_val, np.float64, (reads, nnz), True),
        nbr_val.strides[0] // 8, _ptr(perms, np.int32, (reads, n)),
        _ptr(betas, np.float64, (sweeps,)), _ptr(log_u, np.float64, (reads, sweeps, n)))
