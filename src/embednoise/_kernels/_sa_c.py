"""The C kernel, sa.c, through ctypes; same contract as _sa_py.run_metropolis, which is checked."""
import ctypes
import os
import zlib

import numpy as np

NAME = "c"
DRAWS_PER_CALL = 1 << 17  # log-uniforms per call, 1 MB: sa.c runs one read after another
SOURCE = os.path.join(os.path.dirname(__file__), "sa.c")
FLAGS = ["-O2", "-shared", "-fPIC", "-ffp-contract=off"]


def bind(cache_dir: str):
    """Load sa.c's library from cache_dir, compiling it there once per source and flags."""
    global _fn, _asymmetric_read
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
    lib = ctypes.CDLL(lib)
    _fn, _asymmetric_read = lib.run_metropolis, lib.asymmetric_read
    _fn.argtypes = [ctypes.c_long if k == "l" else ctypes.c_void_p for k in "lllpplppplpppp"]
    _fn.restype = None
    _asymmetric_read.argtypes = [ctypes.c_long if k == "l" else ctypes.c_void_p for k in "llplp"]
    _asymmetric_read.restype = ctypes.c_long


def _ptr(a, dtype, shape, per_read=False):
    """Address of `a`, whose rows (per_read) or whole (otherwise) must be C-contiguous."""
    ok = a[0].flags.c_contiguous and a.strides[0] % 8 == 0 if per_read else a.flags.c_contiguous
    if a.dtype != dtype or a.shape != shape or not ok:
        raise ValueError(f"kernel input must be {np.dtype(dtype)} {shape}, C-contiguous")
    return a.ctypes.data


_pairs = (None, None)  # (row_ptr and nbr_idx bytes, twin pairs) of the last CSR found valid


def _twin_pairs(row_ptr, nbr_idx):
    """(d, e) with d < e for each pair of twin entries, (i, j) and (j, i), of an int32 CSR;
    ValueError if row_ptr does not rise from 0 to len(nbr_idx), if a neighbour id is outside
    0..n-1 or if some entry has no twin.

    Sorting the entries by (row, neighbour) and by (neighbour, row) lines each one up with its
    twin, repeated pairs in row order. The last structure is kept, compared by value, since an
    anneal passes one CSR to every call: these checks run once per structure, not per call.
    """
    global _pairs
    key, (last_key, pairs) = (row_ptr.tobytes(), nbr_idx.tobytes()), _pairs
    if key == last_key:
        return pairs
    n = len(row_ptr) - 1
    if row_ptr[0] != 0 or row_ptr[-1] != len(nbr_idx) or np.any(row_ptr[1:] < row_ptr[:-1]):
        raise ValueError("row_ptr must rise from 0 to len(nbr_idx), never falling")
    if not np.all((0 <= nbr_idx) & (nbr_idx < n)):
        raise ValueError("nbr_idx must index 0..n-1")
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(row_ptr))
    fwd, bwd = np.lexsort((nbr_idx, rows)), np.lexsort((rows, nbr_idx))
    if not (np.array_equal(rows[fwd], nbr_idx[bwd]) and np.array_equal(nbr_idx[fwd], rows[bwd])):
        raise ValueError("CSR must be symmetric: an entry (i, j) has no (j, i) twin")
    pairs = np.stack([fwd, bwd], axis=1)[fwd < bwd].astype(np.int32)
    _pairs = (key, pairs)
    return pairs


def run_metropolis(spins, h, nbr_idx, nbr_val, perms, betas, log_u, row_ptr):
    """Run len(betas) Metropolis sweeps in place; h and nbr_val may be broadcast views.

    ValueError, before any spin moves, on inputs sa.c cannot read safely and on a CSR that is
    not symmetric in structure or, on any read, in value (a stride-0 nbr_val: row 0 only).
    Each call checks what an anneal changes from call to call (dtypes, shapes, contiguity,
    writeable spins, the perms range, twin values per read); the CSR's structure is checked
    once per structure, by _twin_pairs.
    """
    (reads, n), nnz, sweeps = spins.shape, len(nbr_idx), len(betas)
    vals, val_stride = _ptr(nbr_val, np.float64, (reads, nnz), True), nbr_val.strides[0] // 8
    args = (reads, n, sweeps, _ptr(spins, np.int8, (reads, n)),
            _ptr(h, np.float64, (reads, n), True), h.strides[0] // 8,
            _ptr(row_ptr, np.int32, (n + 1,)), _ptr(nbr_idx, np.int32, (nnz,)), vals, val_stride,
            _ptr(perms, np.int32, (reads, n)), _ptr(betas, np.float64, (sweeps,)),
            _ptr(log_u, np.float64, (reads, sweeps, n)))
    if not spins.flags.writeable or not (perms.view(np.uint32) < n).all():  # negatives wrap high
        raise ValueError("spins must be writeable, and perms must index 0..n-1")
    pairs = _twin_pairs(row_ptr, nbr_idx)
    bad = _asymmetric_read(1 if val_stride == 0 else reads, len(pairs), vals, val_stride,
                           pairs.ctypes.data)
    if bad >= 0:
        raise ValueError(f"CSR must be symmetric: entries (i, j) and (j, i) differ on read {bad}")
    field = np.empty(n)  # sa.c's local fields, summed again for each read
    _fn(*args, field.ctypes.data)
