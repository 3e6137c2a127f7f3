"""The C kernel, sa.c, through ctypes; same contract as _sa_py.run_metropolis, which is checked."""
import ctypes
import os
import zlib

import numpy as np

from ._sa_py import csr

NAME = "c"
DRAWS_PER_CALL = 1 << 17  # log-uniforms per call, 1 MB: sa.c runs one read after another
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
    lib = ctypes.CDLL(lib)
    _fn = lib.run_metropolis
    _fn.argtypes = [ctypes.c_long if k == "l" else ctypes.c_void_p for k in "lllpplppplpppp"]
    _fn.restype = None


def _ptr(a, dtype, shape, per_read=False):
    """Address of `a`, whose rows (per_read) or whole (otherwise) must be C-contiguous."""
    ok = a[0].flags.c_contiguous and a.strides[0] % 8 == 0 if per_read else a.flags.c_contiguous
    if a.dtype != dtype or a.shape != shape or not ok:
        raise ValueError(f"kernel input must be {np.dtype(dtype)} {shape}, C-contiguous")
    return a.ctypes.data


_last = (None, None)  # ((n, edges bytes), csr) of the last edge list found valid


def _csr(n, edges):
    """csr(n, edges), kept for the last edge list, compared by value: an anneal passes one edge
    list to every call, so its endpoints are checked and its CSR built once, not per call."""
    global _last
    key = (n, edges.tobytes())
    if key != _last[0]:
        if not np.all((0 <= edges) & (edges < n)) or np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("edges must join two distinct spins in 0..n-1")
        _last = (key, csr(n, edges))
    return _last[1]


def run_metropolis(spins, h, edges, jv, perms, betas, log_u):
    """Run len(betas) Metropolis sweeps in place; h and jv may be broadcast views.

    sa.c sweeps csr(n, edges) with each call's coupler values gathered into entry order, so an
    edge's two entries hold one value on every read. ValueError, before any spin moves, on
    inputs sa.c cannot read safely: a wrong dtype, shape or layout, read-only spins, a perms
    entry outside 0..n-1, an edge that does not join two distinct spins in 0..n-1, or a coupler
    value that is not finite (a stride-0 jv: row 0 only). The edges are checked once per edge
    list, by _csr.
    """
    (reads, n), m, sweeps = spins.shape, len(edges), len(betas)
    _ptr(edges, np.int32, (m, 2))
    _ptr(jv, np.float64, (reads, m), True)
    shared = jv.strides[0] == 0
    jv = jv[:1] if shared else jv
    if not np.isfinite(jv).all():
        raise ValueError("coupler values must be finite")
    row_ptr, nbr_idx, edge_id = _csr(n, edges)
    vals = jv.take(edge_id, axis=1)  # each read's values in entry order
    args = (reads, n, sweeps, _ptr(spins, np.int8, (reads, n)),
            _ptr(h, np.float64, (reads, n), True), h.strides[0] // 8,
            row_ptr.ctypes.data, nbr_idx.ctypes.data, vals.ctypes.data, 0 if shared else 2 * m,
            _ptr(perms, np.int32, (reads, n)), _ptr(betas, np.float64, (sweeps,)),
            _ptr(log_u, np.float64, (reads, sweeps, n)))
    if not spins.flags.writeable or not (perms.view(np.uint32) < n).all():  # negatives wrap high
        raise ValueError("spins must be writeable, and perms must index 0..n-1")
    field = np.empty(n)  # sa.c's local fields, summed again for each read
    _fn(*args, field.ctypes.data)
