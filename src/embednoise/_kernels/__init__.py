"""Metropolis sweep kernels: sa.c through ctypes, or NumPy when `cc` is missing or
the build fails (the reason is kept). Both give bitwise-identical spins.
"""
import os

from . import _sa_py
from ._sa_py import csr  # noqa: F401  the one CSR layout: both kernels and the sampler's betas

CACHE_DIR = os.path.join(os.path.expanduser("~"), ".cache", "embednoise")
_loaded = None  # (kernel module, why C is unavailable or None) after the first load


def _load(cache_dir: str):
    """Return (C kernel module, None), or (NumPy kernel module, why C is unavailable)."""
    try:
        from . import _sa_c
        _sa_c.bind(cache_dir)
        return _sa_c, None
    except OSError as exc:
        return _sa_py, str(exc)


def get_kernel(name: str | None = None):
    """Return the kernel module for `name`: "auto" (or None), "c" or "python"."""
    global _loaded
    if name == "python":
        return _sa_py
    if name not in (None, "auto", "c"):
        raise ValueError(f"unknown backend {name!r}")
    _loaded = _loaded or _load(CACHE_DIR)
    if name == "c" and _loaded[1]:
        raise RuntimeError(f"C kernel unavailable: {_loaded[1]}")
    return _loaded[0]
