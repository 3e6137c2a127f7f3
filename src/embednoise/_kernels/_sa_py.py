"""NumPy reference Metropolis kernel: sa.c's operations in sa.c's order, across reads."""
import sys

import numpy as np

NAME = "python"
DRAWS_PER_CALL = sys.maxsize  # whole blocks: the steps loop over spins in Python, across all reads


def run_metropolis(spins, h, nbr_idx, nbr_val, perms, betas, log_u, row_ptr):
    """Run len(betas) sweeps in place, one spin per read per step, in each read's visit order.

    spins   : int8  (reads, n), entries +/-1, updated in place
    h       : float (reads, n) per-read fields (may be broadcast)
    nbr_idx : int32 (nnz,) neighbour ids, spin i's at row_ptr[i] .. row_ptr[i+1]-1 (CSR)
    nbr_val : float (reads, nnz) coupler values, laid out as nbr_idx (may be broadcast)
    perms   : int32 (reads, n) per-read spin visit order
    betas   : float (sweeps,) inverse temperature per sweep
    log_u   : float (reads, sweeps, n) log acceptance draws: flip when log_u < -beta * dE
    row_ptr : int32 (n + 1,) start of each spin's entries, then nnz

    The CSR must be symmetric: every entry (i, j) has a twin (j, i) of the same value on each
    read. Local fields are summed once per call, h then the row in CSR order; a spin update
    only compares, and an accepted flip of i adds 2 * s_i * v to each neighbour's field.
    """
    reads, n = spins.shape
    ar, deg = np.arange(reads), np.diff(row_ptr)
    slot = row_ptr[:-1, None] + np.arange(deg.max(initial=0))
    pad, slot = slot >= row_ptr[1:, None], np.minimum(slot, len(nbr_idx) - 1)
    shared = nbr_val.strides[0] == 0  # one table for all reads: pad it once
    val = np.where(pad, 0.0, (nbr_val[:1] if shared else nbr_val)[:, slot])
    nbr, val_row = np.where(pad, n, nbr_idx[slot]), 0 * ar if shared else ar
    field = np.empty((reads, n + 1))  # column n takes the pads' updates
    field[:, :n] = h
    for d in range(slot.shape[1]):  # h first, then the row's entries, as in sa.c
        at = np.flatnonzero(deg > d)
        field[:, at] += val[:, at, d] * spins[:, nbr[at, d]]
    for c, beta in enumerate(betas):
        for t in range(n):
            i = perms[:, t]
            s = spins[ar, i]
            flip = np.flatnonzero(log_u[:, c, t] < -beta * (-2.0 * s * field[ar, i]))
            i, s = i[flip], -s[flip]
            spins[flip, i] = s
            # flat and unbuffered, in (read, entry) order: a pair listed twice adds twice, as in sa.c
            np.add.at(field.reshape(-1), (flip[:, None] * (n + 1) + nbr[i]).ravel(),
                      ((2.0 * s)[:, None] * val[val_row[flip], i]).ravel())
