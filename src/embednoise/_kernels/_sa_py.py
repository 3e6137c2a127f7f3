"""NumPy reference Metropolis kernel: sa.c's operations in sa.c's order, across reads."""
import numpy as np

NAME = "python"


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
    """
    ar, n = np.arange(len(spins)), spins.shape[1]
    # rows padded with 0.0 * s: that only flips a zero field's sign, which log_u < -beta * dE ignores
    slot = row_ptr[:-1, None] + np.arange(np.diff(row_ptr).max(initial=0))
    pad, slot = slot >= row_ptr[1:, None], np.minimum(slot, len(nbr_idx) - 1)
    shared = nbr_val.strides[0] == 0  # one table for all reads: pad it once
    val = np.where(pad, 0.0, (nbr_val[:1] if shared else nbr_val)[:, slot])
    nbr, val_row = nbr_idx[slot], 0 * ar if shared else ar
    for c, beta in enumerate(betas):
        for t in range(n):
            i = perms[:, t]
            terms = val[val_row, i] * spins.take(ar[:, None] * n + nbr[i])
            field = h[ar, i]
            for d in range(terms.shape[1]):  # h first, then the row's entries, as in sa.c
                field += terms[:, d]
            de = -2.0 * spins[ar, i] * field
            spins[ar, i] = np.where(log_u[:, c, t] < -beta * de, -spins[ar, i], spins[ar, i])
