"""NumPy reference Metropolis kernel: sa.c's operations in sa.c's order, across reads."""
import numpy as np

NAME = "python"


def run_metropolis(spins, h, nbr_idx, nbr_val, perms, betas, log_u):
    """Run len(betas) sweeps in place, one spin per read per step, in each read's visit order.

    spins   : int8  (reads, n), entries +/-1, updated in place
    h       : float (reads, n) per-read fields (may be broadcast)
    nbr_idx : int32 (n, D) padded neighbor ids (pad with 0)
    nbr_val : float (reads, n, D) padded coupler values (pad with 0.0; may be broadcast)
    perms   : int32 (reads, n) per-read spin visit order
    betas   : float (sweeps,) inverse temperature per sweep
    log_u   : float (reads, sweeps, n) log acceptance draws: flip when log_u < -beta * dE
    """
    reads, n = spins.shape
    ar = np.arange(reads)
    for c, beta in enumerate(betas):
        for t in range(n):
            i = perms[:, t]
            terms = nbr_val[ar, i] * spins.take(ar[:, None] * n + nbr_idx[i])
            field = h[ar, i]
            for d in range(terms.shape[1]):  # h first, then table order, as in sa.c
                field += terms[:, d]
            de = -2.0 * spins[ar, i] * field
            spins[ar, i] = np.where(log_u[:, c, t] < -beta * de, -spins[ar, i], spins[ar, i])
