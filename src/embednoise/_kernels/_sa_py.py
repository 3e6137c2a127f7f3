"""NumPy reference Metropolis kernel: sa.c's operations in sa.c's order, across reads."""
import sys

import numpy as np

NAME = "python"
DRAWS_PER_CALL = sys.maxsize  # whole chunks: the steps loop over spins in Python, across all reads


def csr(n, edges):
    """(row_ptr, nbr_idx, edge_id): the int32 CSR (compressed sparse row) neighbour lists of the
    couplers `edges` (m, 2) on n spins, and the edge of each entry.

    Spin i's entries are row_ptr[i] .. row_ptr[i+1]-1; each edge (a, b) puts b in row a and a
    in row b, and a row lists its edges in edge order (a stable sort of the endpoints, edge e's
    at 2e and 2e + 1, by row). Coupler values jv (reads, m) go into entry order as
    jv.take(edge_id, axis=1), so an edge's two entries hold one value on every read.
    """
    rows = edges.ravel()
    order = np.argsort(rows, kind="stable")
    row_ptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))]).astype(np.int32)
    return row_ptr, edges[:, ::-1].ravel()[order].astype(np.int32), order // 2


def run_metropolis(spins, h, edges, jv, perms, betas, log_u):
    """Run len(betas) sweeps in place, one spin per read per step, in each read's visit order.

    spins : int8  (reads, n), entries +/-1, updated in place
    h     : float (reads, n) per-read fields (may be broadcast)
    edges : int32 (m, 2) couplers (i, j), i != j
    jv    : float (reads, m) per-read coupler values (may be broadcast)
    perms : int32 (reads, n) per-read spin visit order
    betas : float (sweeps,) inverse temperature per sweep
    log_u : float (reads, sweeps, n) log acceptance draws: flip when log_u < -beta * dE

    Local fields are summed once per call, h then the row of csr(n, edges) in entry order; a
    spin update only compares, and an accepted flip of i adds 2 * s_i * v to each neighbour's
    field. Values are read from jv by each entry's edge id, shared or per read alike.
    """
    reads, n = spins.shape
    row_ptr, nbr_idx, edge_id = csr(n, edges)
    ar, deg = np.arange(reads), np.diff(row_ptr)
    slot = row_ptr[:-1, None] + np.arange(deg.max(initial=0))
    pad, slot = slot >= row_ptr[1:, None], np.minimum(slot, len(nbr_idx) - 1)
    nbr, eid = np.where(pad, n, nbr_idx[slot]), edge_id[slot]
    field = np.empty((reads, n + 1))  # column n takes the pads' updates
    field[:, :n] = h
    for d in range(slot.shape[1]):  # h first, then the row's entries, as in sa.c
        at = np.flatnonzero(deg > d)
        field[:, at] += jv[:, eid[at, d]] * spins[:, nbr[at, d]]
    for c, beta in enumerate(betas):
        for t in range(n):
            i = perms[:, t]
            s = spins[ar, i]
            flip = np.flatnonzero(log_u[:, c, t] < -beta * (-2.0 * s * field[ar, i]))
            i, s = i[flip], -s[flip]
            spins[flip, i] = s
            # flat and unbuffered, in (read, entry) order: a pair listed twice adds twice, as in sa.c
            np.add.at(field.reshape(-1), (flip[:, None] * (n + 1) + nbr[i]).ravel(),
                      ((2.0 * s)[:, None] * jv[flip[:, None], eid[i]]).ravel())
