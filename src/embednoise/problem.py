"""Random QUBO instances and exact QUBO <-> Ising conversion.

Energy conventions used throughout the package (minimization):

    QUBO:   E(x) = sum_i Q_ii x_i + sum_{i<j} Q_ij x_i x_j,         x_i in {0,1}
    Ising:  E(s) = sum_i h_i s_i  + sum_{i<j} J_ij s_i s_j + offset, s_i in {-1,+1}

The two are linked by x_i = (1 + s_i) / 2, and the conversion preserves
energies exactly for every assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._integral import integral
from .rng import substream

ENERGY_BLOCK_TERMS = 1 << 17  # coupler terms per row block of _batch_energies: 1 MB of float64


@dataclass
class QuboInstance:
    """Upper-triangular quadratic model over binary variables.

    diag[i] holds Q(i,i); offdiag holds Q(i,j) as the sorted COO triple
    (ei, ej, v) that IsingModel keeps, and is given and checked as its J is.
    """

    L: int
    diag: np.ndarray
    offdiag: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        m = IsingModel(self.L, self.diag, self.offdiag)
        self.diag, self.offdiag = m.h, (m.ei, m.ej, m.jv)


class IsingModel:
    """Spin model with local fields h, couplers J_ij (i < j) and a constant offset.

    Couplers are stored only as COO arrays: ei[e] < ej[e] < n, pairs unique
    and sorted by (i, j), with values jv[e]. `J` may be given as a
    {(i, j): v} mapping or as an (ei, ej, jv) triple in any order; an index
    given as a float must be integral. h, J and offset must be finite.
    """

    def __init__(self, n: int, h, J=None, offset: float = 0.0):
        self.n, self.offset = n, offset
        self.h = np.asarray(h, dtype=np.float64)
        if self.h.shape != (n,):
            raise ValueError(f"h must have length n={n}")
        J = {} if J is None else J
        if isinstance(J, dict):
            J = (*integral("coupler indices", list(J)).reshape(-1, 2).T, list(J.values()))
        ei, ej = (np.asarray(integral("coupler indices", a)) for a in J[:2])
        jv = np.asarray(J[2], dtype=np.float64)
        if not (ei.ndim == 1 and ei.shape == ej.shape == jv.shape):
            raise ValueError("coupler arrays ei, ej, jv must be 1-d and of equal length")
        for name, v in (("h", self.h), ("J", jv), ("offset", offset)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} is not finite")
        bad = (ei < 0) | (ei >= ej) | (ej >= n)
        if bad.any():
            e = int(np.argmax(bad))
            raise ValueError(f"coupler ({ei[e]},{ej[e]}) violates 0 <= i < j < n")
        order = np.lexsort((ej, ei))
        self.ei, self.ej, self.jv = ei[order], ej[order], jv[order]
        if np.any((np.diff(self.ei) == 0) & (np.diff(self.ej) == 0)):
            raise ValueError("couplers must be unique pairs (i, j)")


def generate_random_qubo(L: int, rho: float, seed: int) -> QuboInstance:
    """Draw a random QUBO with Uniform(-1,1) coefficients.

    Every diagonal entry is present; each of the L(L-1)/2 off-diagonal
    slots is present independently with probability rho. Deterministic
    given (L, rho, seed).
    """
    L = integral("L", L, lo=1)
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"density rho must lie in [0, 1], got {rho}")
    rng = substream(seed, "qubo", L)
    diag = rng.uniform(-1.0, 1.0, size=L)
    ei, ej = np.triu_indices(L, 1)
    present = rng.random(len(ei)) < rho
    values = rng.uniform(-1.0, 1.0, size=len(ei))
    offdiag = ei[present], ej[present], values[present]
    return QuboInstance(L=L, diag=diag, offdiag=offdiag)


def qubo_energy(q: QuboInstance, x) -> float:
    """Evaluate sum_i Q_ii x_i + sum_{i<j} Q_ij x_i x_j for binary x by the Ising row formula."""
    x = np.asarray(x)
    if x.shape != (q.L,):
        raise ValueError(f"assignment length {x.shape} does not match L={q.L}")
    if not np.all((x == 0) | (x == 1)):
        raise ValueError("assignment entries must be 0 or 1")
    return float(_batch_energies(x[None], q.diag, *q.offdiag, 0.0)[0])


def _batch_energies(spins: np.ndarray, h, ei, ej, jv, offset) -> np.ndarray:
    """Energies of C-order spin rows; a row's value does not depend on the other rows.

    The coupler terms are formed and summed for row blocks of about ENERGY_BLOCK_TERMS
    terms, so memory does not grow with the number of rows.
    """
    e = (spins * h).sum(axis=1) + offset
    if len(jv):
        rows = max(1, ENERGY_BLOCK_TERMS // len(jv))
        for r in range(0, len(spins), rows):
            s = spins[r:r + rows]
            e[r:r + rows] += (s.take(ei, axis=1) * s.take(ej, axis=1) * jv).sum(axis=1)
    return e


def ising_energy(m: IsingModel, s) -> float:
    """Evaluate the Ising energy of a +/-1 spin assignment."""
    s = np.asarray(s)
    if s.shape != (m.n,):
        raise ValueError(f"assignment length {s.shape} does not match n={m.n}")
    if not np.all(np.abs(s) == 1):
        raise ValueError("spin entries must be -1 or +1")
    return float(_batch_energies(s[None, :], m.h, m.ei, m.ej, m.jv, m.offset)[0])


def qubo_to_ising(q: QuboInstance) -> IsingModel:
    """Convert via x_i = (1 + s_i) / 2; energies match for every assignment.

    Each coupler Q_ij / 4 is added to h_i, then h_j, then the offset, in
    (i, j) order, as a loop over the sorted terms would.
    """
    ei, ej, v = q.offdiag
    w, h = v / 4.0, q.diag / 2.0
    np.add.at(h, np.column_stack((ei, ej)).ravel(), np.repeat(w, 2))
    offset = float(np.add.accumulate(np.append(float(np.sum(q.diag)) / 2.0, w))[-1])
    return IsingModel(n=q.L, h=h, J=(ei, ej, w), offset=offset)
