"""Gaussian control-error model and chain-level error aggregation.

Programmed fields and couplers are perturbed by independent zero-mean
Gaussians of width sigma_h and sigma_c. The accumulated error on a chain
of length ell is the sum of ell field errors and ell-1 intra-chain
coupler errors, so its variance is

    Var = ell * sigma_h^2 + (ell - 1) * sigma_c^2 + corr_strength * ell^corr_exponent

where the optional last term models a correlated contribution as a
single extra Gaussian per chain.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._integral import integral


@dataclass
class NoiseModel:
    sigma_h: float
    sigma_c: float
    corr_strength: float = 0.0
    corr_exponent: float = 0.0

    def __post_init__(self):  # each field may be a float or a broadcastable array
        if not all(np.isfinite(v).all() for v in vars(self).values()):
            raise ValueError("noise fields must be finite")
        if not all(np.all(v >= 0) for v in (self.sigma_h, self.sigma_c, self.corr_strength)):
            raise ValueError("noise widths must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


def variance_law(ell, nm: NoiseModel):
    """Variance of the accumulated chain error at (real-valued) lengths ell.

    Broadcasts over ell and the model's fields, on array ufuncs throughout,
    so a scalar ell gets the bits of the matching array element (as a NumPy
    float). Every ell must be finite and >= 1.
    """
    ell = np.asarray(ell, dtype=np.float64)
    if not (np.isfinite(ell) & (ell >= 1)).all():
        raise ValueError("chain length must be finite and >= 1")
    var = ell * np.square(nm.sigma_h) + (ell - 1.0) * np.square(nm.sigma_c)
    if np.count_nonzero(nm.corr_strength):
        var = var + nm.corr_strength * np.power(ell, nm.corr_exponent)
    return var


def chain_error_sample(ell: int, nm: NoiseModel, stream: np.random.Generator, size=None):
    """Draw the accumulated error of one chain (or `size` i.i.d. copies).

    Built literally as the sum of ell field draws and ell-1 coupler
    draws, plus one correlated draw when corr_strength > 0.
    """
    ell = integral("chain length", ell, lo=1)
    shape = () if size is None else (size,)
    total = np.zeros(shape)
    for _ in range(ell):
        total = total + stream.normal(0.0, nm.sigma_h, size=size)
    for _ in range(ell - 1):
        total = total + stream.normal(0.0, nm.sigma_c, size=size)
    if nm.corr_strength > 0:
        width = np.sqrt(nm.corr_strength * float(ell) ** nm.corr_exponent)
        total = total + stream.normal(0.0, width, size=size)
    return float(total) if size is None else total


def control_errors(model, nm: NoiseModel, stream: np.random.Generator, batch: tuple = ()):
    """Gaussian deviations of every programmed field and coupler of an IsingModel.

    Returns (dh, dj) of shapes batch + (n,) and batch + (couplers,), with
    widths sigma_h and sigma_c, drawn as standard normals: all field draws
    first, then all coupler draws, in the model's (i, j) coupler order.
    """
    dh, dj = (stream.normal(0.0, 1.0, size=batch + (m,)) for m in (model.n, len(model.jv)))
    return np.multiply(dh, nm.sigma_h, out=dh), np.multiply(dj, nm.sigma_c, out=dj)
