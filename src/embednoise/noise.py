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

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .problem import IsingModel


@dataclass
class NoiseModel:
    sigma_h: float
    sigma_c: float
    corr_strength: float = 0.0
    corr_exponent: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.sigma_h, self.sigma_c,
                                       self.corr_strength, self.corr_exponent))):
            raise ValueError("noise fields must be finite")
        if self.sigma_h < 0 or self.sigma_c < 0 or self.corr_strength < 0:
            raise ValueError("noise widths must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    def dumps(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseModel":
        return cls(
            sigma_h=float(d["sigma_h"]),
            sigma_c=float(d["sigma_c"]),
            corr_strength=float(d.get("corr_strength", 0.0)),
            corr_exponent=float(d.get("corr_exponent", 0.0)),
        )


def variance_law(ell, nm: NoiseModel) -> float:
    """Variance of the accumulated chain error at (real-valued) length ell."""
    ell = float(ell)
    if ell < 1:
        raise ValueError("chain length must be >= 1")
    var = ell * nm.sigma_h**2 + (ell - 1.0) * nm.sigma_c**2
    if nm.corr_strength > 0:
        var += nm.corr_strength * ell**nm.corr_exponent
    return var


def chain_error_sample(ell: int, nm: NoiseModel, stream: np.random.Generator, size=None):
    """Draw the accumulated error of one chain (or `size` i.i.d. copies).

    Built literally as the sum of ell field draws and ell-1 coupler
    draws, plus one correlated draw when corr_strength > 0.
    """
    if ell < 1:
        raise ValueError("chain length must be >= 1")
    shape = () if size is None else (size,)
    total = np.zeros(shape)
    for _ in range(int(ell)):
        total = total + stream.normal(0.0, nm.sigma_h, size=size)
    for _ in range(int(ell) - 1):
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


def perturb_hamiltonian(emb, nm: NoiseModel, stream: np.random.Generator):
    """Return a copy of an EmbeddedIsing with every programmed coefficient perturbed.

    All physical fields receive N(0, sigma_h^2) deviations and all
    physical couplers (intra- and inter-chain) receive N(0, sigma_c^2),
    deterministically for a given stream state.
    """
    m = emb.model
    dh, dj = control_errors(m, nm, stream)
    return replace(emb, model=IsingModel(m.n, m.h + dh, (m.ei, m.ej, m.jv + dj), m.offset))
