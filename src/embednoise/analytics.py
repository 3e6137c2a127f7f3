"""Closed-form chain-break predictions and the special functions behind them.

The break probability of a chain of length ell is the Gaussian tail

    cbp(ell) = erfc( kappa / sqrt(2 * Var(ell)) )

with Var(ell) the chain-error variance law and kappa the effective
stabilizing margin. Inverting the tail gives the critical chain strength
k* needed to hold the break probability at a target tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .embedding import fit_linear
from .noise import NoiseModel, variance_law


def erfc(x: float) -> float:
    """Complementary error function (double precision)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("erfc requires a finite argument")
    return math.erfc(x)


def erfc_inv(p: float) -> float:
    """Inverse of erfc on (0, 2): erfc(x) = p at x = -Phi^-1(p / 2) / sqrt(2)."""
    p = float(p)
    if not (0.0 < p < 2.0):
        raise ValueError(f"erfc_inv requires 0 < p < 2, got {p}")
    return -NormalDist().inv_cdf(p / 2.0) / math.sqrt(2.0) + 0.0  # + 0.0: no -0.0 at p = 1


@dataclass
class CbpModel:
    """Noise widths plus effective stabilizing margin kappa = eta * k."""

    noise: NoiseModel
    kappa: float

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")


def cbp(ell, model: CbpModel) -> float:
    """Break probability of a single chain of length ell."""
    var = variance_law(ell, model.noise)
    if var == 0.0:
        return 0.0
    return erfc(model.kappa / math.sqrt(2.0 * var))


def cbf_predict(lengths, model: CbpModel) -> float:
    """Expected chain-break fraction: mean of per-chain break probabilities."""
    lengths = np.atleast_1d(np.asarray(lengths))
    if lengths.size == 0:
        raise ValueError("need at least one chain length")
    return float(np.mean([cbp(ell, model) for ell in lengths]))


def cbp_vs_m(m: int, alpha: float, beta: float, model: CbpModel) -> float:
    """Break probability at grid parameter m, via ell = alpha * m + beta."""
    ell = alpha * m + beta
    if ell < 1:
        raise ValueError(f"alpha*m + beta = {ell} is below the minimum chain length 1")
    return cbp(ell, model)


def critical_chain_strength(ell, nm: NoiseModel, tau: float, eta: float = 1.0) -> float:
    """Chain strength k* with cbp(ell) = tau at margin kappa = eta * k*."""
    if not (0.0 < tau < 1.0):
        raise ValueError("tau must lie in (0, 1)")
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must lie in (0, 1]")
    return math.sqrt(2.0 * variance_law(ell, nm)) * erfc_inv(tau) / eta


@dataclass
class PowerLawFit:
    exponent: float
    prefactor: float
    r_squared: float


def power_law_fit(ells, ks) -> PowerLawFit:
    """Least-squares fit of k = prefactor * ell^exponent on log-log axes."""
    ells = np.asarray(ells, dtype=np.float64)
    ks = np.asarray(ks, dtype=np.float64)
    if np.any(ells <= 0) or np.any(ks <= 0):
        raise ValueError("power-law fit requires strictly positive data")
    fit = fit_linear(np.log(ells), np.log(ks))
    return PowerLawFit(
        exponent=fit["slope"],
        prefactor=float(math.exp(fit["intercept"])),
        r_squared=fit["r_squared"],
    )
