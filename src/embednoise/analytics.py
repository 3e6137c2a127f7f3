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


def erfc_inv(p: float) -> float:
    """Inverse of erfc on (0, 2): erfc(x) = p at x = -Phi^-1(p / 2) / sqrt(2)."""
    p = float(p)
    if not (0.0 < p < 2.0):
        raise ValueError(f"erfc_inv requires 0 < p < 2, got {p}")
    return -NormalDist().inv_cdf(p / 2.0) / math.sqrt(2.0) + 0.0  # + 0.0: no -0.0 at p = 1


def cbp(ell, nm: NoiseModel, kappa):
    """Break probability of chains of length ell at the effective margin kappa = eta * k;
    broadcasts over ell, the widths and kappa, which must be > 0 and finite.

    A zero-variance cell gets the argument kappa / 0 = inf, so cbp 0.
    """
    if not np.all(np.isfinite(kappa) & np.greater(kappa, 0)):
        raise ValueError("kappa must be > 0 and finite")
    with np.errstate(divide="ignore"):
        arg = np.asarray(kappa / np.sqrt(2.0 * variance_law(ell, nm)))
    # math.erfc mapped over a flat list beats np.frompyfunc, which boxes every result
    out = np.fromiter(map(math.erfc, arg.ravel().tolist()), np.float64, arg.size)
    return out.reshape(arg.shape)[()]


def cbf_predict(lengths, nm: NoiseModel, kappa) -> float:
    """Expected chain-break fraction: mean of per-chain break probabilities."""
    if np.size(lengths) == 0:
        raise ValueError("need at least one chain length")
    return float(np.mean(cbp(lengths, nm, kappa)))


def critical_chain_strength(ell, nm: NoiseModel, tau: float, eta: float = 1.0):
    """Chain strength k* with cbp(ell) = tau at margin kappa = eta * k*; broadcasts over ell."""
    if not (0.0 < tau < 1.0):
        raise ValueError("tau must lie in (0, 1)")
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must lie in (0, 1]")
    return np.sqrt(2.0 * variance_law(ell, nm)) * erfc_inv(tau) / eta


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
