"""Calibration of (sigma_h, sigma_c, kappa) from observed CBF-vs-L curves.

Exhaustive grid search minimizing the sum of squared errors between
observed chain-break fractions and the closed-form prediction. The grid
is small (4864 triples by default) so the search is vectorized over all
triples at once rather than parallelized.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class GridRange:
    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lo, self.hi, self.step))):
            raise ValueError("grid range needs finite lo, hi and step")
        if self.lo > self.hi:
            raise ValueError("grid range needs lo <= hi")
        if self.step <= 0:
            raise ValueError("grid step must be > 0")

    def values(self) -> np.ndarray:
        count = int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1
        return self.lo + self.step * np.arange(count)


@dataclass
class FitGrid:
    """Search grid; defaults follow the calibration procedure ranges."""

    sigma_h_range: GridRange = field(default_factory=lambda: GridRange(0.005, 0.08, 0.005))
    sigma_c_range: GridRange = field(default_factory=lambda: GridRange(0.005, 0.08, 0.005))
    kappa_range: GridRange = field(default_factory=lambda: GridRange(0.10, 1.00, 0.05))

    def __post_init__(self):
        if self.sigma_h_range.lo < 0 or self.sigma_c_range.lo < 0:
            raise ValueError("sigma grid ranges need lo >= 0")
        if self.kappa_range.lo <= 0:
            raise ValueError("kappa grid range needs lo > 0")

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sh = self.sigma_h_range.values()
        sc = self.sigma_c_range.values()
        kp = self.kappa_range.values()
        if not (len(sh) and len(sc) and len(kp)):
            raise ValueError("empty fit grid")
        return sh, sc, kp


@dataclass
class FitResult:
    sigma_h: float
    sigma_c: float
    kappa: float
    sse: float
    per_L: list[dict]

    def to_dict(self) -> dict:
        return asdict(self)

    def dumps(self) -> str:
        return json.dumps(self.to_dict())


def sse(obs, pred) -> float:
    """Sum of squared errors between paired sequences."""
    obs = np.asarray(obs, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if obs.shape != pred.shape:
        raise ValueError("obs and pred must have equal length")
    if obs.size < 1:
        raise ValueError("need at least one pair")
    return float(np.sum((obs - pred) ** 2))


def _point_lengths(point: dict) -> np.ndarray:
    if "lengths" in point and point["lengths"] is not None:
        lengths = np.asarray(point["lengths"], dtype=np.float64)
    else:
        lengths = np.asarray([point["ell_bar"]], dtype=np.float64)
    if lengths.size == 0 or np.any(lengths < 1):
        raise ValueError("chain lengths must be a nonempty multiset of values >= 1")
    return lengths


def fit_noise_params(observations, grid: FitGrid | None = None,
                     corr_strength: float = 0.0, corr_exponent: float = 0.0) -> FitResult:
    """Exhaustive grid search for the noise triple minimizing the SSE.

    Each observation is a dict with keys L, cbf_obs and either a
    chain-length multiset `lengths` or a mean length `ell_bar`. Ties on
    SSE break to the smallest (sigma_h, sigma_c, kappa) lexicographically.
    """
    observations = list(observations)
    if len(observations) < 3:
        raise ValueError("need at least 3 observation points")
    if corr_strength < 0:
        raise ValueError("corr_strength must be >= 0")
    grid = grid or FitGrid()
    sh, sc, kp = grid.axes()

    per_point = [_point_lengths(p) for p in observations]
    cbf_obs = np.array([float(p["cbf_obs"]) for p in observations])
    if not np.all((cbf_obs >= 0) & (cbf_obs <= 1)):  # NaN fails both
        raise ValueError("every cbf_obs must be a finite value in [0, 1]")
    all_lengths = np.concatenate(per_point)
    uniq, inverse = np.unique(all_lengths, return_inverse=True)

    cbp_table = _cbp_table(sh, sc, uniq, kp, corr_strength, corr_exponent)

    # mean over each point's lengths, summed in order as .mean(axis=2) sums -> (Sh, Sc, P, K),
    # from a length-first copy of the table, whose (Sh, Sc, K) slices are contiguous
    by_length = np.moveaxis(cbp_table, 2, 0).copy()
    offsets = np.cumsum([0] + [len(v) for v in per_point])
    preds = np.stack([sum(by_length[s] for s in inverse[a:b]) / (b - a)
                      for a, b in zip(offsets[:-1], offsets[1:])], axis=2)

    resid = preds - cbf_obs[None, None, :, None]
    total = np.einsum("abpk,abpk->abk", resid, resid)
    # C-order argmin over (sigma_h, sigma_c, kappa) is the lexicographic tie-break
    flat = int(np.argmin(total))
    ih, ic, ik = np.unravel_index(flat, total.shape)
    best_pred = preds[ih, ic, :, ik]
    per_L = [
        {
            "L": int(p["L"]),
            "cbf_obs": float(cbf_obs[i]),
            "cbf_pred": float(best_pred[i]),
            "abs_err": float(abs(cbf_obs[i] - best_pred[i])),
        }
        for i, p in enumerate(observations)
    ]
    return FitResult(
        sigma_h=float(sh[ih]),
        sigma_c=float(sc[ic]),
        kappa=float(kp[ik]),
        sse=float(total[ih, ic, ik]),
        per_L=per_L,
    )


def _cbp_table(sh, sc, lengths, kp, corr_strength=0.0, corr_exponent=0.0) -> np.ndarray:
    """Break probability over the (sigma_h, sigma_c, length, kappa) grid.

    Var depends on (sigma_h, sigma_c, length) only; kappa enters through
    the erfc argument, so the table is a 4-d broadcast. A zero-variance
    cell gets cbp 0, as in analytics.cbp.
    """
    var = (lengths[None, None, :] * (sh**2)[:, None, None]
           + (lengths[None, None, :] - 1.0) * (sc**2)[None, :, None])
    if corr_strength:
        var = var + corr_strength * lengths[None, None, :] ** corr_exponent
    with np.errstate(divide="ignore"):
        arg = kp[None, None, None, :] / np.sqrt(2.0 * var)[:, :, :, None]
    # math.erfc is the erfc of analytics.cbp; mapping it over a flat list
    # beats np.frompyfunc, which boxes every result in an object array
    return np.fromiter(map(math.erfc, arg.ravel().tolist()), np.float64, arg.size).reshape(arg.shape)


def fit_report(fr: FitResult) -> str:
    """Table-style CSV: header, one row per L, 12 significant digits."""
    lines = ["L,cbf_obs,cbf_pred,abs_err"]
    for row in fr.per_L:
        lines.append(f"{row['L']},{row['cbf_obs']:.12g},{row['cbf_pred']:.12g},{row['abs_err']:.12g}")
    return "\n".join(lines) + "\n"


def read_observations_csv(text: str, lengths_by_L: dict | None = None) -> list[dict]:
    """Parse an observations CSV "L,cbf_obs"; attach per-L chain lengths.

    Each point needs either an entry in lengths_by_L or an ell_bar
    column in the CSV.
    """
    import csv
    import io

    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty observations CSV")
    out = []
    for row in rows:
        L = int(row["L"])
        point = {"L": L, "cbf_obs": float(row["cbf_obs"])}
        if lengths_by_L is not None and L in lengths_by_L:
            point["lengths"] = list(lengths_by_L[L])
        elif "ell_bar" in row and row["ell_bar"]:
            point["ell_bar"] = float(row["ell_bar"])
        else:
            raise ValueError(f"no chain lengths or ell_bar for L={L}")
        out.append(point)
    return out


def read_lengths_json(text: str) -> dict[int, list[int]]:
    """Parse the optional lengths JSON {"L": [lengths...]}."""
    raw = json.loads(text)
    return {int(k): [int(v) for v in vals] for k, vals in raw.items()}
