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

from ._integral import integral
from .analytics import cbp
from .noise import NoiseModel


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


def _point_lengths(point: dict) -> np.ndarray:
    if "lengths" in point and point["lengths"] is not None:
        lengths = np.asarray(point["lengths"], dtype=np.float64)
    else:
        lengths = np.asarray([point["ell_bar"]], dtype=np.float64)
    if lengths.size == 0 or not np.all(np.isfinite(lengths) & (lengths >= 1)):
        raise ValueError("chain lengths must be a nonempty multiset of finite values >= 1")
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
    grid = grid or FitGrid()
    sh, sc, kp = grid.axes()

    per_point = [_point_lengths(p) for p in observations]
    cbf_obs = np.array([float(p["cbf_obs"]) for p in observations])
    if not np.all((cbf_obs >= 0) & (cbf_obs <= 1)):  # NaN fails both
        raise ValueError("every cbf_obs must be a finite value in [0, 1]")
    all_lengths = np.concatenate(per_point)
    uniq, inverse = np.unique(all_lengths, return_inverse=True)

    # break probability over the (sigma_h, sigma_c, length, kappa) grid
    nm = NoiseModel(sh[:, None, None, None], sc[None, :, None, None], corr_strength, corr_exponent)
    cbp_table = cbp(uniq[None, None, :, None], nm, kp)

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
            "L": integral("L", p["L"]),
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

    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise ValueError("empty observations CSV")
    for column in ("L", "cbf_obs"):
        if column not in reader.fieldnames:
            raise ValueError(f"observations CSV has no {column!r} column (header L,cbf_obs)")

    def cell(line, row, column, kind):
        try:
            return kind(row[column])
        except (TypeError, ValueError):  # TypeError: None, a cell the row lacks
            raise ValueError(f"observations CSV line {line}, column {column!r}: expected "
                             f"{'a number' if kind is float else 'an integer'}, got "
                             f"{row[column]!r}") from None

    out = []
    for line, row in enumerate(rows, start=2):  # line 1 is the header
        L = cell(line, row, "L", lambda s: integral("L", s, text=True))
        point = {"L": L, "cbf_obs": cell(line, row, "cbf_obs", float)}
        if lengths_by_L is not None and L in lengths_by_L:
            point["lengths"] = list(lengths_by_L[L])
        elif "ell_bar" in row and row["ell_bar"]:
            point["ell_bar"] = cell(line, row, "ell_bar", float)
        else:
            raise ValueError(f"no chain lengths or ell_bar for L={L}")
        out.append(point)
    return out


def read_lengths_json(text: str) -> dict[int, list[int]]:
    """Parse the optional lengths JSON {"L": [lengths...]}; ValueError, naming the L, unless
    every key is an integer L >= 1 that no other key names ("10", "10.0" and "010" are one L)
    and every value is a flat, nonempty list of integer lengths >= 1 (3.0 counts as 3)."""
    objects = []  # each JSON object's (key, value) pairs, the outermost last
    data = json.loads(text, object_pairs_hook=lambda pairs: objects.append(pairs) or dict(pairs))
    if not isinstance(data, dict):
        raise ValueError(f'lengths JSON must be {{"L": [lengths]}}, got a {type(data).__name__}')
    keys, lengths = {}, {}
    for key, vals in objects[-1]:
        L = integral("lengths JSON key", key, text=True)
        if L < 1:
            raise ValueError(f"lengths JSON key must be an L >= 1, got {key!r}")
        if L in keys:
            raise ValueError(f"lengths JSON keys {keys[L]!r} and {key!r} both name L={L}")
        if not isinstance(vals, list):
            raise ValueError(f'lengths JSON must be {{"L": [lengths]}}; L={key} holds {vals!r}')
        if not vals or any(isinstance(v, list) for v in vals):
            raise ValueError(f"L={key}: chain lengths must be a flat, nonempty list, got {vals!r}")
        ints = integral(f"L={key}: chain lengths", vals)
        if ints.min() < 1:
            raise ValueError(f"L={key}: chain lengths must be >= 1, got {ints[ints < 1][0]}")
        keys[L], lengths[L] = key, ints.tolist()
    return lengths
