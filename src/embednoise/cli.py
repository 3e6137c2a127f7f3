"""Command-line harness for the chain-break experiments.

Every subcommand is deterministic given its configuration (seed
included), emits CSV/JSON only, and writes nothing outside the chosen
output directory. Plotting is left to external tools; the column
schemas are documented in the README.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ._integral import integral
from .analytics import cbf_predict, critical_chain_strength, power_law_fit
from .embedding import ChainLengthModel, _check_chain_strength, fit_linear, synth_chain_lengths
from .fitting import FitGrid, GridRange, fit_noise_params, fit_report, read_lengths_json, read_observations_csv
from .noise import NoiseModel
from .problem import generate_random_qubo, qubo_to_ising
from .rng import substream
from .sampler import (AnnealSchedule, _cpu_map, brute_force, margin_errors, margin_model_run,
                      simulated_anneal, synthetic_hardware_run)
from .topology import build_zephyr, degree_histogram

OUT_ENV = "EMBEDNOISE_OUT"

DEFAULTS = {
    "L_sweep": {"start": 5, "stop": 100, "step": 5},
    "ell_sweep": {"start": 3, "stop": 30, "step": 1},
    "bench_L": [5, 10, 15, 20],
    "reads": 2000,
    "seed": 0,
    "k": 0.35,
    "bench_k": 2.0,
    "k_values": {"start": 0.1, "stop": 1.0, "step": 0.05},
    "taus": [0.01, 0.02, 0.05],
    "eta": 1.0,
    "density": 0.5,
    "noise": {"sigma_h": 0.06, "sigma_c": 0.005,
              "corr_strength": 0.0, "corr_exponent": 0.0},
    "chain_length": {"slope": 0.122, "intercept": 1.0, "jitter": 0},
    "contour_tau": 0.02,
    "sweeps": 128,
    "grid": {axis: asdict(getattr(FitGrid(), f"{axis}_range"))
             for axis in ("sigma_h", "sigma_c", "kappa")},
    "out": None,
}


def _grid_range(key: str, lo, hi, step) -> GridRange:
    """GridRange(lo, hi, step), whose errors name the config key."""
    try:
        return GridRange(lo, hi, step)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _sweep_values(cfg: dict, key: str) -> list:
    """A list sweep cfg[key] as given, or start..stop by step, rounded to 10 digits;
    ValueError on an empty list."""
    spec = cfg[key]
    if not isinstance(spec, dict):
        if not len(spec):
            raise ValueError(f"{key}: needs at least one value")
        return list(spec)
    if spec["step"] <= 0:
        raise ValueError(f"{key}: sweep step must be > 0, got {spec['step']}")
    values = _grid_range(key, spec["start"], spec["stop"], spec["step"]).values()
    return [round(x, 10) for x in values.tolist()]


def _merge(base: dict, override: dict, where: str = "") -> None:
    """Deep-merge `override` into `base`, rejecting keys that `base` lacks, a
    scalar where `base` holds a list or a sweep, and a non-object where it
    holds an object."""
    for key, val in override.items():
        if key not in base:
            raise ValueError(f"unknown config key {where + key!r}")
        default, name = base[key], where + key
        if isinstance(default, list) or isinstance(default, dict) and "start" in default:
            if not isinstance(val, (list, dict)):  # a list, or a start..stop sweep
                raise ValueError(f"config key {name!r} takes a list, got {val!r}")
        elif isinstance(default, dict) and not isinstance(val, dict):
            if (name, val) != ("grid", None):  # fit reads a null grid as the default grid
                raise ValueError(f"config key {name!r} takes an object, got {val!r}")
        if isinstance(default, dict) and isinstance(val, dict):
            _merge(default, val, f"{name}.")
        else:
            base[key] = val


def _load_config(args) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if args.config:
        with open(args.config) as f:
            _merge(cfg, json.load(f))
    for key in ("seed", "reads", "out"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["seed"], cfg["reads"] = (integral(k, cfg[k], lo) for k, lo in (("seed", 0), ("reads", 1)))
    return cfg


def _out_dir(cfg) -> Path:
    out = cfg.get("out") or os.environ.get(OUT_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, text: str):
    path.write_text(text)
    print(f"wrote {path}")


def _point_seed(seed: int, tag: str, value) -> int:
    return int(substream(seed, tag, int(round(value * 1000))).integers(1 << 31))


def cmd_chainlen(cfg) -> int:
    model = ChainLengthModel(**cfg["chain_length"])
    Ls = integral("L_sweep: values", _sweep_values(cfg, "L_sweep")).tolist()
    means = [float(np.mean(synth_chain_lengths(L, model, cfg["seed"]))) for L in Ls]
    lines = ["L,mean_chain_len"]
    lines += [f"{L},{m:.12g}" for L, m in zip(Ls, means)]
    out = _out_dir(cfg)
    _write(out / "chainlen.csv", "\n".join(lines) + "\n")
    fit = fit_linear(np.asarray(Ls, dtype=float), np.asarray(means))
    _write(out / "chainlen_fit.json", json.dumps(fit, indent=2) + "\n")
    print(f"slope={fit['slope']:.6g} intercept={fit['intercept']:.6g} R2={fit['r_squared']:.6g}")
    return 0


def cmd_cbf_curve(cfg) -> int:
    model, nm = ChainLengthModel(**cfg["chain_length"]), NoiseModel(**cfg["noise"])
    k, eta = cfg["k"], cfg["eta"]
    Ls = integral("L_sweep: values", _sweep_values(cfg, "L_sweep")).tolist()

    def point(L):
        lengths = synth_chain_lengths(L, model, cfg["seed"])
        obs = float(np.mean(margin_model_run(  # raises unless k > 0 and eta in (0, 1]
            lengths, k, eta, nm, cfg["reads"], _point_seed(cfg["seed"], "cbf-curve", L))))
        return lengths, obs, cbf_predict(lengths, nm, eta * k)

    points = _cpu_map(point, Ls)
    lines = ["L,cbf_obs,cbf_pred"]
    lines += [f"{L},{obs:.12g},{pred:.12g}" for L, (_, obs, pred) in zip(Ls, points)]
    lengths_map = {L: [int(v) for v in lengths] for L, (lengths, _, _) in zip(Ls, points)}
    out = _out_dir(cfg)
    _write(out / "cbf_curve.csv", "\n".join(lines) + "\n")
    _write(out / "cbf_curve_lengths.json", json.dumps(lengths_map) + "\n")
    return 0


def cmd_fit(cfg, observations_path: str, lengths_path: str | None) -> int:
    lengths_by_L = None
    if lengths_path:
        lengths_by_L = read_lengths_json(Path(lengths_path).read_text())
    obs = read_observations_csv(Path(observations_path).read_text(), lengths_by_L)
    grid = FitGrid(**{f"{axis}_range": _grid_range(f"grid.{axis}", **r)
                      for axis, r in (cfg["grid"] or {}).items()})
    fr = fit_noise_params(obs, grid,
                          corr_strength=cfg["noise"]["corr_strength"],
                          corr_exponent=cfg["noise"]["corr_exponent"])
    out = _out_dir(cfg)
    _write(out / "fit_result.json", fr.dumps() + "\n")
    _write(out / "fit_report.csv", fit_report(fr))
    print(f"sigma_h={fr.sigma_h:.6g} sigma_c={fr.sigma_c:.6g} "
          f"kappa={fr.kappa:.6g} sse={fr.sse:.6g}")
    return 0


def _kstar_of_draws(mags: np.ndarray, tau: float, eta: float) -> float:
    """Smallest k with at most a tau share of the |delta| in `mags` above eta * k.

    With m the most reads that may break (the largest m with m / reads <= tau),
    that is the (reads - m)-th smallest |delta| over eta: an exact order statistic.
    Zero noise gives 0.0, the infimum of the chain strengths that break nothing.
    """
    if not (0.0 < tau < 1.0):
        raise ValueError("tau must lie in (0, 1)")
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must lie in (0, 1]")
    reads = len(mags)
    m = int(tau * reads)
    m += (m + 1) / reads <= tau  # match the float test count / reads <= tau
    m -= m / reads > tau
    return float(np.partition(mags, reads - m - 1)[reads - m - 1]) / eta


def cmd_kstar(cfg, empirical: bool = False) -> int:
    nm = NoiseModel(**cfg["noise"])
    eta = cfg["eta"]
    ells = integral("ell_sweep: values", _sweep_values(cfg, "ell_sweep")).tolist()
    taus = _sweep_values(cfg, "taus")
    if empirical:  # one draw per length, seeded by the length alone, read at every tau
        draws = _cpu_map(lambda ell: np.abs(margin_errors(
            [ell], nm, cfg["reads"], _point_seed(cfg["seed"], "kstar", ell))[:, 0]), ells)
    lines = ["l,k_star,tau"]
    fits = {}
    for tau in taus:
        if empirical:
            ks = [_kstar_of_draws(mags, tau, eta) for mags in draws]
        else:
            ks = critical_chain_strength(ells, nm, tau, eta)
        lines += [f"{ell},{k:.12g},{tau:.12g}" for ell, k in zip(ells, ks)]
        pf = power_law_fit(ells, ks)
        fits[str(tau)] = asdict(pf)
        print(f"tau={tau}: exponent={pf.exponent:.4f} prefactor={pf.prefactor:.4f}")
    out = _out_dir(cfg)
    _write(out / "kstar.csv", "\n".join(lines) + "\n")
    _write(out / "kstar_fits.json", json.dumps(fits, indent=2) + "\n")
    return 0


def cmd_heatmap(cfg) -> int:
    nm, model = NoiseModel(**cfg["noise"]), ChainLengthModel(**cfg["chain_length"])
    eta, tau = cfg["eta"], cfg["contour_tau"]
    Ls = integral("L_sweep: values", _sweep_values(cfg, "L_sweep")).tolist()
    ks = [float(v) for v in _sweep_values(cfg, "k_values")]
    if not (all(a < b for a, b in zip([0.0] + ks, ks)) and 0.0 < eta <= 1.0):  # 0 < k_1 < k_2 < ...
        raise ValueError("heatmap needs strictly increasing k values, k > 0 and eta in (0, 1]")
    for k in ks:  # the ordering check lets an infinite k through
        _check_chain_strength(k)
    if not 0.0 < tau < 1.0:  # NaN included
        raise ValueError(f"contour_tau must lie in (0, 1), got {tau}")

    def cbf_row(L):  # every k shares the draws of L, freed when its row is done
        mags = margin_errors(synth_chain_lengths(L, model, cfg["seed"]), nm, cfg["reads"],
                             _point_seed(cfg["seed"], "heatmap", L))
        np.abs(mags, out=mags)
        return [np.count_nonzero(mags > eta * k) / mags.size for k in ks]

    lines = ["L,k,cbf_mean"]
    contour = ["L,k_star_empirical"]
    for L, row in zip(Ls, _cpu_map(cbf_row, Ls)):
        lines += [f"{L},{k:.12g},{cbf:.12g}" for k, cbf in zip(ks, row)]
        # smallest k reaching cbf <= tau, linearly interpolated on the k grid
        for j in range(1, len(ks)):
            if row[j] <= tau < row[j - 1]:
                frac = (row[j - 1] - tau) / (row[j - 1] - row[j])
                contour.append(f"{L},{ks[j - 1] + frac * (ks[j] - ks[j - 1]):.12g}")
                break
        else:
            if row and row[0] <= tau:
                contour.append(f"{L},{ks[0]:.12g}")
    out = _out_dir(cfg)
    _write(out / "heatmap.csv", "\n".join(lines) + "\n")
    _write(out / "heatmap_contour.csv", "\n".join(contour) + "\n")
    return 0


def cmd_bench(cfg) -> int:
    nm, model = NoiseModel(**cfg["noise"]), ChainLengthModel(**cfg["chain_length"])
    schedule, reads, seed = AnnealSchedule(sweeps=cfg["sweeps"]), cfg["reads"], cfg["seed"]
    lines = ["L,solver,E_min,seconds"]
    for L in integral("bench_L: values", _sweep_values(cfg, "bench_L")).tolist():
        q = generate_random_qubo(L, cfg["density"], seed)
        ising = qubo_to_ising(q)
        for solver, e_min in (
                ("brute_force", lambda: brute_force(ising)["best_energy"]),
                ("sa", lambda: simulated_anneal(ising, reads, schedule, seed=seed).energies.min()),
                ("synthetic", lambda: synthetic_hardware_run(
                    q, model, cfg["bench_k"], nm, schedule, reads, seed)[1].energies.min())):
            t0 = time.perf_counter()
            e = float(e_min())
            lines.append(f"{L},{solver},{e:.12g},{time.perf_counter() - t0:.6g}")
    out = _out_dir(cfg)
    _write(out / "bench.csv", "\n".join(lines) + "\n")
    return 0


def cmd_zephyr(cfg, m: int, t: int) -> int:
    g = build_zephyr(m, t)
    out = _out_dir(cfg)
    _write(out / f"zephyr_{m}_{t}.json", g.dumps() + "\n")
    _write(out / f"zephyr_{m}_{t}_edges.txt", g.to_edgelist())
    hist = degree_histogram(g)
    _write(out / f"zephyr_{m}_{t}_degrees.json",
           json.dumps({str(k): v for k, v in sorted(hist.items())}, indent=2) + "\n")
    print(f"Z({m},{t}): {len(g)} vertices, {len(g.edges)} edges")
    return 0


def cmd_repro(cfg) -> int:
    rc = cmd_chainlen(cfg)
    rc = rc or cmd_cbf_curve(cfg)
    out = _out_dir(cfg)
    rc = rc or cmd_fit(cfg, str(out / "cbf_curve.csv"),
                       str(out / "cbf_curve_lengths.json"))
    rc = rc or cmd_kstar(cfg)
    return rc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, built once per process; each sets `run(cfg, args)`,
    which looks its cmd_* up by module-global name when called."""
    parser = argparse.ArgumentParser(
        prog="embednoise",
        description="Chain-break simulation and calibration experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUT_ENV} or cwd)")
        p.add_argument("--reads", type=int, default=None)
        p.set_defaults(run=run)
        return p

    command("chainlen", "chain-length vs L curve and linear fit",
            lambda cfg, a: cmd_chainlen(cfg))
    command("cbf-curve", "observed vs predicted CBF per L", lambda cfg, a: cmd_cbf_curve(cfg))
    p = command("fit", "grid-search noise calibration",
                lambda cfg, a: cmd_fit(cfg, a.observations, a.lengths))
    p.add_argument("observations", help="CSV with header L,cbf_obs")
    p.add_argument("--lengths", default=None, help="JSON {L: [chain lengths]}")
    p = command("kstar", "critical chain strength sweep",
                lambda cfg, a: cmd_kstar(cfg, empirical=a.empirical))
    p.add_argument("--empirical", action="store_true",
                   help="order statistic of margin-model draws instead of the closed form")
    command("heatmap", "mean CBF over the (L, k) plane", lambda cfg, a: cmd_heatmap(cfg))
    command("bench", "solver comparison at desk scale", lambda cfg, a: cmd_bench(cfg))
    p = command("zephyr", "emit a Zephyr graph fixture", lambda cfg, a: cmd_zephyr(cfg, a.m, a.t))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, default=4)
    command("repro", "chainlen -> cbf-curve -> fit -> kstar", lambda cfg, a: cmd_repro(cfg))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(_load_config(args), args)
    except Exception as exc:  # argparse handles its own errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
