"""The benchmark's three workloads, one per engine the paper's claims rest on.

Each workload builds its inputs from the seed in `setup`, runs batch
number `index` in `batch(index)` and checks its outputs in
`check(index, out, checks)`. Program functions are looked up on their
modules at call time so that the tracer's wrappers see the calls.

The statistical tolerances are stated in z-scores of the quantity's own
sampling error, so a change of random streams that keeps the model
intact does not trip them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

Z_TOL = 5.0  # z-score tolerance of every statistical check
ENERGY_TOL = 1e-9
TTS_TARGET = 0.99
PARITY_READS_PER_BACKEND = 200  # reads compared bit for bit across kernel backends
SYNTHETIC_READS_PER_BACKEND = 4


class Checks:
    """Counts checks attempted and keeps a line for each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def expect(self, ok, what: str):
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def reads_to_target(p: float) -> float:
    """Reads needed to see a success with probability TTS_TARGET (at least one)."""
    if p >= 1.0:
        return 1.0
    if p <= 0.0:
        return math.inf
    return max(1.0, math.log(1.0 - TTS_TARGET) / math.log(1.0 - p))


class Parity:
    """Exact oracle then SA on dense L=20 logical QUBOs (criterion 8's shape).

    Batch `index` runs instance `index % count` with a fresh SA seed, so
    each instance's ground-state share pools the reads of all its batches.
    """

    name = "parity"

    def __init__(self, en, seed: int, smoke: bool, workdir: Path):
        self.en, self.seed = en, seed
        self.L, self.count, self.reads = (8, 2, 200) if smoke else (20, 3, 2000)
        self.min_batches = self.count

    def _derive(self, *key: int) -> int:
        return int(np.random.SeedSequence([self.seed, *key]).generate_state(1)[0])

    def setup(self):
        problem = self.en.problem
        self.models = [problem.qubo_to_ising(problem.generate_random_qubo(self.L, 1.0, self._derive(0, i)))
                       for i in range(self.count)]

    def batch(self, index: int):
        sampler, model = self.en.sampler, self.models[index % self.count]
        oracle = sampler.brute_force(model)
        t0 = time.perf_counter()
        ss = sampler.simulated_anneal(model, self.reads, seed=self._derive(1, index))
        return oracle, ss, time.perf_counter() - t0

    @staticmethod
    def _hits(oracle, ss) -> int:
        return int(np.count_nonzero(np.abs(ss.energies - oracle["best_energy"]) <= ENERGY_TOL))

    def tts99(self, runs) -> float:
        """SA time per read x geometric mean over instances of reads to hit the oracle at 99%.

        The instances share one coupling structure (dense, n = L), so the
        time per read is the median over all batches; each instance's
        ground-state share pools the reads of all its batches.
        """
        hits, reads = defaultdict(int), defaultdict(int)
        for index, (oracle, ss, _), _ in runs:
            hits[index % self.count] += self._hits(oracle, ss)
            reads[index % self.count] += ss.num_reads
        per_read = statistics.median(sa_s / ss.num_reads for _, (_, ss, sa_s), _ in runs)
        logs = [math.log(reads_to_target(hits[i] / reads[i])) for i in reads]
        return per_read * math.exp(sum(logs) / len(logs))

    def layer_extras(self, out):
        oracle, ss, _ = out
        return {"ground_state_share": self._hits(oracle, ss) / ss.num_reads}

    def check(self, index: int, out, checks: Checks):
        energy = self.en.problem.ising_energy
        model = self.models[index % self.count]
        oracle, ss, _ = out
        e0 = oracle["best_energy"]
        checks.expect(abs(energy(model, oracle["best_spins"]) - e0) <= ENERGY_TOL,
                      f"parity batch {index}: oracle spins do not have the oracle energy")
        checks.expect(abs(float(ss.energies.min()) - e0) <= ENERGY_TOL,
                      f"parity batch {index}: SA minimum {ss.energies.min():.12g} != oracle {e0:.12g}")
        _, rows = np.unique(ss.spins, axis=0, return_index=True)
        dev = max(abs(energy(model, ss.spins[r]) - ss.energies[r]) for r in rows)
        checks.expect(dev <= ENERGY_TOL,
                      f"parity batch {index}: sampled energies differ from ising_energy by {dev:.3g}")

    def backend_parity(self, backends, checks: Checks):
        runs = [self.en.sampler.simulated_anneal(self.models[0], PARITY_READS_PER_BACKEND,
                                                 seed=self._derive(1, 0), backend=b).spins
                for b in backends]
        checks.expect(all(np.array_equal(runs[0], r) for r in runs[1:]),
                      f"parity: kernel backends {backends} disagree")


class Repeated:
    """Every batch runs the same inputs: the first is checked in full and
    each later one must reproduce it bit for bit."""

    min_batches = 2
    _first = None

    def layer_extras(self, out):
        return {}

    def tts99(self, runs) -> float:
        """No solution target: 0."""
        return 0.0

    def check(self, index: int, out, checks: Checks):
        if self._first is None:
            self._first = out
            self.check_outputs(out, checks)
        else:
            checks.expect(self.same(self._first, out),
                          f"{self.name}: batch {index} differs from the first batch")


class Synthetic(Repeated):
    """SA on ICE-perturbed embedded Hamiltonians: L=60 dense, n=480 physical spins.

    Chain heads carry every inter-chain edge, so the kernel's padded
    neighbour table is 60 wide against a mean degree of 9.1.
    """

    name = "synthetic"
    CHAIN_STRENGTH = 2.0  # the README's synthetic-hardware example and `bench` default
    NOISE = (0.06, 0.005)
    SLOPE = 0.122

    def __init__(self, en, seed: int, smoke: bool, workdir: Path):
        self.en, self.seed = en, seed
        self.L, self.reads = (8, 8) if smoke else (60, 40)

    def setup(self):
        en = self.en
        self.q = en.problem.generate_random_qubo(self.L, 1.0, seed=self.seed)
        self.chain_model = en.embedding.ChainLengthModel(slope=self.SLOPE)
        self.nm = en.noise.NoiseModel(*self.NOISE)

    def batch(self, index: int, backend=None, reads=None):
        return self.en.sampler.synthetic_hardware_run(
            self.q, self.chain_model, k=self.CHAIN_STRENGTH, nm=self.nm,
            reads=reads or self.reads, seed=self.seed, backend=backend)

    def check_outputs(self, out, checks: Checks):
        en = self.en
        physical, resolved = out
        logical = en.problem.qubo_to_ising(self.q)
        lengths = en.embedding.synth_chain_lengths(self.L, self.chain_model, self.seed)
        emb = en.embedding.build_embedded_ising(logical, lengths, self.CHAIN_STRENGTH)
        chains = emb.embedding.chains
        energy = en.problem.ising_energy
        for r in range(physical.num_reads):
            dev = abs(energy(emb.model, physical.spins[r]) - physical.energies[r])
            checks.expect(dev <= ENERGY_TOL, f"synthetic read {r}: physical energy off by {dev:.3g}")
            dev = abs(energy(logical, resolved.spins[r]) - resolved.energies[r])
            checks.expect(dev <= ENERGY_TOL, f"synthetic read {r}: resolved energy off by {dev:.3g}")
            cbf = en.sampler.detect_breaks(physical.spins[r], chains)["cbf"]
            checks.expect(cbf == physical.cbf[r] == resolved.cbf[r],
                          f"synthetic read {r}: CBF {physical.cbf[r]} != detect_breaks {cbf}")

    def same(self, a, b) -> bool:
        return all(np.array_equal(x.spins, y.spins) and np.array_equal(x.energies, y.energies)
                   and np.array_equal(x.cbf, y.cbf) for x, y in zip(a, b))

    def backend_parity(self, backends, checks: Checks):
        runs = [self.batch(0, backend=b, reads=SYNTHETIC_READS_PER_BACKEND)[0].spins for b in backends]
        checks.expect(all(np.array_equal(runs[0], r) for r in runs[1:]),
                      f"synthetic: kernel backends {backends} disagree")


# The CLI defaults with the L and chain-length sweeps thinned about
# fourfold each (L 5..100 step 5 -> 25..100 step 25, l 3..30 step 1 ->
# step 4), so that one pipeline takes a few seconds. The k grid is the
# default one, so heatmap still reruns the model for 19 k on each length
# set, and each command keeps about its default share of the time.
CALIBRATE_CONFIG = {
    "L_sweep": {"start": 25, "stop": 100, "step": 25},
    "ell_sweep": {"start": 3, "stop": 30, "step": 4},
    "k_values": {"start": 0.1, "stop": 1.0, "step": 0.05},
    "reads": 2000,
    "k": 0.35,
    "eta": 1.0,
    "taus": [0.01, 0.02, 0.05],
    "contour_tau": 0.02,
    "noise": {"sigma_h": 0.06, "sigma_c": 0.005, "corr_strength": 0.0, "corr_exponent": 0.0},
    "chain_length": {"slope": 0.122, "intercept": 1.0, "jitter": 0},
}
CALIBRATE_SMOKE = dict(CALIBRATE_CONFIG,
                       L_sweep={"start": 10, "stop": 30, "step": 10},
                       ell_sweep={"start": 3, "stop": 9, "step": 3},
                       k_values={"start": 0.2, "stop": 0.6, "step": 0.2},
                       reads=500, taus=[0.05])

# output file -> CSV header from the README's schemas (None: a JSON file)
CALIBRATE_OUTPUTS = {
    "cbf_curve.csv": "L,cbf_obs,cbf_pred",
    "cbf_curve_lengths.json": None,
    "fit_result.json": None,
    "fit_report.csv": "L,cbf_obs,cbf_pred,abs_err",
    "kstar.csv": "l,k_star,tau",
    "kstar_fits.json": None,
    "heatmap.csv": "L,k,cbf_mean",
    "heatmap_contour.csv": "L,k_star_empirical",
}


def _sweep(spec) -> list[float]:
    count = int(math.floor((spec["stop"] - spec["start"]) / spec["step"] + 1e-9)) + 1
    return [round(spec["start"] + i * spec["step"], 10) for i in range(count)]


def _rows(text: str) -> tuple[str, list[list[float]]]:
    lines = text.strip().splitlines()
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


class Calibrate(Repeated):
    """The CLI pipeline in-process: cbf-curve -> fit -> kstar --empirical -> heatmap."""

    name = "calibrate"

    def __init__(self, en, seed: int, smoke: bool, workdir: Path):
        self.en, self.seed = en, seed
        self.cfg = CALIBRATE_SMOKE if smoke else CALIBRATE_CONFIG
        self.workdir = workdir

    def setup(self):
        self.out = self.workdir / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        cfg_path = self.workdir / "config.json"
        cfg_path.write_text(json.dumps(self.cfg))
        common = ["--config", str(cfg_path), "--seed", str(self.seed), "--out", str(self.out)]
        self.commands = [
            ["cbf-curve"] + common,
            ["fit", str(self.out / "cbf_curve.csv"),
             "--lengths", str(self.out / "cbf_curve_lengths.json")] + common,
            ["kstar", "--empirical"] + common,
            ["heatmap"] + common,
        ]

    def batch(self, index: int):
        cli = self.en.cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in self.commands]
        files = {}
        for name in CALIBRATE_OUTPUTS:
            path = self.out / name
            files[name] = path.read_text() if path.is_file() else None
        return codes, files

    def _closed_form(self, lengths, k) -> tuple[float, float]:
        """Mean cbp over the chains and the standard error of a reads-long CBF estimate."""
        nz = self.cfg["noise"]
        probs = []
        for ell in lengths:
            var = ell * nz["sigma_h"] ** 2 + (ell - 1) * nz["sigma_c"] ** 2
            probs.append(math.erfc(self.cfg["eta"] * k / math.sqrt(2.0 * var)))
        n = len(lengths) * self.cfg["reads"]
        se = math.sqrt(sum(p * (1 - p) for p in probs) / len(probs) / n)
        # one break's worth of slack for predictions so small that se ~ 0
        return sum(probs) / len(probs), Z_TOL * se + 1.0 / n

    def check_outputs(self, out, checks: Checks):
        codes, files = out
        for argv, code in zip(self.commands, codes):
            checks.expect(code == 0, f"calibrate: `{argv[0]}` exited {code}")
        missing = [name for name, text in files.items() if text is None]
        checks.expect(not missing, f"calibrate: outputs not written: {missing}")
        if missing:
            return
        cfg = self.cfg
        Ls, ks, ells = _sweep(cfg["L_sweep"]), _sweep(cfg["k_values"]), _sweep(cfg["ell_sweep"])
        expected_rows = {"cbf_curve.csv": len(Ls), "fit_report.csv": len(Ls),
                         "kstar.csv": len(ells) * len(cfg["taus"]),
                         "heatmap.csv": len(Ls) * len(ks)}
        tables = {}
        for name, header in CALIBRATE_OUTPUTS.items():
            if header is None:
                continue
            got_header, rows = _rows(files[name])
            tables[name] = rows
            want = expected_rows.get(name)
            rows_ok = len(rows) == want if want is not None else 1 <= len(rows) <= len(Ls)
            checks.expect(got_header == header and rows_ok,
                          f"calibrate: {name} has header {got_header!r} and {len(rows)} rows")
        fit = json.loads(files["fit_result.json"])
        checks.expect({"sigma_h", "sigma_c", "kappa", "sse", "per_L"} <= set(fit)
                      and len(fit["per_L"]) == len(Ls), "calibrate: fit_result.json schema")

        lengths = {int(L): v for L, v in json.loads(files["cbf_curve_lengths.json"]).items()}
        for L, obs, pred in tables["cbf_curve.csv"]:
            want, tol = self._closed_form(lengths[int(L)], cfg["k"])
            checks.expect(abs(pred - want) <= 1e-12,
                          f"calibrate: cbf_pred {pred:.12g} at L={L:g} != closed form {want:.12g}")
            checks.expect(abs(obs - pred) <= tol,
                          f"calibrate: cbf_obs {obs:.6g} at L={L:g} outside {Z_TOL} sigma of {pred:.6g}")
        for L, k, cbf in tables["heatmap.csv"]:
            want, tol = self._closed_form(lengths[int(L)], k)
            checks.expect(abs(cbf - want) <= tol,
                          f"calibrate: heatmap cbf {cbf:.6g} at L={L:g}, k={k:g} outside "
                          f"{Z_TOL} sigma of {want:.6g}")

        nm = self.en.noise.NoiseModel(**cfg["noise"])
        critical = self.en.analytics.critical_chain_strength
        for ell, k_emp, tau in tables["kstar.csv"]:
            exact = critical(int(ell), nm, tau, cfg["eta"])
            tol = Z_TOL * self._quantile_rel_se(tau, cfg["reads"])
            checks.expect(abs(k_emp / exact - 1.0) <= tol,
                          f"calibrate: empirical k* {k_emp:.6g} at l={ell:g}, tau={tau:g} "
                          f"not within {tol:.3f} of {exact:.6g}")

    @staticmethod
    def _quantile_rel_se(tau: float, reads: int) -> float:
        """Relative standard error of the empirical (1 - tau) quantile of |N(0, s^2)|."""
        x = statistics.NormalDist().inv_cdf(1.0 - tau / 2.0)
        density = 2.0 * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
        return math.sqrt(tau * (1.0 - tau) / reads) / (density * x)

    def same(self, a, b) -> bool:
        return a == b

    def backend_parity(self, backends, checks: Checks):
        """The calibration pipeline runs no kernel."""


WORKLOADS = {"parity": Parity, "synthetic": Synthetic, "calibrate": Calibrate}
