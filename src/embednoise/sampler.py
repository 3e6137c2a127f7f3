"""Monte Carlo engines: simulated annealing, exhaustive search, margin-model
chain-break sampling and the synthetic-hardware pipeline.

The annealer draws its initial spins and per-read visit permutations up
front and its acceptance uniforms block by block, all from named
substreams, and feeds them to a Metropolis sweep kernel, so results are
reproducible per seed and identical across kernel backends.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import csr, get_kernel
from .embedding import ChainLengthModel, build_embedded_ising, synth_chain_lengths
from .noise import NoiseModel, control_errors, variance_law
from .noise import chain_error_sample  # noqa: F401  unused here; perfbench's tracer wraps it
from .problem import IsingModel, QuboInstance, _batch_energies, qubo_to_ising
from .rng import substream

ENUMERATION_LIMIT = 24
ORACLE_BLOCK_BYTES = 1 << 20  # split energies per row block of brute_force
ORACLE_TIE_RTOL = 1e-12  # two sum orders of <= 301 terms differ by < 7e-14 of sum|terms|


@dataclass
class SampleSet:
    """Per-read spins, energies and chain-break fractions."""

    spins: np.ndarray  # (reads, n) int8
    energies: np.ndarray  # (reads,)
    cbf: np.ndarray  # (reads,)
    metadata: dict = field(default_factory=dict)

    @property
    def num_reads(self) -> int:
        return self.spins.shape[0]

    def records(self):
        for r in range(self.num_reads):
            yield {
                "physical_spins": self.spins[r].tolist(),
                "energy": float(self.energies[r]),
                "cbf": float(self.cbf[r]),
            }

    def to_dict(self) -> dict:
        return {"reads": list(self.records()), "metadata": self.metadata}

    def dumps(self) -> str:
        return json.dumps(self.to_dict())

    def summary_csv(self) -> str:
        lines = ["read,energy,cbf"]
        for r in range(self.num_reads):
            lines.append(f"{r},{self.energies[r]:.12g},{self.cbf[r]:.12g}")
        return "\n".join(lines) + "\n"


@dataclass
class AnnealSchedule:
    """Inverse-temperature schedule for the Metropolis annealer.

    With beta endpoints left unset they are derived from the model: the
    median single-flip energy scale gets ~50% acceptance at beta_min and
    ~1e-4 acceptance at beta_max.
    """

    kind: str = "logarithmic"
    beta_min: float | None = None
    beta_max: float | None = None
    sweeps: int = 128

    def __post_init__(self):
        if self.kind not in ("logarithmic", "geometric", "linear"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if any(b is not None and not 0 < b < math.inf for b in (self.beta_min, self.beta_max)):
            raise ValueError("beta_min and beta_max must be > 0 and finite")
        if None not in (self.beta_min, self.beta_max) and self.beta_min >= self.beta_max:
            raise ValueError("need 0 < beta_min < beta_max")

    def describe(self) -> str:
        return f"{self.kind}[{self.beta_min},{self.beta_max}]x{self.sweeps}"


def _auto_endpoints(h: np.ndarray, abs_coupling: np.ndarray) -> tuple[float, float]:
    scale = np.abs(h) + abs_coupling
    med = float(np.median(scale[scale > 0])) if np.any(scale > 0) else 1.0
    de = 2.0 * med
    return math.log(2.0) / de, math.log(1e4) / de


def schedule_betas(schedule: AnnealSchedule, h: np.ndarray, abs_coupling: np.ndarray) -> np.ndarray:
    bmin, bmax = schedule.beta_min, schedule.beta_max
    if bmin is None or bmax is None:
        auto_min, auto_max = _auto_endpoints(h, abs_coupling)
        bmin = auto_min if bmin is None else bmin
        bmax = auto_max if bmax is None else bmax
        if not 0 < bmin < bmax:
            raise ValueError(f"need 0 < beta_min < beta_max, got {bmin:g}, {bmax:g} (one auto)")
    s = schedule.sweeps
    if s == 1:
        return np.array([bmax])
    idx = np.arange(s, dtype=np.float64)
    if schedule.kind == "linear":
        frac = idx / (s - 1)
        return bmin + (bmax - bmin) * frac
    if schedule.kind == "geometric":
        return bmin * (bmax / bmin) ** (idx / (s - 1))
    frac = np.log1p(idx) / np.log1p(s - 1)  # logarithmic
    return bmin + (bmax - bmin) * frac


def _anneal(model: IsingModel, reads: int, schedule: AnnealSchedule | None, seed: int,
            backend: str | None, errors=None) -> SampleSet:
    """Anneal `reads` Metropolis reads of `model` with the (seed, "sa") stream.

    With errors = (dh, dj), read r runs on h + dh[r] and jv + dj[r], summed
    into dh and dj in place; betas and energies come from the unperturbed
    model. The stream gives the initial spins, the visit orders, then the
    log acceptance uniforms block by block: one block of all reads when
    they share couplers, else blocks of clip(2^24 // (n * width), 16, reads)
    reads with their own couplers, where width = max(1, largest degree);
    inside a block, sweep chunks of clip(2^25 // (block reads * n), 1, 32).
    These two sizes decide which uniform goes to which (read, sweep, spin),
    so changing them changes every seeded SA stream.

    A chunk's uniforms are drawn and passed to the kernel in tiles of
    max(1, kernel.DRAWS_PER_CALL // (chunk sweeps * n)) consecutive reads,
    so at most one tile of draws is held at a time. Generator.random fills
    in C order, so the tiles laid end to end are the chunk's (reads,
    sweeps, n) array: the tile size does not change the stream.
    """
    if model.n < 1:
        raise ValueError("model must have at least one spin")
    if reads < 1:
        raise ValueError("reads must be >= 1")
    schedule = schedule or AnnealSchedule()
    kernel = get_kernel(backend)
    n, m = model.n, len(model.jv)
    edges = np.stack([model.ei, model.ej], axis=1).astype(np.int32)
    row_ptr, _, edge_id = csr(n, edges)
    deg = np.diff(row_ptr)
    width = max(1, int(deg.max()))
    abs_coupling, abs_jv = np.zeros(n), np.abs(model.jv)
    for d in np.flatnonzero(np.bincount(deg)):  # each row's sum|J|, as NumPy sums that row alone
        at = np.flatnonzero(deg == d)
        abs_coupling[at] = abs_jv[edge_id[row_ptr[at, None] + np.arange(d)]].sum(axis=1)
    betas = schedule_betas(schedule, model.h, abs_coupling)

    rng = substream(seed, "sa")
    spins = (rng.integers(0, 2, size=(reads, n)) * 2 - 1).astype(np.int8)
    perms = rng.permuted(np.tile(np.arange(n, dtype=np.int32), (reads, 1)), axis=1)
    block = reads if errors is None else int(np.clip((1 << 24) // (n * width), 16, reads))
    for start in range(0, reads, block):
        rows = slice(start, min(start + block, reads))
        size, s_blk, p_blk = rows.stop - start, spins[rows], perms[rows]
        h2, jv2 = np.broadcast_to(model.h, (size, n)), np.broadcast_to(model.jv, (size, m))
        if errors is not None:  # summed into the error rows: e + jv has the bits of jv + e
            h2, jv2 = (np.add(d[rows], v, out=d[rows]) for d, v in zip(errors, (h2, jv2)))
        chunk = int(np.clip((1 << 25) // (size * n), 1, 32))
        for b in np.split(betas, range(chunk, len(betas), chunk)):
            tile = max(1, kernel.DRAWS_PER_CALL // (len(b) * n))
            for t in range(0, size, tile):
                tr = slice(t, min(t + tile, size))
                u = rng.random((tr.stop - t, len(b), n))
                kernel.run_metropolis(s_blk[tr], h2[tr], edges, jv2[tr], p_blk[tr], b,
                                      np.log(u, out=u))
                del u  # before the next tile is drawn
    del h2, jv2, errors  # the perturbed models are not needed for scoring

    energies = _batch_energies(spins, model.h, model.ei, model.ej, model.jv, model.offset)
    meta = {"reads": reads, "sweeps": schedule.sweeps, "seed": seed, "kernel": kernel.NAME,
            "schedule": schedule.describe(), "betas": [float(betas[0]), float(betas[-1])]}
    return SampleSet(spins=spins, energies=energies, cbf=np.zeros(reads), metadata=meta)


def simulated_anneal(
    model: IsingModel,
    reads: int,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
    backend: str | None = None,
) -> SampleSet:
    """Sample `reads` independent Metropolis anneals of an Ising model.

    `backend` is "auto" (None), "c" or "python"; metadata["kernel"] names
    the kernel that ran.
    """
    return _anneal(model, reads, schedule, seed, backend)


def brute_force(model: IsingModel) -> dict:
    """Global minimum by exhaustive enumeration (n <= ENUMERATION_LIMIT = 24).

    Split enumeration: the first n//2 spins form the high half and the
    rest the low half. Assignment a * 2^(n - n//2) + b, with variable 0 on
    the most significant bit so that index order is lexicographic order
    (-1 before +1), has energy E_hi[a] + E_lo[b] + (S_hi[a] J_hl) . S_lo[b],
    where J_hl holds the couplers between the halves. The (a, b) table is
    built in row blocks of about ORACLE_BLOCK_BYTES.

    Ties: every assignment whose split energy lies within ORACLE_TIE_RTOL *
    (|offset| + sum|h| + sum|J|) of the running minimum is re-scored by a
    per-row formula that does not depend on how many rows it sees, and the
    lexicographically first minimum of those energies is returned.
    Candidates are re-scored block by block, so memory stays bounded even
    when every assignment ties.
    """
    n, m = model.n, model.n // 2
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration limited to n <= {ENUMERATION_LIMIT}, got {n}")
    ei, ej, jv = model.ei, model.ej, model.jv
    dense = np.zeros((n, n))
    dense[ei, ej] = jv
    hi, lo = ((((np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1) * 2 - 1)
              .astype(np.int8) for k in (m, n - m))  # each half in lexicographic order
    e_hi = ((hi @ dense[:m, :m]) * hi).sum(axis=1) + hi @ model.h[:m] + model.offset
    e_lo = ((lo @ dense[m:, m:]) * lo).sum(axis=1) + lo @ model.h[m:]
    tol = ORACLE_TIE_RTOL * (abs(model.offset) + np.abs(model.h).sum() + np.abs(jv).sum())
    rows, chunk = max(1, ORACLE_BLOCK_BYTES // (8 * len(lo))), ORACLE_BLOCK_BYTES // (8 * n + 8)
    floor = best_e = math.inf
    for start in range(0, len(hi), rows):
        e = hi[start:start + rows] @ dense[:m, m:] @ lo.T
        e += e_hi[start:start + rows, None]  # in place, in the order of (e + e_hi) + e_lo
        e += e_lo
        floor = min(floor, float(e.min()))
        a, b = np.nonzero(e <= floor + tol)
        for c in range(0, len(a), chunk):
            spins = np.concatenate([hi.take(a[c:c + chunk] + start, axis=0),
                                    lo.take(b[c:c + chunk], axis=0)], axis=1)
            exact = _batch_energies(spins, model.h, ei, ej, jv, model.offset)
            k = int(np.argmin(exact))
            if exact[k] < best_e:
                best_e, best_s = float(exact[k]), spins[k].copy()
    return {"best_spins": best_s, "best_energy": best_e}


def _chain_spins(spins, embedding_or_chains) -> tuple[np.ndarray, np.ndarray]:
    """The spins gathered in chain order along the last axis, and where each chain starts;
    ValueError unless every chain is nonempty and holds spin ids in 0..n-1."""
    chains = getattr(embedding_or_chains, "chains", embedding_or_chains)
    spins, sizes = np.asarray(spins), np.array([len(c) for c in chains])
    ids = np.concatenate(chains)
    if not sizes.all() or not 0 <= ids.min() <= ids.max() < spins.shape[-1]:
        raise ValueError(f"chains must be nonempty and hold spin ids in 0..{spins.shape[-1] - 1}")
    return spins[..., ids], np.cumsum(sizes) - sizes


def detect_breaks(spins, embedding_or_chains) -> dict:
    """Flag broken chains (spins not all equal) and compute the chain-break fraction.

    `spins` is one read (n,), giving a list of flags and a float CBF, or a
    batch (reads, n), giving a (reads, chains) flag array and a CBF per read.
    """
    spins, starts = _chain_spins(spins, embedding_or_chains)
    flags = np.maximum.reduceat(spins, starts, -1) != np.minimum.reduceat(spins, starts, -1)
    if spins.ndim == 1:
        return {"broken": flags.tolist(), "cbf": float(flags.mean())}
    return {"broken": flags, "cbf": flags.mean(axis=-1)}


def resolve_chains(spins, embedding_or_chains, policy: str = "coin",
                   stream: np.random.Generator | None = None) -> np.ndarray:
    """Collapse physical spins, one read (n,) or a batch (reads, n), to logical
    spins by per-chain majority vote.

    Even splits resolve by a draw from `stream` (policy "coin") or to +1
    (policy "plus_one").
    """
    spins, starts = _chain_spins(spins, embedding_or_chains)
    shape = spins.shape[:-1] + starts.shape
    if policy == "coin":
        if stream is None:
            raise ValueError("coin policy needs a random stream")
        coins = (stream.integers(0, 2, size=shape) * 2 - 1).astype(np.int8)
    elif policy == "plus_one":
        coins = np.ones(shape, dtype=np.int8)
    else:
        raise ValueError(f"unknown tie policy {policy!r}")
    maj = np.sign(np.add.reduceat(spins, starts, axis=-1, dtype=np.int64))
    return np.where(maj == 0, coins, maj.astype(np.int8))


def margin_errors(lengths, nm: NoiseModel, reads: int, seed: int) -> np.ndarray:
    """Chain errors delta, shape (reads, chains), one scaled standard normal each.

    Column i is N(0, variance_law(lengths[i], nm)): chain_error_sample's
    distribution, correlated term included, from the (seed, "margin") stream.
    """
    if reads < 1:
        raise ValueError("reads must be >= 1")
    lengths = np.atleast_1d(np.asarray(lengths, dtype=np.int64))
    if lengths.size == 0:
        raise ValueError("lengths must hold at least one chain length")
    delta = substream(seed, "margin").standard_normal((reads, lengths.size))
    delta *= np.sqrt([variance_law(ell, nm) for ell in lengths])
    return delta


def margin_model_run(lengths, k: float, eta: float, nm: NoiseModel,
                     reads: int, seed: int) -> np.ndarray:
    """Per-read CBF from the exact generative margin model.

    Each chain's error delta comes from margin_errors; the chain breaks
    when |delta| exceeds the margin eta * k.
    """
    if not k > 0:
        raise ValueError("chain strength k must be > 0")
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must lie in (0, 1]")
    delta = margin_errors(lengths, nm, reads, seed)
    return (np.abs(delta, out=delta) > eta * k).mean(axis=1)


def synthetic_hardware_run(
    q: QuboInstance,
    chains_or_lengths_or_model,
    k: float,
    nm: NoiseModel,
    schedule: AnnealSchedule | None = None,
    reads: int = 2000,
    seed: int = 0,
    backend: str | None = None,
) -> tuple[SampleSet, SampleSet]:
    """Anneal ICE-perturbed embedded Hamiltonians on synthetic hardware.

    Per read: perturb the programmed embedded model (one row of control
    errors from the (seed, "perturb") stream), run one annealing read,
    score the spins against the unperturbed model, detect chain breaks
    and majority-resolve to logical spins, even splits by a coin from the
    (seed, "tie") stream. Returns (physical SampleSet, resolved logical
    SampleSet). The correlated noise term is not drawn, so corr_strength > 0
    raises.
    """
    if reads < 1:
        raise ValueError("reads must be >= 1")
    if nm.corr_strength > 0:
        raise ValueError("synthetic_hardware_run does not draw the correlated term; "
                         "needs corr_strength = 0")
    logical = qubo_to_ising(q)
    spec = chains_or_lengths_or_model
    if isinstance(spec, ChainLengthModel):
        spec = synth_chain_lengths(q.L, spec, seed)
    emb = build_embedded_ising(logical, spec, k)
    chains, model = emb.spin_chains(), emb.model
    physical = _anneal(model, reads, schedule, seed, backend,
                       control_errors(model, nm, substream(seed, "perturb"), (reads,)))
    physical.cbf = detect_breaks(physical.spins, chains)["cbf"]
    physical.metadata.update(chain_strength=k, noise=nm.to_dict(), lengths=[len(c) for c in chains])

    logical_spins = resolve_chains(physical.spins, chains, "coin", substream(seed, "tie"))
    logical_energies = _batch_energies(logical_spins, logical.h, logical.ei, logical.ej,
                                       logical.jv, logical.offset)
    resolved = SampleSet(spins=logical_spins, energies=logical_energies, cbf=physical.cbf,
                         metadata=dict(physical.metadata, resolved=True))
    return physical, resolved


def energy_stats(ss: SampleSet) -> dict:
    """Minimum, mean and standard deviation of read energies."""
    if ss.num_reads == 0:
        raise ValueError("empty sample set")
    return {
        "E_min": float(np.min(ss.energies)),
        "E_mean": float(np.mean(ss.energies)),
        "E_std": float(np.std(ss.energies)),
    }
