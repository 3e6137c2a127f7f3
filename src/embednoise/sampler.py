"""Monte Carlo engines: simulated annealing, exhaustive search, margin-model
chain-break sampling and the synthetic-hardware pipeline.

The annealer draws its initial spins and per-read visit permutations up
front and its acceptance uniforms chunk by chunk, all from named
substreams, and feeds them to a Metropolis sweep kernel, so results are
reproducible per seed and identical across kernel backends.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._integral import integral
from ._kernels import csr, get_kernel
from .embedding import ChainLengthModel, _labels, build_embedded_ising, synth_chain_lengths
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


@dataclass
class AnnealSchedule:
    """Logarithmic inverse-temperature schedule for the Metropolis annealer.

    With beta endpoints left unset they are derived from the model: the
    median single-flip energy scale gets ~50% acceptance at beta_min and
    ~1e-4 acceptance at beta_max.
    """

    beta_min: float | None = None
    beta_max: float | None = None
    sweeps: int = 128

    def __post_init__(self):
        self.sweeps = integral("sweeps", self.sweeps, lo=1)
        if any(b is not None and not 0 < b < math.inf for b in (self.beta_min, self.beta_max)):
            raise ValueError("beta_min and beta_max must be > 0 and finite")
        if None not in (self.beta_min, self.beta_max) and self.beta_min >= self.beta_max:
            raise ValueError("need 0 < beta_min < beta_max")

    def describe(self) -> str:
        return f"logarithmic[{self.beta_min},{self.beta_max}]x{self.sweeps}"


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
    frac = np.log1p(np.arange(s, dtype=np.float64)) / np.log1p(s - 1)
    return bmin + (bmax - bmin) * frac


def _cpus() -> int:
    """The CPUs this process may run on (os.cpu_count() where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cpu_map(fn, items) -> list:
    """[fn(x) for x in items] on P = min(_cpus(), len(items)) threads, in item order.

    Thread p runs items p, p + P, ... up to its first failure; thread 0 is
    the calling thread. Every thread is joined before this returns or
    raises, and a failure re-raises the first failing item's exception in
    item order (any item a thread skipped comes after its own failure).
    """
    items = list(items)
    parts = max(1, min(_cpus(), len(items)))
    results, errors = [None] * len(items), {}

    def part(p):
        for i in range(p, len(items), parts):
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                errors[i] = exc
                return

    with ThreadPoolExecutor(max(1, parts - 1)) as pool:  # joins every part
        futures = [pool.submit(part, p) for p in range(1, parts)]
        part(0)
    for future in futures:  # what part() lets through, such as KeyboardInterrupt
        future.result()
    if errors:
        raise errors[min(errors)]
    return results


def _anneal(model: IsingModel, reads: int, schedule: AnnealSchedule | None, seed: int,
            backend: str | None, errors=None) -> SampleSet:
    """Anneal `reads` Metropolis reads of `model` with the (seed, "sa") stream.

    With errors = (dh, dj), read r runs on h + dh[r] and jv + dj[r], summed
    into dh and dj in place; betas and energies come from the unperturbed
    model. The stream gives the initial spins, the visit orders, then the
    log acceptance uniforms in sweep chunks of all reads, chunk sweeps =
    clip(2^25 // (reads * n), 1, 32). That one size decides which uniform
    goes to which (read, sweep, spin), so changing it changes every seeded
    SA stream; shared and per-read couplers draw alike.

    The reads are split into P contiguous parts, P = min(CPUs this process
    may run on, tiles the first chunk needs at max(1, kernel.DRAWS_PER_CALL
    // (chunk sweeps * n)) reads each). Part 0 runs on the calling thread,
    parts 1..P-1 on threads joined before this returns or raises; sa.c,
    Generator.random and np.log release the GIL. Each part anneals its rows
    through every chunk, drawing from its own copy of the stream jumped
    ahead (PCG64.advance, one 64-bit output per double) to its first
    uniform of the chunk: the earlier chunks' uniforms plus lo * chunk
    sweeps * n. Within a part the draws go to the kernel in tiles of
    max(1, kernel.DRAWS_PER_CALL // (P * chunk sweeps * n)) reads, drawn
    just before their call, so all parts hold at most one DRAWS_PER_CALL
    (1 MB for sa.c) of draws at a time. Generator.random fills in C order,
    so every (read, sweep, spin) gets the uniform of one array for the
    whole chunk: neither P nor the tile size changes the stream. The NumPy
    kernel takes whole chunks, so it runs as one part.
    """
    if model.n < 1:
        raise ValueError("model must have at least one spin")
    reads = integral("reads", reads, lo=1)
    schedule = schedule or AnnealSchedule()
    kernel = get_kernel(backend)
    n, m = model.n, len(model.jv)
    edges = np.stack([model.ei, model.ej], axis=1).astype(np.int32)
    row_ptr, _, edge_id = csr(n, edges)
    deg = np.diff(row_ptr)
    abs_coupling, abs_jv = np.zeros(n), np.abs(model.jv)
    for d in np.flatnonzero(np.bincount(deg)):  # each row's sum|J|, as NumPy sums that row alone
        at = np.flatnonzero(deg == d)
        abs_coupling[at] = abs_jv[edge_id[row_ptr[at, None] + np.arange(d)]].sum(axis=1)
    betas = schedule_betas(schedule, model.h, abs_coupling)

    rng = substream(seed, "sa")
    spins = (rng.integers(0, 2, size=(reads, n)) * 2 - 1).astype(np.int8)
    perms = rng.permuted(np.tile(np.arange(n, dtype=np.int32), (reads, 1)), axis=1)
    h2, jv2 = np.broadcast_to(model.h, (reads, n)), np.broadcast_to(model.jv, (reads, m))
    if errors is not None:  # summed into the error arrays: e + jv has the bits of jv + e
        h2, jv2 = (np.add(e, v, out=e) for e, v in zip(errors, (h2, jv2)))
    chunk = int(np.clip((1 << 25) // (reads * n), 1, 32))
    chunks = np.split(betas, range(chunk, len(betas), chunk))
    parts = min(_cpus(), -(-reads // max(1, kernel.DRAWS_PER_CALL // (len(chunks[0]) * n))))
    state = rng.bit_generator.state  # after the perms: the first chunk's first uniform

    def anneal_part(p):
        lo, hi = reads * p // parts, reads * (p + 1) // parts
        bits, start = np.random.PCG64(), 0  # start: the uniforms of the earlier chunks
        draw = np.random.Generator(bits).random
        for b in chunks:
            bits.state = state
            bits.advance(start + lo * len(b) * n)
            tile = max(1, kernel.DRAWS_PER_CALL // (parts * len(b) * n))
            for t in range(lo, hi, tile):
                rows = slice(t, min(t + tile, hi))
                u = draw((rows.stop - t, len(b), n))
                kernel.run_metropolis(spins[rows], h2[rows], edges, jv2[rows], perms[rows], b,
                                      np.log(u, out=u))
                del u  # before the next tile is drawn
            start += reads * len(b) * n

    _cpu_map(anneal_part, range(parts))  # parts <= CPUs: part p on thread p
    del h2, jv2, errors  # the perturbed models are not needed for scoring

    energies = _batch_energies(spins, model.h, model.ei, model.ej, model.jv, model.offset)
    meta = {"reads": reads, "sweeps": schedule.sweeps, "seed": seed, "kernel": kernel.NAME,
            "threads": parts, "schedule": schedule.describe(),
            "betas": [float(betas[0]), float(betas[-1])]}
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
    the kernel that ran, and metadata["threads"] the threads its reads ran on.
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
        a, b = np.divmod(np.flatnonzero(e <= floor + tol), e.shape[1])  # row-major, as nonzero
        for c in range(0, len(a), chunk):
            spins = np.concatenate([hi.take(a[c:c + chunk] + start, axis=0),
                                    lo.take(b[c:c + chunk], axis=0)], axis=1)
            exact = _batch_energies(spins, model.h, ei, ej, jv, model.offset)
            k = int(np.argmin(exact))
            if exact[k] < best_e:
                best_e, best_s = float(exact[k]), spins[k].copy()
    return {"best_spins": best_s, "best_energy": best_e}


def _chain_spins(spins, chains) -> tuple[np.ndarray, np.ndarray]:
    """The spins gathered in chain order along the last axis, and where each chain starts;
    ValueError unless every spin is +1 or -1 and every chain is nonempty and holds integer
    spin ids in 0..n-1."""
    spins = np.asarray(spins)
    if not np.all((spins == 1) | (spins == -1)):
        raise ValueError("spins must be +1 or -1")
    ids, _, ptr = _labels(chains)
    if not np.diff(ptr).all() or not len(ids) or not 0 <= ids.min() <= ids.max() < spins.shape[-1]:
        raise ValueError(f"chains must be nonempty and hold spin ids in 0..{spins.shape[-1] - 1}")
    return spins[..., ids], ptr[:-1]


def _broken(gathered: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per chain of spins gathered in chain order, chains starting at `starts`: not all equal."""
    return np.maximum.reduceat(gathered, starts, -1) != np.minimum.reduceat(gathered, starts, -1)


def _majority(gathered: np.ndarray, starts: np.ndarray, stream: np.random.Generator) -> np.ndarray:
    """Per chain of spins gathered in chain order, the majority sign; an even split takes
    a coin from `stream`, which draws one coin per chain and read either way."""
    coins = (stream.integers(0, 2, size=gathered.shape[:-1] + starts.shape) * 2 - 1).astype(np.int8)
    maj = np.sign(np.add.reduceat(gathered, starts, axis=-1, dtype=np.int64))
    return np.where(maj == 0, coins, maj.astype(np.int8))


def detect_breaks(spins, chains) -> dict:
    """Flag broken chains (spins not all equal) and compute the chain-break fraction.

    `spins` is one read (n,), giving a list of flags and a float CBF, or a
    batch (reads, n), giving a (reads, chains) flag array and a CBF per read.
    """
    flags = _broken(*_chain_spins(spins, chains))
    if flags.ndim == 1:
        return {"broken": flags.tolist(), "cbf": float(flags.mean())}
    return {"broken": flags, "cbf": flags.mean(axis=-1)}


def resolve_chains(spins, chains, stream: np.random.Generator) -> np.ndarray:
    """Collapse physical spins, one read (n,) or a batch (reads, n), to logical
    spins by per-chain majority vote; even splits resolve by a coin from `stream`.
    """
    return _majority(*_chain_spins(spins, chains), stream)


def margin_errors(lengths, nm: NoiseModel, reads: int, seed: int) -> np.ndarray:
    """Chain errors delta, shape (reads, chains), one scaled standard normal each.

    Column i is N(0, variance_law(lengths[i], nm)): chain_error_sample's
    distribution, correlated term included, from the (seed, "margin") stream.
    """
    reads = integral("reads", reads, lo=1)
    lengths = integral("chain lengths", lengths if np.ndim(lengths) else [lengths], lo=1)
    if lengths.size == 0:
        raise ValueError("lengths must hold at least one chain length")
    delta = substream(seed, "margin").standard_normal((reads, lengths.size))
    delta *= np.sqrt(variance_law(lengths, nm))
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
    reads = integral("reads", reads, lo=1)
    if nm.corr_strength > 0:
        raise ValueError("synthetic_hardware_run does not draw the correlated term; "
                         "needs corr_strength = 0")
    logical = qubo_to_ising(q)
    spec = chains_or_lengths_or_model
    if isinstance(spec, ChainLengthModel):
        spec = synth_chain_lengths(q.L, spec, seed)
    emb = build_embedded_ising(logical, spec, k)
    model, starts = emb.model, emb.chain_ptr[:-1]
    physical = _anneal(model, reads, schedule, seed, backend,
                       control_errors(model, nm, substream(seed, "perturb"), (reads,)))
    gathered = physical.spins[:, emb.chain_spins]
    physical.cbf = _broken(gathered, starts).mean(axis=-1)
    physical.metadata.update(chain_strength=k, noise=nm.to_dict(),
                             lengths=np.diff(emb.chain_ptr).tolist())

    logical_spins = _majority(gathered, starts, substream(seed, "tie"))
    logical_energies = _batch_energies(logical_spins, logical.h, logical.ei, logical.ej,
                                       logical.jv, logical.offset)
    resolved = SampleSet(spins=logical_spins, energies=logical_energies, cbf=physical.cbf,
                         metadata=dict(physical.metadata, resolved=True))
    return physical, resolved
