"""Chains, embedded Hamiltonians and chain-length statistics.

A logical variable i is represented by a chain T_i of physical qubits.
The embedded model divides each logical field h_i evenly over T_i,
divides each logical coupler J_ij evenly over the physical edges that
connect T_i to T_j, and adds a ferromagnetic intra-chain coupler -k on
every physical edge inside a chain (minimization convention: aligned
chains lower the energy by k per intra-chain edge).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .problem import IsingModel
from .rng import substream
from .topology import ZephyrGraph


@dataclass
class ChainLengthModel:
    """Linear chain-length law: length = round(slope * L + intercept) +/- jitter."""

    slope: float
    intercept: float = 1.0
    jitter: int = 0

    def __post_init__(self):
        if not np.isfinite([self.slope, self.intercept]).all():
            raise ValueError("slope and intercept must be finite")
        if self.slope < 0:
            raise ValueError("slope must be >= 0")
        if not (float(self.jitter).is_integer() and self.jitter >= 0):
            raise ValueError(f"jitter must be an integer >= 0, got {self.jitter!r}")
        self.jitter = int(self.jitter)


@dataclass
class Embedding:
    """Chains T_i (disjoint sets of physical qubit ids) on an optional hardware graph."""

    chains: list[list[int]]
    hardware: ZephyrGraph | None = None


@dataclass
class EmbeddedIsing:
    """Physical Ising model produced by an embedding.

    The model's spins are the qubits the chains use, relabelled 0..n-1 in
    ascending id order: spin s is qubit qubits[s]. The embedding names
    qubits by hardware id.
    """

    model: IsingModel
    chain_strength: float
    embedding: Embedding
    qubits: np.ndarray

    def spin_chains(self) -> list[list[int]]:
        """The chains as model spin indices, to read them off the model's spins."""
        return [np.searchsorted(self.qubits, c).tolist() for c in self.embedding.chains]

    def _chain_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The chains of each coupler's two spins; spin s is the s-th smallest chain qubit."""
        members, label = _labels(self.embedding.chains)
        label = label[np.argsort(members)]
        return label[self.model.ei], label[self.model.ej]

    def intra_edge_count(self) -> int:
        return int(np.count_nonzero(np.equal(*self._chain_ends())))


def synth_chain_lengths(L: int, model: ChainLengthModel, seed: int) -> np.ndarray:
    """Generate L chain lengths from the linear law, with seeded integer jitter."""
    if L < 1:
        raise ValueError("L must be >= 1")
    base = int(round(model.slope * L + model.intercept))
    lengths = np.full(L, base, dtype=np.int64)
    if model.jitter > 0:
        rng = substream(seed, "chain_lengths", L)
        lengths = lengths + rng.integers(-model.jitter, model.jitter + 1, size=L)
    return np.maximum(lengths, 1)


def build_embedded_ising(logical: IsingModel, chains_or_lengths, k: float) -> EmbeddedIsing:
    """Build the physical Hamiltonian for an embedding of `logical`.

    `chains_or_lengths` is an Embedding with a hardware graph, or a
    sequence of chain lengths, which become path chains over fresh
    physical ids, with every logical edge realized by a single physical
    edge between the lowest-index qubits of the two chains. An Embedding
    must pass `validate_embedding` for the model's edges; the first
    violation is raised as a ValueError. The model has one spin per qubit
    the chains use, so a qubit outside every chain is not swept or
    perturbed.
    """
    if k <= 0:
        raise ValueError("chain strength k must be > 0")
    if isinstance(chains_or_lengths, Embedding):
        emb = chains_or_lengths
        if emb.hardware is None:
            raise ValueError("an Embedding needs a hardware graph; lengths mean path chains")
    else:
        lengths = [float(v) for v in chains_or_lengths]
        if not all(v.is_integer() for v in lengths):  # NaN and inf included
            raise ValueError("chain lengths must be integers")
        lengths = [int(v) for v in lengths]
        if any(v < 1 for v in lengths):
            raise ValueError("chain lengths must be >= 1")
        ends = np.cumsum(lengths).tolist()
        emb = Embedding([list(range(e - ell, e)) for ell, e in zip(lengths, ends)])
    if len(emb.chains) != logical.n:
        raise ValueError(f"embedding has {len(emb.chains)} chains for {logical.n} logical spins")

    members, label = _labels(emb.chains)
    sizes = np.bincount(label, minlength=logical.n)
    if emb.hardware is None:  # path steps inside each chain, one head pair per logical edge
        steps = np.stack([members[:-1], members[1:]], axis=1)[label[:-1] == label[1:]]
        heads = members[np.cumsum(sizes) - sizes]
        inter, shares = np.stack([heads[logical.ei], heads[logical.ej]], axis=1), logical.jv
    else:
        faults, steps, inter, edge, count = _check(emb.chains, emb.hardware, logical.ei, logical.ej)
        if faults:
            last = len(emb.hardware) - 1
            raise ValueError(_MESSAGES[faults[0]["kind"]].format(last=last, **faults[0]))
        shares = logical.jv[edge] / count[edge]  # the model's couplers are sorted and unique

    qubits, spin = np.unique(members, return_inverse=True)
    h = np.zeros(len(qubits))
    np.add.at(h, spin, logical.h[label] / sizes[label])
    pairs = np.searchsorted(qubits, np.concatenate([steps, inter]))
    values = np.concatenate([np.full(len(steps), -k), shares])
    model = IsingModel(len(h), h, (pairs[:, 0], pairs[:, 1], values), logical.offset)
    return EmbeddedIsing(model=model, chain_strength=k, embedding=emb, qubits=qubits)


@dataclass
class ValidationReport:
    violations: list[dict]

    @property
    def ok(self) -> bool:
        return not self.violations


_MESSAGES = {
    "empty_chain": "chain {chain} is empty",
    "unknown_qubit": "chain {chain} holds a qubit id outside 0..{last}",
    "disjointness": "chains share qubit {qubit}",
    "connectivity": "chain {chain} is not connected",
    "edge_coverage": "logical edge ({edge[0]},{edge[1]}) has no physical edge between chains",
}


def _labels(chains) -> tuple[np.ndarray, np.ndarray]:
    """Every chain member as int64, chain after chain, and the chain each belongs to;
    ValueError unless every member is an integer (158.0 counts as 158)."""
    members = np.asarray(list(itertools.chain.from_iterable(chains)))
    label = np.repeat(np.arange(len(chains)), [len(c) for c in chains])
    odd = np.flatnonzero(members % 1 != 0) if members.dtype.kind == "f" else []  # NaN, inf too
    if len(odd):
        raise ValueError(f"chain members must be integers; chain {label[odd[0]]} holds "
                         f"{members[odd[0]]}")
    return members.astype(np.int64), label


def _check(chains, hardware: ZephyrGraph, ei: np.ndarray, ej: np.ndarray) -> tuple:
    """Decide in one array pass whether `chains` embed the logical edges
    (ei[t], ej[t]) in `hardware`.

    Chains must be nonempty, name ids in 0..len(hardware)-1, be
    disjoint and connected, and every logical edge needs a coupler
    between its two chains. A chain holding an unknown id is not checked
    for connectivity, and an unknown id is in no chain for the rest.
    Returns the violations, the hardware couplers inside one chain and
    those between the chains of a logical edge, as (min, max) rows, the
    rank of each one's logical edge among the unique logical edges, and
    the couplers per unique logical edge.
    """
    n, size = len(chains), len(hardware)
    i, j = np.minimum(ei, ej), np.maximum(ei, ej)
    if np.any((i == j) | (i < 0) | (j >= n)):
        raise ValueError(f"logical edges must join two distinct chains in 0..{n - 1}")
    members, label = _labels(chains)
    sizes, inside = np.bincount(label, minlength=n), (members >= 0) & (members < size)
    faults = [{"kind": "empty_chain", "chain": c} for c in np.flatnonzero(sizes == 0).tolist()]
    faults += [{"kind": "unknown_qubit", "chain": c, "qubit": p}
               for c, p in zip(label[~inside].tolist(), members[~inside].tolist())]
    violations = sorted(faults, key=lambda v: v["chain"])
    ids, owner = members[inside], label[inside]
    order = np.argsort(ids, kind="stable")  # repeats of an id stay in chain order
    rep = np.flatnonzero(np.diff(ids[order]) == 0) + 1
    violations += [{"kind": "disjointness", "qubit": int(ids[a]),
                    "chains": [int(owner[b]), int(owner[a])]}
                   for a, b in sorted(zip(order[rep].tolist(), order[rep - 1].tolist()))]

    chain_of = np.full(size, -1)
    chain_of[ids] = owner
    edges = hardware.edges  # unique sorted rows (a, b), a < b
    ca, cb = chain_of[edges].T  # -1 marks a qubit outside every chain
    intra = (ca >= 0) & (ca == cb)
    a, b = edges[intra].T  # label propagation: each qubit ends on its component's least id
    comp = np.arange(size)
    while np.any(comp[a] != comp[b]):
        np.minimum.at(comp, a, comp[b])
        np.minimum.at(comp, b, comp[a])
    checked = (sizes > 0) & (np.bincount(label[~inside], minlength=n) == 0)
    at = comp[np.where(inside, members, 0)]
    far = checked[label] & (at != at[np.repeat(np.cumsum(sizes) - sizes, sizes)])
    violations += [{"kind": "connectivity", "chain": c,
                    "unreached": np.unique(members[far & (label == c)]).tolist()}
                   for c in np.unique(label[far]).tolist()]

    unique, which = np.unique(i * n + j, return_inverse=True)
    pair = np.minimum(ca, cb) * n + np.maximum(ca, cb)  # negative off the chains
    inter = np.isin(pair, unique)
    edge = np.searchsorted(unique, pair[inter])
    count = np.bincount(edge, minlength=len(unique))
    violations += [{"kind": "edge_coverage", "edge": [int(ei[t]), int(ej[t])]}
                   for t in np.flatnonzero(count[which] == 0).tolist()]
    return violations, edges[intra], edges[inter], edge, count


def validate_embedding(e: Embedding, hardware: ZephyrGraph, logical_edges) -> ValidationReport:
    """Check qubit ids, disjointness, connectivity and logical-edge coverage.

    Violations are reported as data; an empty report means the embedding
    is valid. A logical edge (i, j) needs 0 <= i, j < len(e.chains) and
    i != j, else ValueError.
    """
    edges = np.array(list(logical_edges), dtype=np.int64).reshape(-1, 2)
    return ValidationReport(_check(e.chains, hardware, *edges.T)[0])


def fit_linear(xs, ys) -> dict:
    """Ordinary least squares y = slope * x + intercept with R^2."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):  # NaN would reach LAPACK
        raise ValueError("fit_linear needs finite data")
    if xs.shape != ys.shape or xs.size < 2 or np.unique(xs).size < 2:
        raise ValueError("need at least two distinct x values")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept), "r_squared": r2}
