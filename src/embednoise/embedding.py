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

from ._integral import integral
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
        self.jitter = integral("jitter", self.jitter, lo=0)


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
    qubits by hardware id. Chain i's spins, in the embedding's member
    order, are chain_spins[chain_ptr[i]:chain_ptr[i + 1]].
    """

    model: IsingModel
    embedding: Embedding
    qubits: np.ndarray
    chain_spins: np.ndarray
    chain_ptr: np.ndarray


def _check_chain_strength(k: float) -> None:
    """ValueError unless the chain strength k is > 0 and finite (NaN fails both)."""
    if not 0 < k < np.inf:
        raise ValueError(f"chain strength k must be > 0 and finite, got {k}")


def synth_chain_lengths(L: int, model: ChainLengthModel, seed: int) -> np.ndarray:
    """Generate L chain lengths from the linear law, with seeded integer jitter."""
    L = integral("L", L, lo=1)
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
    _check_chain_strength(k)
    if isinstance(chains_or_lengths, Embedding):
        emb = chains_or_lengths
        if emb.hardware is None:
            raise ValueError("an Embedding needs a hardware graph; lengths mean path chains")
    else:
        lengths = integral("chain lengths", chains_or_lengths, lo=1).tolist()
        ends = np.cumsum(lengths).tolist()
        emb = Embedding([list(range(e - ell, e)) for ell, e in zip(lengths, ends)])
    if len(emb.chains) != logical.n:
        raise ValueError(f"embedding has {len(emb.chains)} chains for {logical.n} logical spins")

    members, label, ptr = _labels(emb.chains)
    if emb.hardware is None:  # path steps inside each chain, one head pair per logical edge
        steps = np.stack([members[:-1], members[1:]], axis=1)[label[:-1] == label[1:]]
        inter, shares = members[ptr[np.stack([logical.ei, logical.ej], axis=1)]], logical.jv
    else:
        faults, steps, inter, edge, count = _check(members, label, ptr, emb.hardware,
                                                   logical.ei, logical.ej)
        if faults:
            last = len(emb.hardware) - 1
            raise ValueError(_MESSAGES[faults[0]["kind"]].format(last=last, **faults[0]))
        shares = logical.jv[edge] / count[edge]  # the model's couplers are sorted and unique

    qubits, spin = np.unique(members, return_inverse=True)
    h = np.zeros(len(qubits))
    np.add.at(h, spin, logical.h[label] / np.diff(ptr)[label])
    pairs = np.searchsorted(qubits, np.concatenate([steps, inter]))
    values = np.concatenate([np.full(len(steps), -k), shares])
    model = IsingModel(len(h), h, (pairs[:, 0], pairs[:, 1], values), logical.offset)
    return EmbeddedIsing(model=model, embedding=emb, qubits=qubits, chain_spins=spin,
                         chain_ptr=ptr)


_MESSAGES = {
    "empty_chain": "chain {chain} is empty",
    "unknown_qubit": "chain {chain} holds a qubit id outside 0..{last}",
    "disjointness": "chains share qubit {qubit}",
    "connectivity": "chain {chain} is not connected",
    "edge_coverage": "logical edge ({edge[0]},{edge[1]}) has no physical edge between chains",
}


def _labels(chains) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every chain member as int64, chain after chain, the chain each belongs to, and
    where each chain starts (length chains + 1); ValueError naming the chain unless
    every member is an integer."""
    sizes = [len(c) for c in chains]
    label = np.repeat(np.arange(len(chains)), sizes)
    members = integral(lambda i: f"chain {label[i]} members",
                       list(itertools.chain.from_iterable(chains)))
    return members, label, np.cumsum([0] + sizes)


def _check(members, label, ptr, hardware: ZephyrGraph, ei: np.ndarray, ej: np.ndarray) -> tuple:
    """Decide in one array pass whether the chains that `_labels` flattened to
    (members, label, ptr) embed the logical edges (ei[t], ej[t]) in `hardware`.

    Chains must be nonempty, name ids in 0..len(hardware)-1, be
    disjoint and connected, and every logical edge needs a coupler
    between its two chains. A chain holding an unknown id is not checked
    for connectivity, and an unknown id is in no chain for the rest.
    Returns the violations, the hardware couplers inside one chain and
    those between the chains of a logical edge, as (min, max) rows, the
    rank of each one's logical edge among the unique logical edges, and
    the couplers per unique logical edge.
    """
    n, size, sizes = len(ptr) - 1, len(hardware), np.diff(ptr)
    i, j = np.minimum(ei, ej), np.maximum(ei, ej)
    if np.any((i == j) | (i < 0) | (j >= n)):
        raise ValueError(f"logical edges must join two distinct chains in 0..{n - 1}")
    inside = (members >= 0) & (members < size)
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
    far = checked[label] & (at != at[np.repeat(ptr[:-1], sizes)])
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


def validate_embedding(e: Embedding, hardware: ZephyrGraph, logical_edges) -> list[dict]:
    """Check qubit ids, disjointness, connectivity and logical-edge coverage.

    Returns the violations as data; an empty list means the embedding is
    valid. A logical edge (i, j) needs 0 <= i, j < len(e.chains) and
    i != j, else ValueError.
    """
    edges = integral("logical edges", list(logical_edges)).reshape(-1, 2)
    return _check(*_labels(e.chains), hardware, *edges.T)[0]


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
