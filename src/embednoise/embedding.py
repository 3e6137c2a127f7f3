"""Chains, embedded Hamiltonians and chain-length statistics.

A logical variable i is represented by a chain T_i of physical qubits.
The embedded model divides each logical field h_i evenly over T_i,
divides each logical coupler J_ij evenly over the physical edges that
connect T_i to T_j, and adds a ferromagnetic intra-chain coupler -k on
every physical edge inside a chain (minimization convention: aligned
chains lower the energy by k per intra-chain edge).
"""

from __future__ import annotations

import json
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
        if self.slope < 0:
            raise ValueError("slope must be >= 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")


@dataclass
class Embedding:
    """Chains T_i (disjoint sets of physical qubit ids) on an optional hardware graph."""

    chains: list[list[int]]
    hardware: ZephyrGraph | None = None

    def lengths(self) -> list[int]:
        return [len(c) for c in self.chains]

    def to_dict(self) -> dict:
        return {"chains": [list(c) for c in self.chains]}

    def dumps(self) -> str:
        return json.dumps(self.to_dict())


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
        chains = self.embedding.chains
        label = np.repeat(np.arange(len(chains)), [len(c) for c in chains])
        label = label[np.argsort(np.concatenate(chains))]
        return label[self.model.ei], label[self.model.ej]

    @property
    def provenance(self) -> dict[tuple[int, int], tuple]:
        """Each coupler (p, q), by hardware id, mapped to ("intra", i) for the
        penalty inside chain i or to ("inter", (i, j)) for a share of J_ij."""
        ci, cj = self._chain_ends()
        p, q = self.qubits[self.model.ei], self.qubits[self.model.ej]
        return {(a, b): ("intra", i) if i == j else ("inter", (min(i, j), max(i, j)))
                for a, b, i, j in zip(p.tolist(), q.tolist(), ci.tolist(), cj.tolist())}

    def intra_edge_count(self) -> int:
        return int(np.count_nonzero(np.equal(*self._chain_ends())))

    def to_dict(self) -> dict:
        prov = [[p, q, list(tag[1]) if tag[0] == "inter" else tag[1], tag[0]]
                for (p, q), tag in sorted(self.provenance.items())]
        return {
            "model": self.model.to_dict(),
            "chain_strength": self.chain_strength,
            "provenance": prov,
            "embedding": self.embedding.to_dict(),
            "qubits": self.qubits.tolist(),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict())


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


def build_embedded_ising(
    logical: IsingModel,
    chains_or_lengths,
    k: float,
    topology: ZephyrGraph | None = None,
) -> EmbeddedIsing:
    """Build the physical Hamiltonian for an embedding of `logical`.

    `chains_or_lengths` is an Embedding with a hardware graph (its own or
    `topology`), or a sequence of chain lengths, which become path chains
    over fresh physical ids, with every logical edge realized by a single
    physical edge between the lowest-index qubits of the two chains. The
    model has one spin per qubit the chains use, so a qubit outside every
    chain is not swept or perturbed.
    """
    if k <= 0:
        raise ValueError("chain strength k must be > 0")

    if isinstance(chains_or_lengths, Embedding):
        emb = chains_or_lengths
        if emb.hardware is None:
            if topology is None:
                raise ValueError("an Embedding needs a hardware graph; lengths mean path chains")
            emb = Embedding(emb.chains, topology)
        count = len(emb.hardware.vertices)
        for i, chain in enumerate(emb.chains):
            if not chain:
                raise ValueError(f"chain {i} is empty")
            if not all(0 <= p < count for p in chain):
                raise ValueError(f"chain {i} holds a qubit id outside 0..{count - 1}")
    else:
        lengths = [int(v) for v in chains_or_lengths]
        if any(v < 1 for v in lengths):
            raise ValueError("chain lengths must be >= 1")
        ends = np.cumsum(lengths).tolist()
        emb = Embedding([list(range(e - ell, e)) for ell, e in zip(lengths, ends)])

    if len(emb.chains) != logical.n:
        raise ValueError(f"embedding has {len(emb.chains)} chains for {logical.n} logical spins")

    sizes = np.array([len(c) for c in emb.chains])
    members = np.concatenate(emb.chains)
    qubits, spin, uses = np.unique(members, return_inverse=True, return_counts=True)
    if uses.max() > 1:
        raise ValueError(f"chains share qubit {qubits[np.argmax(uses > 1)]}")
    h = np.zeros(len(qubits))
    np.add.at(h, spin, np.repeat(logical.h, sizes) / np.repeat(sizes, sizes))

    chain_of = np.full(members.size if emb.hardware is None else len(emb.hardware.vertices), -1)
    chain_of[members] = np.repeat(np.arange(logical.n), sizes)
    if emb.hardware is None:  # path steps inside each chain, then chain heads per logical edge
        steps = np.stack([members[:-1], members[1:]], axis=1)[chain_of[:-1] == chain_of[1:]]
        heads = members[np.cumsum(sizes) - sizes]
        edges = np.concatenate([steps, np.stack([heads[logical.ei], heads[logical.ej]], axis=1)])
    else:
        edges = np.array([edge[:2] for edge in emb.hardware.edges], dtype=np.int64).reshape(-1, 2)
        edges = np.unique(np.sort(edges[edges[:, 0] != edges[:, 1]], axis=1), axis=0)
    ca, cb = chain_of[edges].T  # -1 marks a qubit outside every chain
    keys = logical.ei * logical.n + logical.ej  # ascending, as the model's couplers are sorted
    pair = np.minimum(ca, cb) * logical.n + np.maximum(ca, cb)  # negative off the chains
    intra, inter = (ca >= 0) & (ca == cb), np.isin(pair, keys)
    e = np.searchsorted(keys, pair[inter])  # the logical edge each inter-chain coupler carries
    count = np.bincount(e, minlength=len(keys))
    if not count.all():
        i, j = logical.ei[np.argmin(count)], logical.ej[np.argmin(count)]
        raise ValueError(f"logical edge ({i},{j}) has no physical edge between chains")

    pairs = np.searchsorted(qubits, np.concatenate([edges[intra], edges[inter]]))
    values = np.concatenate([np.full(np.count_nonzero(intra), -k), logical.jv[e] / count[e]])
    model = IsingModel(len(h), h, (pairs[:, 0], pairs[:, 1], values), logical.offset)
    return EmbeddedIsing(model=model, chain_strength=k, embedding=emb, qubits=qubits)


@dataclass
class ValidationReport:
    violations: list[dict]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_embedding(e: Embedding, hardware: ZephyrGraph, logical_edges) -> ValidationReport:
    """Check qubit ids, disjointness, connectivity and logical-edge coverage.

    Violations are reported as data; an empty report means the embedding
    is valid.
    """
    violations: list[dict] = []
    seen: dict[int, int] = {}
    adj = hardware.adjacency()
    for i, chain in enumerate(e.chains):
        if not chain:
            violations.append({"kind": "empty_chain", "chain": i})
        for p in chain:
            if not 0 <= p < len(adj):
                violations.append({"kind": "unknown_qubit", "chain": i, "qubit": p})
            if p in seen:
                violations.append({"kind": "disjointness", "qubit": p,
                                   "chains": [seen[p], i]})
            seen[p] = i

    for i, chain in enumerate(e.chains):
        if not chain or not all(0 <= p < len(adj) for p in chain):
            continue  # reported above
        members = set(chain)
        stack, reached = [chain[0]], {chain[0]}
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in members and w not in reached:
                    reached.add(w)
                    stack.append(w)
        if reached != members:
            violations.append({"kind": "connectivity", "chain": i,
                               "unreached": sorted(members - reached)})

    hw = {(min(a, b), max(a, b)) for a, b, _ in hardware.edges}
    for (i, j) in logical_edges:
        covered = any((min(p, q), max(p, q)) in hw
                      for p in e.chains[i] for q in e.chains[j])
        if not covered:
            violations.append({"kind": "edge_coverage", "edge": [i, j]})
    return ValidationReport(violations)


def chain_stats(e_or_lengths) -> dict:
    """Mean, min, max and histogram of chain lengths."""
    lengths = e_or_lengths.lengths() if isinstance(e_or_lengths, Embedding) else list(e_or_lengths)
    if len(lengths) == 0:
        raise ValueError("no chains")
    hist: dict[int, int] = {}
    for v in lengths:
        hist[int(v)] = hist.get(int(v), 0) + 1
    return {
        "mean": float(np.mean(lengths)),
        "min": int(np.min(lengths)),
        "max": int(np.max(lengths)),
        "histogram": hist,
    }


def fit_linear(xs, ys) -> dict:
    """Ordinary least squares y = slope * x + intercept with R^2."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.size < 2 or np.unique(xs).size < 2:
        raise ValueError("need at least two distinct x values")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept), "r_squared": r2}
