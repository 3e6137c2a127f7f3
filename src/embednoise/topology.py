"""Zephyr hardware graph Z(m,t) with labeled coupler classes.

Qubits carry coordinates (u, w, k, j, z):

    u in {0,1}   orientation (vertical / horizontal)
    w in [0,2m]  perpendicular offset (grid line)
    k in [0,t)   index within a group of parallel qubits
    j in {0,1}   half-tile shift
    z in [0,m)   parallel offset along the qubit's line

Each qubit is a segment spanning parallel positions [2z+j, 2z+j+2], i.e.
the two tile rows (or columns) {2z+j, 2z+j+1}. Coupler classes:

    internal  orthogonal qubits whose two-tile windows cross:
              (0,w,k,j,z) ~ (1,w',k',j',z')  iff
              w' in {2z+j, 2z+j+1} and w in {2z'+j', 2z'+j'+1}
    external  collinear head-to-tail segments: same (u,w,k,j), |z - z'| = 1
    odd       overlapping parallel twins: same (u,w,k), j=0 paired with
              j=1 at z' in {z-1, z}

This yields 8tm^2 + 4tm vertices and a maximum degree of 4t+4, attained
in the interior (4t internal + 2 external + 2 odd); boundary vertices
have fewer incident edges, so graphs with m < 3 top out below 4t+4.
The exact maximum degree is:

    m = 1    4t+1  (no z+-1 inside [0,1): 0 external; only z'=z: 1 odd)
    m = 2    4t+3  (one of z+-1 inside [0,2): 1 external; 2 odd at j=0, z=1)
    m >= 3   4t+4  (interior z: 2 external; 2 odd)
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple


class ZephyrCoordinate(NamedTuple):
    u: int
    w: int
    k: int
    j: int
    z: int


INTERNAL = "internal"
EXTERNAL = "external"
ODD = "odd"
EDGE_CLASSES = (INTERNAL, EXTERNAL, ODD)


def _vertex_id(m: int, t: int, u: int, w: int, k: int, j: int, z: int) -> int:
    """Lexicographic rank of the coordinate (u, w, k, j, z) among the qubits of Z(m,t)."""
    return (((u * (2 * m + 1) + w) * t + k) * 2 + j) * m + z


@dataclass
class ZephyrGraph:
    """Immutable Zephyr graph; vertex ids are lexicographic ranks of coordinates."""

    m: int
    t: int
    vertices: list[ZephyrCoordinate]
    edges: list[tuple[int, int, str]]

    def vertex_id(self, c: ZephyrCoordinate) -> int:
        return _vertex_id(self.m, self.t, *c)

    def adjacency(self) -> list[list[int]]:
        adj = [[] for _ in self.vertices]
        for a, b, _ in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "t": self.t,
            "vertices": [list(v) for v in self.vertices],
            "edges": [[a, b, cls] for a, b, cls in self.edges],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "ZephyrGraph":
        return cls(
            m=int(d["m"]),
            t=int(d["t"]),
            vertices=[ZephyrCoordinate(*map(int, v)) for v in d["vertices"]],
            edges=[(int(a), int(b), str(c)) for a, b, c in d["edges"]],
        )

    def to_edgelist(self) -> str:
        """One edge per line: 'a b class'."""
        return "\n".join(f"{a} {b} {cls}" for a, b, cls in self.edges) + "\n"


def vertex_count(m: int, t: int) -> int:
    """Number of qubits in Z(m,t): 8tm^2 + 4tm."""
    if m < 1 or t < 1:
        raise ValueError("m and t must be >= 1")
    return 8 * t * m * m + 4 * t * m


def build_zephyr(m: int, t: int) -> ZephyrGraph:
    """Construct Z(m,t) with canonically ordered vertices and edges."""
    if m < 1 or t < 1:
        raise ValueError("m and t must be >= 1")

    vertices = [
        ZephyrCoordinate(u, w, k, j, z)
        for u in (0, 1)
        for w in range(2 * m + 1)
        for k in range(t)
        for j in (0, 1)
        for z in range(m)
    ]

    vid = partial(_vertex_id, m, t)
    edges = []

    # external: consecutive head-to-tail segments on the same line
    for u in (0, 1):
        for w in range(2 * m + 1):
            for k in range(t):
                for j in (0, 1):
                    for z in range(m - 1):
                        edges.append((vid(u, w, k, j, z), vid(u, w, k, j, z + 1), EXTERNAL))

    # odd: overlapping parallel twins on the same line
    for u in (0, 1):
        for w in range(2 * m + 1):
            for k in range(t):
                for z0 in range(m):
                    for z1 in (z0 - 1, z0):
                        if 0 <= z1 < m:
                            edges.append((vid(u, w, k, 0, z0), vid(u, w, k, 1, z1), ODD))

    # internal: orthogonal qubits with crossing two-tile windows
    for w in range(2 * m + 1):
        for j in (0, 1):
            for z in range(m):
                rows = (2 * z + j, 2 * z + j + 1)
                cols = []
                for p in (w - 1, w):  # 2z'+j' must equal w-1 or w
                    if 0 <= p <= 2 * m - 1:
                        cols.append((p % 2, p // 2))
                for k in range(t):
                    a = vid(0, w, k, j, z)
                    for wp in rows:
                        for jp, zp in cols:
                            for kp in range(t):
                                edges.append((a, vid(1, wp, kp, jp, zp), INTERNAL))

    edges = [(a, b, cls) if a < b else (b, a, cls) for a, b, cls in edges]
    edges.sort()
    return ZephyrGraph(m=m, t=t, vertices=vertices, edges=edges)


def degree_histogram(g: ZephyrGraph) -> dict[int, int]:
    """Map degree -> number of vertices with that degree."""
    deg = Counter(v for a, b, _ in g.edges for v in (a, b))
    return dict(Counter(deg[v] for v in range(len(g.vertices))))
