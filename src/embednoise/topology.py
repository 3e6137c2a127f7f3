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
from typing import NamedTuple

import numpy as np

from ._integral import integral


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


def _shape(m: int, t: int) -> tuple[int, ...]:
    """The coordinate ranges (u, w, k, j, z); a vertex id is the row-major rank."""
    return 2, 2 * m + 1, t, 2, m


class ZephyrGraph:
    """Immutable Zephyr graph Z(m,t) as coupler arrays.

    `edges` is an (E, 2) int64 array of rows (a, b) with a < b, unique and
    sorted; `classes[e]` indexes EDGE_CLASSES. Vertex ids are lexicographic
    ranks of coordinates, so `vertices` is derived rather than stored.
    """

    def __init__(self, m: int, t: int, edges, classes):
        self.m, self.t = integral("m and t", [m, t], lo=1).tolist()
        n = len(self)
        self.edges = np.array(integral("coupler ids", edges)).reshape(-1, 2)  # a copy
        codes = integral("class codes", classes)
        a, b = self.edges.T
        if codes.shape != a.shape or np.any((codes < 0) | (codes >= len(EDGE_CLASSES))):
            raise ValueError("need one class code in 0..2 (an index into EDGE_CLASSES) per coupler")
        if np.any((a < 0) | (a >= b) | (b >= n)) or np.any(np.diff(a * n + b) <= 0):
            raise ValueError(f"couplers must be unique sorted integer rows 0 <= a < b < {n}")
        self.classes = codes.astype(np.int8)
        self.edges.flags.writeable = self.classes.flags.writeable = False

    def __len__(self) -> int:
        return vertex_count(self.m, self.t)

    @property
    def vertices(self) -> np.ndarray:
        """(n, 5) array whose row v is the coordinate (u, w, k, j, z) of vertex v."""
        return np.stack(np.unravel_index(np.arange(len(self)), _shape(self.m, self.t)), axis=1)

    def vertex_id(self, c: ZephyrCoordinate) -> int:
        return int(np.ravel_multi_index(tuple(c), _shape(self.m, self.t)))

    def _rows(self):
        return zip(*self.edges.T.tolist(), (EDGE_CLASSES[c] for c in self.classes.tolist()))

    def to_dict(self) -> dict:
        return {"m": self.m, "t": self.t, "vertices": self.vertices.tolist(),
                "edges": [list(row) for row in self._rows()]}

    def dumps(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "ZephyrGraph":
        codes = {c: i for i, c in enumerate(EDGE_CLASSES)}
        g = cls(d["m"], d["t"], [e[:2] for e in d["edges"]],
                [codes.get(e[2], -1) for e in d["edges"]])
        if not np.array_equal(np.asarray(d["vertices"]), g.vertices):
            raise ValueError(f"vertices are not the coordinates of Z({g.m},{g.t}) in id order")
        return g

    def to_edgelist(self) -> str:
        """One edge per line: 'a b class'."""
        return "\n".join(f"{a} {b} {cls}" for a, b, cls in self._rows()) + "\n"


def vertex_count(m: int, t: int) -> int:
    """Number of qubits in Z(m,t): 8tm^2 + 4tm."""
    m, t = integral("m and t", [m, t], lo=1).tolist()
    return 8 * t * m * m + 4 * t * m


def build_zephyr(m: int, t: int) -> ZephyrGraph:
    """Construct Z(m,t) with canonically ordered vertices and edges."""
    m, t = integral("m and t", [m, t], lo=1).tolist()
    ids = np.arange(vertex_count(m, t)).reshape(_shape(m, t))
    # internal: vertical (w, k, j, z) crosses horizontal (2z+j+r, k', j', z') where 2z'+j' = w-1+q
    w, k, j, z, r, q, kp = np.ix_(range(2 * m + 1), range(t), (0, 1), range(m),
                                  (0, 1), (0, 1), range(t))
    p = w - 1 + q
    inside = (p >= 0) & (p < 2 * m)
    p = np.clip(p, 0, 2 * m - 1)
    vertical, horizontal, inside = np.broadcast_arrays(
        ids[0, w, k, j, z], ids[1, 2 * z + j + r, kp, p % 2, p // 2], inside)
    groups = [(ids[..., :-1], ids[..., 1:], EXTERNAL),  # head-to-tail segments on one line
              (ids[..., 0, :], ids[..., 1, :], ODD),  # twins (j=0, z) ~ (j=1, z)
              (ids[..., 0, 1:], ids[..., 1, :-1], ODD),  # and (j=0, z) ~ (j=1, z-1)
              (vertical[inside], horizontal[inside], INTERNAL)]
    a, b = (np.concatenate([g[i].ravel() for g in groups]) for i in (0, 1))
    classes = np.repeat([EDGE_CLASSES.index(g[2]) for g in groups], [g[0].size for g in groups])
    order = np.lexsort((b, a))  # every a < b: u, then j, is the more significant digit
    return ZephyrGraph(m, t, np.stack([a, b], axis=1)[order], classes[order])

def degree_histogram(g: ZephyrGraph) -> dict[int, int]:
    """Map degree -> number of vertices with that degree, keyed in order of first vertex."""
    return dict(Counter(np.bincount(g.edges.ravel(), minlength=len(g)).tolist()))
