import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from embednoise.topology import (EDGE_CLASSES, EXTERNAL, INTERNAL, ODD, ZephyrGraph, _shape,
                                 build_zephyr, degree_histogram, vertex_count)

FIXTURE = Path(__file__).parent / "data" / "zephyr_2_2_edges.txt"


class TestVertexCount:
    def test_paper_flagship_size(self):
        assert vertex_count(15, 4) == 7440

    def test_small_sizes(self):
        assert vertex_count(1, 4) == 48
        assert vertex_count(2, 1) == 40

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            vertex_count(0, 4)
        with pytest.raises(ValueError):
            vertex_count(3, 0)

    @pytest.mark.parametrize("m, t", [(1.5, 4), (2, 4.5), (float("nan"), 4), (2, float("inf"))])
    def test_rejects_non_integral(self, m, t):
        # vertex_count(1.5, 4) used to return 96.0 and build_zephyr to raise a bare TypeError
        for f in (vertex_count, build_zephyr):
            with pytest.raises(ValueError, match="m and t must be integers >= 1"):
                f(m, t)

    def test_integral_floats_are_the_integers(self):
        assert vertex_count(2.0, 4.0) == 160 and type(vertex_count(2.0, 4.0)) is int
        g = build_zephyr(2.0, 4.0)
        assert (g.m, g.t) == (2, 4) and np.array_equal(g.edges, build_zephyr(2, 4).edges)


def class_counts(g):
    return {c: int(np.count_nonzero(g.classes == i)) for i, c in enumerate(EDGE_CLASSES)}


def adjacency_sets(g):
    adj = [set() for _ in range(len(g))]
    for a, b in g.edges.tolist():
        adj[a].add(b)
        adj[b].add(a)
    return adj


class TestBuildZephyr:
    def test_z14_vertices_and_degree(self):
        g = build_zephyr(1, 4)
        assert len(g.vertices) == 48
        # the full interior degree 4t+4 = 20 needs m >= 3; Z(1,4) tops out at 17
        assert max(degree_histogram(g)) == 17

    def test_interior_degree_reached_for_m3(self):
        g = build_zephyr(3, 4)
        assert max(degree_histogram(g)) == 20

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_structural_invariants(self, m, t):
        g = build_zephyr(m, t)
        assert len(g.vertices) == vertex_count(m, t)
        # simple graph: no loops, no duplicates (ignoring class)
        pairs = [(a, b) for a, b in g.edges.tolist()]
        assert all(a < b for a, b in pairs)
        assert len(set(pairs)) == len(pairs)
        # per-class degree caps: 4t internal, 2 external, 2 odd
        caps = {INTERNAL: 4 * t, EXTERNAL: 2, ODD: 2}
        per_class = {c: [0] * len(g.vertices) for c in EDGE_CLASSES}
        for (a, b), code in zip(g.edges.tolist(), g.classes.tolist()):
            per_class[EDGE_CLASSES[code]][a] += 1
            per_class[EDGE_CLASSES[code]][b] += 1
        for cls, cap in caps.items():
            assert max(per_class[cls]) <= cap
        assert max(degree_histogram(g)) <= 4 * t + 4
        if m >= 3:
            assert max(degree_histogram(g)) == 4 * t + 4

    @pytest.mark.parametrize("m,t", [(1, 1), (2, 2), (3, 4), (4, 2)])
    def test_edge_class_counts_match_formulas(self, m, t):
        counts = class_counts(build_zephyr(m, t))
        assert counts[INTERNAL] == 16 * t * t * m * m
        assert counts[EXTERNAL] == 4 * t * (2 * m + 1) * (m - 1)
        assert counts[ODD] == 2 * t * (2 * m + 1) * (2 * m - 1)

    def test_flagship_coupler_total(self):
        # Z(15,4) has 71736 couplers; checked against the published totals
        counts = class_counts(build_zephyr(15, 4))
        assert sum(counts.values()) == 71736

    def test_deterministic_and_canonical(self):
        a = build_zephyr(2, 3)
        b = build_zephyr(2, 3)
        assert np.array_equal(a.edges, b.edges) and np.array_equal(a.classes, b.classes)
        assert a.edges.tolist() == sorted(a.edges.tolist())

    def test_matches_committed_fixture(self):
        g = build_zephyr(2, 2)
        assert g.to_edgelist() == FIXTURE.read_text()

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            build_zephyr(0, 2)

    @pytest.mark.parametrize("m,t", [(1, 1), (2, 3), (3, 2)])
    def test_vertex_id_is_the_rank_in_vertices(self, m, t):
        # chains take a coordinate's id from the id ranks reshaped to the coordinate ranges
        g = build_zephyr(m, t)
        ids = np.arange(len(g)).reshape(_shape(m, t))
        assert [ids[tuple(c)] for c in g.vertices.tolist()] == list(range(len(g.vertices)))

    @pytest.mark.parametrize("m,t", [(1, 1), (2, 3), (3, 2)])
    def test_vertices_are_the_coordinates_in_lexicographic_order(self, m, t):
        g = build_zephyr(m, t)
        want = itertools.product((0, 1), range(2 * m + 1), range(t), (0, 1), range(m))
        assert g.vertices.tolist() == [list(c) for c in want]
        assert len(g) == vertex_count(m, t)


class TestDegreeHistogram:
    def test_counts_sum_to_vertex_count(self):
        g = build_zephyr(2, 2)
        assert sum(degree_histogram(g).values()) == len(g.vertices)

    def test_empty_edge_graph(self):
        g = build_zephyr(1, 1)
        empty = ZephyrGraph(m=1, t=1, edges=[], classes=[])
        assert degree_histogram(empty) == {0: len(g.vertices)}

    def test_fixture_histogram(self):
        g = build_zephyr(2, 2)
        lines = [ln.split() for ln in FIXTURE.read_text().splitlines()]
        deg = [0] * len(g.vertices)
        for a, b, _ in lines:
            deg[int(a)] += 1
            deg[int(b)] += 1
        hist = {}
        for d in deg:
            hist[d] = hist.get(d, 0) + 1
        assert degree_histogram(g) == hist


class TestNativeSubgraphs:
    def test_contains_k4(self):
        # a pair of odd twins in each orientation at a crossing forms K4
        g = build_zephyr(3, 4)
        adj = adjacency_sets(g)
        found = False
        for a, b in g.edges.tolist():
            common = adj[a] & adj[b]
            for c in common:
                if common & adj[c]:
                    found = True
                    break
            if found:
                break
        assert found

    def test_contains_k88(self):
        # t=4 qubits per group, two groups crossing -> complete bipartite K_{8,8}
        g = build_zephyr(3, 4)
        adj = adjacency_sets(g)
        # verticals covering rows {2z+j, 2z+j+1} at w with both j shifts:
        # take u=0, w=3, all k, j in {0,1} around z chosen so windows overlap
        ids = np.arange(len(g)).reshape(_shape(3, 4))
        left = ids[0, 3, :, :, 1].ravel().tolist()
        right = ids[1, 3, :, :, 1].ravel().tolist()
        # at least one 8x8 biclique among these groups exists in Zephyr; check
        # the specific aligned choice is fully connected
        ok = all(b in adj[a] for a in left for b in right)
        assert ok


class TestSerialization:
    def test_json_roundtrip(self):
        g = build_zephyr(2, 2)
        d = json.loads(g.dumps())
        assert d == g.to_dict() and (d["m"], d["t"]) == (2, 2)
        assert d["vertices"] == g.vertices.tolist()
        assert [e[:2] for e in d["edges"]] == g.edges.tolist()
        assert [e[2] for e in d["edges"]] == [EDGE_CLASSES[c] for c in g.classes.tolist()]

    def test_edgelist_format(self):
        g = build_zephyr(1, 1)
        for line in g.to_edgelist().splitlines():
            a, b, cls = line.split()
            assert int(a) < int(b)
            assert cls in EDGE_CLASSES


class TestRepresentation:
    """The one coupler format: unique sorted int64 rows (a, b), a < b, and int8 class codes."""

    def test_arrays(self):
        g = build_zephyr(2, 2)
        assert g.edges.dtype == np.int64 and g.edges.shape == (356, 2)
        assert g.classes.dtype == np.int8 and g.classes.shape == (356,)
        assert len(g) == 80 and g.vertices.shape == (80, 5)
        with pytest.raises(ValueError):
            g.edges[0, 0] = 1  # read-only: the embedding check relies on the order

    @pytest.mark.parametrize("m, edges, classes", [
        (1, [[1, 1]], [0]),  # a == b
        (1, [[2, 1]], [0]),  # a > b
        (1, [[0, 1], [0, 1]], [0, 0]),  # duplicate row
        (1, [[0, 2], [0, 1]], [0, 0]),  # unsorted rows
        (1, [[0, 12]], [0]),  # id >= n = 12
        (1, [[-1, 3]], [0]),  # negative id
        (1, [[0, 1]], [3]),  # unknown class code
        (1, [[0, 1]], [-1]),
        (1, [[0, 1]], [258]),  # would wrap to code 2 in int8
        (1, [[0, 1], [0, 2]], [0]),  # one code short
        (1, [[0, 1.5]], [0]),  # would truncate to (0, 1)
        (1.5, [[0, 1]], [0]),  # would build as Z(1,1)
    ], ids=["a==b", "a>b", "duplicate", "unsorted", "id>=n", "negative", "class-3",
            "class-neg", "class-wraps", "class-short", "fractional-id", "fractional-m"])
    def test_constructor_rejects(self, m, edges, classes):
        with pytest.raises(ValueError):
            ZephyrGraph(m, 1, edges, classes)

    def test_constructor_copies_the_edges(self):
        # the order check runs once, so an edit to the caller's array must not reach the graph
        g = build_zephyr(1, 1)
        edges = np.array(g.edges)
        h = ZephyrGraph(1, 1, edges, g.classes)
        edges[0] = [5, 6]
        assert np.array_equal(h.edges, g.edges)

    def test_constructor_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            ZephyrGraph(0, 1, [], [])

    @pytest.mark.parametrize("edit", ["a>=b", "duplicate", "unsorted", "id>=n", "fractional-id",
                                      "class", "fractional-m"])
    def test_from_dict_rejects(self, edit):
        # no command reads the zephyr JSON back, so an edited copy must still fail in the
        # constructor when its m, t, edge rows and class names are passed to it as they stand
        d = json.loads(build_zephyr(1, 1).dumps())
        if edit == "a>=b":
            d["edges"][0][:2] = d["edges"][0][1::-1]
        elif edit == "duplicate":
            d["edges"].append(d["edges"][-1])
        elif edit == "unsorted":
            d["edges"][0], d["edges"][1] = d["edges"][1], d["edges"][0]
        elif edit == "id>=n":
            d["edges"][-1][1] = 12
        elif edit == "fractional-id":  # would truncate to the coupler (0, 1)
            d["edges"][0][1] = 1.5
        elif edit == "class":
            d["edges"][0][2] = "diagonal"
        else:  # would build as Z(1,1)
            d["m"] = 1.5
        codes = {name: code for code, name in enumerate(EDGE_CLASSES)}
        with pytest.raises(ValueError):
            ZephyrGraph(d["m"], d["t"], [e[:2] for e in d["edges"]],
                        [codes.get(e[2], len(EDGE_CLASSES)) for e in d["edges"]])

