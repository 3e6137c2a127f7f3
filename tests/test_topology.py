from pathlib import Path

import pytest

from embednoise.topology import (EDGE_CLASSES, EXTERNAL, INTERNAL, ODD,
                                 ZephyrGraph, build_zephyr, degree_histogram,
                                 vertex_count)

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


def class_counts(g):
    counts = {c: 0 for c in EDGE_CLASSES}
    for _, _, cls in g.edges:
        counts[cls] += 1
    return counts


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
        pairs = [(a, b) for a, b, _ in g.edges]
        assert all(a < b for a, b in pairs)
        assert len(set(pairs)) == len(pairs)
        # per-class degree caps: 4t internal, 2 external, 2 odd
        caps = {INTERNAL: 4 * t, EXTERNAL: 2, ODD: 2}
        per_class = {c: [0] * len(g.vertices) for c in EDGE_CLASSES}
        for a, b, cls in g.edges:
            per_class[cls][a] += 1
            per_class[cls][b] += 1
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
        assert a.edges == b.edges
        assert a.edges == sorted(a.edges)

    def test_matches_committed_fixture(self):
        g = build_zephyr(2, 2)
        assert g.to_edgelist() == FIXTURE.read_text()

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            build_zephyr(0, 2)

    @pytest.mark.parametrize("m,t", [(1, 1), (2, 3), (3, 2)])
    def test_vertex_id_is_the_rank_in_vertices(self, m, t):
        g = build_zephyr(m, t)
        assert [g.vertex_id(c) for c in g.vertices] == list(range(len(g.vertices)))


class TestDegreeHistogram:
    def test_counts_sum_to_vertex_count(self):
        g = build_zephyr(2, 2)
        assert sum(degree_histogram(g).values()) == len(g.vertices)

    def test_empty_edge_graph(self):
        g = build_zephyr(1, 1)
        empty = ZephyrGraph(m=1, t=1, vertices=g.vertices, edges=[])
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
        adj = [set() for _ in g.vertices]
        for a, b, _ in g.edges:
            adj[a].add(b)
            adj[b].add(a)
        found = False
        for a, b, _ in g.edges:
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
        adj = [set() for _ in g.vertices]
        for a, b, _ in g.edges:
            adj[a].add(b)
            adj[b].add(a)
        # verticals covering rows {2z+j, 2z+j+1} at w with both j shifts:
        # take u=0, w=3, all k, j in {0,1} around z chosen so windows overlap
        left = [g.vertex_id(type(g.vertices[0])(0, 3, k, j, 1)) for k in range(4)
                for j in (0, 1)]
        right = [g.vertex_id(type(g.vertices[0])(1, 3, k, j, 1)) for k in range(4)
                 for j in (0, 1)]
        # at least one 8x8 biclique among these groups exists in Zephyr; check
        # the specific aligned choice is fully connected
        ok = all(b in adj[a] for a in left for b in right)
        assert ok


class TestSerialization:
    def test_json_roundtrip(self):
        g = build_zephyr(2, 2)
        r = ZephyrGraph.from_dict(g.to_dict())
        assert r.edges == g.edges and r.vertices == g.vertices

    def test_edgelist_format(self):
        g = build_zephyr(1, 1)
        for line in g.to_edgelist().splitlines():
            a, b, cls = line.split()
            assert int(a) < int(b)
            assert cls in EDGE_CLASSES
