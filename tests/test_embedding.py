import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embednoise.embedding import (ChainLengthModel, Embedding, build_embedded_ising,
                                  fit_linear, synth_chain_lengths, validate_embedding)
from embednoise.problem import IsingModel, generate_random_qubo, ising_energy, qubo_to_ising
from embednoise.topology import ZephyrCoordinate, build_zephyr


def couplers(m):
    """The model's couplers as {(i, j): J_ij}, read from its arrays."""
    return dict(zip(zip(m.ei.tolist(), m.ej.tolist()), m.jv.tolist()))


def hardware_couplers(emb):
    """The embedded model's couplers as {(p, q): J_pq}, named by hardware qubit id."""
    q = emb.qubits.tolist()
    return {(q[i], q[j]): v for (i, j), v in couplers(emb.model).items()}


def chain_of_spin(emb):
    """The chain of each model spin, read off chain_spins and chain_ptr."""
    chain = np.empty(emb.model.n, dtype=np.int64)
    chain[emb.chain_spins] = np.repeat(np.arange(len(emb.chain_ptr) - 1), np.diff(emb.chain_ptr))
    return chain


def intra_count(emb):
    """The couplers whose two spins lie in one chain."""
    chain = chain_of_spin(emb)
    return int(np.count_nonzero(chain[emb.model.ei] == chain[emb.model.ej]))


def provenance(emb):
    """Each coupler (p, q), by hardware id, mapped to ("intra", i) for the penalty inside
    chain i or to ("inter", (i, j)) for a share of J_ij."""
    chain = chain_of_spin(emb)
    ci, cj = chain[emb.model.ei], chain[emb.model.ej]
    p, q = emb.qubits[emb.model.ei], emb.qubits[emb.model.ej]
    return {(a, b): ("intra", i) if i == j else ("inter", (min(i, j), max(i, j)))
            for a, b, i, j in zip(p.tolist(), q.tolist(), ci.tolist(), cj.tolist())}


def adjacency(hw):
    """Each qubit's hardware neighbours, in ascending id order."""
    adj = [[] for _ in range(len(hw))]
    for a, b in hw.edges.tolist():
        adj[a].append(b)
        adj[b].append(a)
    return adj


SMALL_ZEPHYRS = (build_zephyr(1, 2), build_zephyr(2, 2))


@st.composite
def chain_sets(draw):
    """Up to four chains of up to five ids, each id a hardware neighbour of the
    one before it three times in four, else any id in -1..size; plus a set of
    logical edges between the chains."""
    hw = draw(st.sampled_from(SMALL_ZEPHYRS))
    adj, ids = adjacency(hw), st.integers(-1, len(hw))
    chains = []
    for _ in range(draw(st.integers(1, 4))):
        chain = []
        for _ in range(draw(st.integers(0, 5))):
            if chain and 0 <= chain[-1] < len(adj) and draw(st.integers(0, 3)):
                chain.append(draw(st.sampled_from(adj[chain[-1]])))
            else:
                chain.append(draw(ids))
        chains.append(chain)
    pairs = list(itertools.combinations(range(len(chains)), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return hw, chains, edges


def enumerate_spins(n):
    for idx in range(1 << n):
        yield np.array([2 * ((idx >> (n - 1 - b)) & 1) - 1 for b in range(n)])


def aligned_physical(s, chains, n_phys):
    phys = np.empty(n_phys, dtype=np.int64)
    for i, chain in enumerate(chains):
        for p in chain:
            phys[p] = s[i]
    return phys


class TestSynthChainLengths:
    def test_paper_point(self):
        # round(0.122 * 100 + 1.0) = round(13.2) = 13
        lengths = synth_chain_lengths(100, ChainLengthModel(slope=0.122), seed=0)
        assert np.all(lengths == 13)

    def test_identity_embedding(self):
        lengths = synth_chain_lengths(5, ChainLengthModel(slope=0.0, intercept=1.0), seed=0)
        assert np.all(lengths == 1)

    def test_jitter_stays_within_band_and_positive(self):
        model = ChainLengthModel(slope=0.122, intercept=1.0, jitter=2)
        lengths = synth_chain_lengths(50, model, seed=3)
        base = round(0.122 * 50 + 1.0)
        assert np.all(lengths >= 1)
        assert np.all(np.abs(lengths - base) <= 2)

    def test_deterministic(self):
        model = ChainLengthModel(slope=0.122, jitter=3)
        a = synth_chain_lengths(40, model, seed=9)
        b = synth_chain_lengths(40, model, seed=9)
        assert np.array_equal(a, b)

    def test_exact_linear_recovery_on_integer_lattice(self):
        # slope 0.2 with L multiples of 5 makes the law land on integers,
        # so the regression recovers it exactly
        model = ChainLengthModel(slope=0.2, intercept=1.0)
        Ls = np.arange(5, 105, 5)
        means = [np.mean(synth_chain_lengths(int(L), model, seed=0)) for L in Ls]
        fit = fit_linear(Ls, means)
        assert fit["slope"] == pytest.approx(0.2, abs=1e-9)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_rounded_slope_near_nominal(self):
        # at slope 0.122 the rounded lengths form a staircase; the refit
        # stays close to the nominal slope but is not exact
        model = ChainLengthModel(slope=0.122, intercept=1.0)
        Ls = np.arange(5, 105, 5)
        means = [np.mean(synth_chain_lengths(int(L), model, seed=0)) for L in Ls]
        fit = fit_linear(Ls, means)
        assert abs(fit["slope"] - 0.122) < 0.01
        assert fit["r_squared"] > 0.95

    @pytest.mark.parametrize("fields", [
        {"slope": float("nan")}, {"slope": float("inf")}, {"slope": 0.1, "intercept": float("nan")},
        {"slope": 0.1, "intercept": -float("inf")}, {"slope": -0.1},
        {"slope": 0.1, "jitter": 1.5}, {"slope": 0.1, "jitter": -1},
        {"slope": 0.1, "jitter": float("nan")}, {"slope": 0.1, "jitter": float("inf")},
    ], ids=["nan-slope", "inf-slope", "nan-intercept", "inf-intercept", "negative-slope",
            "fractional-jitter", "negative-jitter", "nan-jitter", "inf-jitter"])
    def test_model_rejects_bad_fields(self, fields):
        # a NaN slope used to fail inside synth_chain_lengths with "cannot convert float
        # NaN to integer", inf with an OverflowError; jitter 1.5 was accepted
        with pytest.raises(ValueError):
            ChainLengthModel(**fields)

    def test_integral_float_jitter_is_the_integer(self):
        model = ChainLengthModel(slope=0.122, jitter=2.0)
        assert model.jitter == 2 and type(model.jitter) is int
        assert np.array_equal(synth_chain_lengths(40, model, seed=9),
                              synth_chain_lengths(40, ChainLengthModel(0.122, jitter=2), seed=9))


class TestBuildEmbeddedIsing:
    def test_field_and_coupler_division(self):
        logical = IsingModel(n=2, h=np.array([0.6, -0.4]), J={(0, 1): 0.8}, offset=0.25)
        emb = build_embedded_ising(logical, [3, 2], k=1.5)
        m = emb.model
        assert m.n == 5
        assert np.allclose(m.h[:3], 0.2)
        assert np.allclose(m.h[3:], -0.2)
        # chains are paths 0-1-2 and 3-4; one connecting edge carries J
        J = couplers(m)
        assert J[(0, 1)] == -1.5 and J[(1, 2)] == -1.5 and J[(3, 4)] == -1.5
        assert J[(0, 3)] == pytest.approx(0.8)
        assert m.offset == 0.25
        assert intra_count(emb) == 3
        # path chains over ids 0..n-1: spins in chain order, chains at the cumulative lengths
        assert emb.chain_spins.tolist() == [0, 1, 2, 3, 4]
        assert emb.chain_ptr.tolist() == [0, 3, 5]

    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf])
    def test_rejects_non_integral_lengths(self, bad):
        # int(2.5) used to build the 8-spin model of [2, 2, 2, 2]
        logical = qubo_to_ising(generate_random_qubo(4, 1.0, seed=5))
        with pytest.raises(ValueError, match="chain lengths must be integers"):
            build_embedded_ising(logical, [2, bad, 2, 2], k=2.0)

    def test_integral_float_length_is_the_integer(self):
        logical = qubo_to_ising(generate_random_qubo(4, 1.0, seed=5))
        a = build_embedded_ising(logical, [2, 3.0, 2, 2], k=2.0).model
        b = build_embedded_ising(logical, [2, 3, 2, 2], k=2.0).model
        assert all(np.array_equal(x, y) for x, y in zip((a.h, a.ei, a.ej, a.jv),
                                                        (b.h, b.ei, b.ej, b.jv)))

    def test_rejects_nonpositive_k(self):
        logical = IsingModel(n=1, h=np.zeros(1))
        with pytest.raises(ValueError):
            build_embedded_ising(logical, [2], k=0.0)

    def test_provenance_partition_and_recovery(self):
        q = generate_random_qubo(4, 1.0, seed=5)
        logical = qubo_to_ising(q)
        emb = build_embedded_ising(logical, [2, 3, 1, 2], k=2.0)
        shares = {}
        for edge, tag in provenance(emb).items():
            if tag[0] == "inter":
                shares.setdefault(tag[1], 0.0)
                shares[tag[1]] += couplers(emb.model)[edge]
            else:
                assert couplers(emb.model)[edge] == -2.0
        for key, v in shares.items():
            assert v == pytest.approx(couplers(logical)[key], abs=1e-12)
        assert set(provenance(emb)) == set(couplers(emb.model))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("lengths", [[1, 1], [2, 3], [3, 3, 2], [1, 2, 3, 2]])
    def test_aligned_energy_identity(self, seed, lengths):
        n = len(lengths)
        q = generate_random_qubo(n, 1.0, seed=seed)
        logical = qubo_to_ising(q)
        k = 1.7
        emb = build_embedded_ising(logical, lengths, k)
        assert np.array_equal(emb.chain_spins, np.arange(emb.model.n))
        assert np.array_equal(emb.chain_ptr, np.cumsum([0] + lengths))
        intra = intra_count(emb)
        for s in enumerate_spins(n):
            phys = aligned_physical(s, emb.embedding.chains, emb.model.n)
            lhs = ising_energy(emb.model, phys)
            rhs = ising_energy(logical, s) - k * intra
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_single_flip_costs_2k(self):
        # flip the far end of a chain: only one intra edge (no inter edge)
        # changes sign, raising the energy by exactly 2k
        logical = IsingModel(n=2, h=np.zeros(2), J={(0, 1): 0.3})
        k = 1.25
        emb = build_embedded_ising(logical, [3, 2], k)
        s = np.array([1, -1])
        phys = aligned_physical(s, emb.embedding.chains, emb.model.n)
        base = ising_energy(emb.model, phys)
        flipped = phys.copy()
        flipped[2] = -flipped[2]  # last qubit of chain 0
        assert ising_energy(emb.model, flipped) - base == pytest.approx(2 * k, abs=1e-12)

    def test_explicit_embedding_on_hardware(self):
        hw = build_zephyr(2, 2)
        adj = adjacency(hw)
        # grow two adjacent chains greedily from an edge
        a, b = hw.edges[0].tolist()
        chain_a = [a, next(v for v in adj[a] if v != b)]
        chain_b = [b, next(v for v in adj[b] if v not in chain_a and v != a)]
        logical = IsingModel(n=2, h=np.array([0.5, -0.5]), J={(0, 1): 1.0})
        emb = build_embedded_ising(logical, Embedding([chain_a, chain_b], hw), k=1.0)
        hw_pairs = {(min(x, y), max(x, y)) for x, y in hw.edges.tolist()}
        assert set(hardware_couplers(emb)) <= hw_pairs
        inter = [e for e, tag in provenance(emb).items() if tag[0] == "inter"]
        assert sum(hardware_couplers(emb)[e] for e in inter) == pytest.approx(1.0)

    def test_model_spins_are_the_used_qubits(self):
        # qubits 0..157 of Z(2,4) belong to no chain: they are not spins of the model
        hw = build_zephyr(2, 4)
        logical = IsingModel(n=2, h=np.array([0.5, -0.5]), J={(0, 1): 1.0})
        emb = build_embedded_ising(logical, Embedding([[159], [158]], hw), k=1.0)
        assert emb.model.n == 2 and emb.qubits.tolist() == [158, 159]
        assert emb.model.h.tolist() == [-0.5, 0.5] and couplers(emb.model) == {(0, 1): 1.0}
        assert provenance(emb) == {(158, 159): ("inter", (0, 1))}
        assert emb.chain_spins.tolist() == [1, 0] and emb.chain_ptr.tolist() == [0, 1, 2]
        assert validate_embedding(emb.embedding, hw, [(0, 1)]).ok

    def test_non_integral_member_rejected(self):
        # 159.7 used to be cast to 159: the model built on qubits [158, 159] and the
        # report found the chains ok
        hw = build_zephyr(2, 4)
        logical = IsingModel(n=2, h=np.array([0.5, -0.5]), J={(0, 1): 1.0})
        bad = Embedding([[159.7], [158]], hw)
        with pytest.raises(ValueError, match="chain 0 members must be integers, got 159.7"):
            build_embedded_ising(logical, bad, k=1.0)
        with pytest.raises(ValueError, match="chain 0 members must be integers"):
            validate_embedding(bad, hw, [(0, 1)])
        emb = build_embedded_ising(logical, Embedding([[159.0], [158]], hw), k=1.0)
        assert emb.qubits.tolist() == [158, 159] and emb.chain_spins.tolist() == [1, 0]

    def test_embedding_without_hardware_rejected(self):
        # consecutive ids would be taken as chain edges that may not exist
        logical = IsingModel(n=2, h=np.zeros(2), J={(0, 1): 1.0})
        bare = Embedding([[0, 1], [2, 3]])
        with pytest.raises(ValueError, match="hardware"):
            build_embedded_ising(logical, bare, k=1.0)

    @pytest.mark.parametrize("chains, match", [
        ([[0], []], "chain 1 is empty"),
        ([[-1], [0]], "chain 0 holds a qubit id outside 0..11"),
        ([[0], [5000]], "chain 1 holds a qubit id outside 0..11"),
        ([[0, 4], [4]], "chains share qubit 4"),
        ([[0], [2]], r"logical edge \(0,1\) has no physical edge between chains"),
        ([[0, 2], [1]], "chain 0 is not connected"),
    ], ids=["empty", "negative", "too-large", "overlap", "uncovered", "disconnected"])
    def test_bad_chain_rejected(self, chains, match):
        # ids index the hardware's qubits: -1 used to wrap onto qubit 0, 5000
        # to build a 5001-spin model on 12 qubits, and a shared qubit failed
        # later as a duplicate coupler. Qubits 0 and 2 of Z(1,1) share no coupler,
        # so chain [0, 2] used to build as two parts with no -k between them
        logical = IsingModel(n=2, h=np.array([0.5, -0.5]), J={(0, 1): 1.0})
        with pytest.raises(ValueError, match=match):
            build_embedded_ising(logical, Embedding(chains, build_zephyr(1, 1)), k=1.0)

    @pytest.mark.parametrize("case, digests", [
        ("path", ("91bcb4cd1a57cc4ddafa9951e946ccba70cf8c393e0be428c11b112816334c2a",
                  "b182e725cda2875c22030d67fc205c1354b5db2874600f4ced50fc7864ea66b3",
                  "96ff1892d99664ac934176924e06ac09fd4a6d32dd9f1e636e22ab5f4f73b278",
                  "e59486d28e4d86876b0ca130901dde28f9b5e2e3ee5b13f9601d20b2a1443966",
                  "4e65ac8d458dd80666c440a844d06990af66f9c941391d8c96b00475176e7592")),
        ("hardware", ("24f7d3ccdbcbc22ef7faa1f5ab1144d67cd6d87d4b99c3edd8c5c56f91cab42a",
                      "86aca6beeec458fcbec0ef437d2267da33c7bae98f6d446d5cd516c8e3e73c70",
                      "f9d11f7c7325f9c5775ff1292235f4f85ec68990be55520feb5e3332b26449cb",
                      "4a82fa59e14922075a48c9ac707cde3a7e16fff3c268706bc1d7c49244abec5d",
                      "41259c90ba5110078bb80a1227f5c64e2051fc23a0bd4b582976187d6eb16242")),
    ])
    def test_build_is_pinned(self, case, digests):
        # sha256 of h, ei, ej, jv and the sorted provenance items, recorded from the per-chain
        # loop build. The hardware chains are Zephyr lines (u, w, k, j) of Z(2,4), one or two
        # per chain; they join chain pairs by 1, 2 and 3 couplers, and J / 3 differs from
        # J * (1 / 3) on this instance, so the division is pinned too
        if case == "path":
            logical = qubo_to_ising(generate_random_qubo(4, 1.0, seed=5))
            emb = build_embedded_ising(logical, [1, 2, 3, 2], k=2.0)
        else:
            hw = build_zephyr(2, 4)
            lines = [[(0, 2, 1, 1)], [(0, 2, 1, 0)], [(0, 1, 1, 0), (1, 1, 1, 0)],
                     [(0, 1, 0, 0), (1, 1, 0, 0)]]
            chains = [[hw.vertex_id(ZephyrCoordinate(*line, z)) for line in spec for z in (0, 1)]
                      for spec in lines]
            logical = qubo_to_ising(generate_random_qubo(4, 1.0, seed=0))
            emb = build_embedded_ising(logical, Embedding(chains, hw), k=2.0)
            shares = Counter(tag[1] for tag in provenance(emb).values() if tag[0] == "inter")
            assert sorted(shares.values()) == [1, 1, 1, 1, 2, 3]
        arrays = [emb.model.h, emb.model.ei, emb.model.ej, emb.model.jv]
        got = [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]
        got.append(hashlib.sha256(repr(sorted(provenance(emb).items())).encode()).hexdigest())
        assert tuple(got) == digests

    @settings(deadline=None, max_examples=300)
    @given(chain_sets())
    def test_build_raises_iff_report_not_ok(self, case):
        hw, chains, edges = case
        logical = IsingModel(len(chains), np.zeros(len(chains)), {e: 1.0 for e in edges})
        report = validate_embedding(Embedding(chains), hw,
                                    zip(logical.ei.tolist(), logical.ej.tolist()))
        try:
            build_embedded_ising(logical, Embedding(chains, hw), k=1.0)
        except ValueError:
            assert not report.ok
        else:
            assert report.ok

    def test_chain_count_mismatch(self):
        logical = IsingModel(n=3, h=np.zeros(3))
        with pytest.raises(ValueError):
            build_embedded_ising(logical, [2, 2], k=1.0)


class TestValidateEmbedding:
    def setup_method(self):
        self.hw = build_zephyr(2, 2)

    def test_valid_single_qubit_chains(self):
        a, b = self.hw.edges[0].tolist()
        report = validate_embedding(Embedding([[a], [b]]), self.hw, [(0, 1)])
        assert report.ok

    def test_overlap_detected(self):
        a, b = self.hw.edges[0].tolist()
        report = validate_embedding(Embedding([[a, b], [b]]), self.hw, [])
        assert any(v["kind"] == "disjointness" for v in report.violations)

    def test_disconnected_chain_detected(self):
        adj = adjacency(self.hw)
        far = next(v for v in range(len(adj)) if v not in adj[0] and v != 0)
        report = validate_embedding(Embedding([[0, far]]), self.hw, [])
        assert any(v["kind"] == "connectivity" for v in report.violations)

    def test_missing_edge_coverage(self):
        adj = adjacency(self.hw)
        far = next(v for v in range(len(adj)) if v not in adj[0] and v != 0)
        report = validate_embedding(Embedding([[0], [far]]), self.hw, [(0, 1)])
        assert any(v["kind"] == "edge_coverage" for v in report.violations)

    def test_empty_chain(self):
        report = validate_embedding(Embedding([[]]), self.hw, [])
        assert any(v["kind"] == "empty_chain" for v in report.violations)

    # Z(1,1) has qubits 0..11; [11, -1] is connected only if -1 wraps onto 11
    @pytest.mark.parametrize("chains, chain, qubit", [
        ([[0], [10**6]], 1, 10**6), ([[0], [-3]], 1, -3), ([[11, -1]], 0, -1),
    ], ids=["too-large", "negative", "negative-in-chain"])
    def test_unknown_qubit(self, chains, chain, qubit):
        report = validate_embedding(Embedding(chains), build_zephyr(1, 1), [])
        assert report.violations == [{"kind": "unknown_qubit", "chain": chain, "qubit": qubit}]

    @pytest.mark.parametrize("edge", [(-1, 0), (0, 2), (1, 1)])
    def test_bad_logical_edge_rejected(self, edge):
        # (-1, 0) used to wrap onto the last chain and (0, 2) to raise a bare IndexError
        a, b = self.hw.edges[0].tolist()
        with pytest.raises(ValueError, match="logical edges must join two distinct chains"):
            validate_embedding(Embedding([[a], [b]]), self.hw, [edge])


class TestChainStats:
    def test_synth_l100(self):
        lengths = synth_chain_lengths(100, ChainLengthModel(slope=0.122), seed=0)
        assert np.mean(lengths) == pytest.approx(13.0)


class TestFitLinear:
    def test_exact_line(self):
        xs = np.arange(10.0)
        fit = fit_linear(xs, 2 * xs + 1)
        assert fit["slope"] == pytest.approx(2.0, abs=1e-12)
        assert fit["intercept"] == pytest.approx(1.0, abs=1e-12)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_constant_y(self):
        fit = fit_linear(np.arange(5.0), np.full(5, 3.0))
        assert fit["slope"] == pytest.approx(0.0, abs=1e-12)
        assert fit["r_squared"] == 1.0

    def test_noisy_slope_within_3se(self):
        rng = np.random.default_rng(12)
        xs = np.arange(20.0)
        noise = rng.normal(0, 0.5, size=20)
        fit = fit_linear(xs, 0.122 * xs + 1.0 + noise)
        se = 0.5 / np.sqrt(np.sum((xs - xs.mean()) ** 2))
        assert abs(fit["slope"] - 0.122) < 3 * se

    def test_degenerate_x(self):
        with pytest.raises(ValueError):
            fit_linear([1.0, 1.0], [0.0, 1.0])

    @pytest.mark.parametrize("xs, ys", [([0, 1, 2], [0, 1, np.inf]), ([0, np.nan, 2], [0, 1, 2])],
                             ids=["inf-y", "nan-x"])
    def test_rejects_non_finite_data(self, xs, ys, capfd):
        # inf used to give a NaN slope, intercept and R^2, and NaN to print LAPACK
        # DLASCL lines to stderr before a LinAlgError
        with pytest.raises(ValueError, match="finite"):
            fit_linear(xs, ys)
        assert capfd.readouterr().err == ""
