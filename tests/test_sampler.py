import hashlib
import itertools
import json
import math
import shutil
import time
import tracemalloc

import numpy as np
import pytest

from embednoise._kernels import csr, get_kernel
from embednoise.analytics import CbpModel, cbf_predict, cbp
from embednoise.embedding import ChainLengthModel, Embedding, build_embedded_ising
from embednoise.noise import NoiseModel, chain_error_sample, variance_law
from embednoise.problem import IsingModel, generate_random_qubo, ising_energy, qubo_to_ising
from embednoise.rng import substream
from embednoise.topology import build_zephyr
from embednoise import sampler
from embednoise.sampler import (AnnealSchedule, SampleSet, _batch_energies, brute_force,
                                detect_breaks, energy_stats, margin_errors, margin_model_run,
                                resolve_chains, schedule_betas, simulated_anneal,
                                synthetic_hardware_run)


class TestAnnealSchedule:
    def test_kinds_and_endpoints(self):
        for kind in ("logarithmic", "geometric", "linear"):
            s = AnnealSchedule(kind=kind, beta_min=0.1, beta_max=3.0, sweeps=64)
            betas = schedule_betas(s, np.zeros(1), np.zeros(1))
            assert betas[0] == pytest.approx(0.1)
            assert betas[-1] == pytest.approx(3.0)
            assert np.all(np.diff(betas) > 0)

    def test_auto_endpoints_scale_with_model(self):
        s = AnnealSchedule()
        small = schedule_betas(s, np.full(4, 0.1), np.zeros(4))
        large = schedule_betas(s, np.full(4, 10.0), np.zeros(4))
        assert small[0] == pytest.approx(100 * large[0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            AnnealSchedule(kind="exp")
        with pytest.raises(ValueError):
            AnnealSchedule(beta_min=2.0, beta_max=1.0)
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=0)

    @pytest.mark.parametrize("endpoints", [
        {"beta_min": -1.0}, {"beta_max": 0.0}, {"beta_min": 0.0, "beta_max": 1.0}])
    def test_nonpositive_beta_rejected(self, endpoints):
        # beta_min=-1.0 used to start the anneal at beta = -1
        with pytest.raises(ValueError, match="must be > 0"):
            AnnealSchedule(**endpoints)

    @pytest.mark.parametrize("endpoints", [
        {"beta_min": math.nan, "beta_max": 3.0}, {"beta_max": math.nan}, {"beta_max": math.inf}])
    def test_non_finite_beta_rejected(self, endpoints):
        # beta_min=nan used to give betas [nan, nan], so no flip was ever accepted
        with pytest.raises(ValueError, match="finite"):
            AnnealSchedule(**endpoints)

    def test_one_set_endpoint_must_order_with_the_derived_one(self):
        # unit fields derive beta_min = log(2)/2 = 0.35 and beta_max = log(1e4)/2 = 4.6;
        # beta_min=5.0 used to give a schedule that heats up
        h, c = np.ones(4), np.zeros(4)
        for s in (AnnealSchedule(beta_min=5.0), AnnealSchedule(beta_max=0.3)):
            with pytest.raises(ValueError, match="need 0 < beta_min < beta_max"):
                schedule_betas(s, h, c)
        betas = schedule_betas(AnnealSchedule(beta_min=1.0), h, c)
        assert betas[0] == pytest.approx(1.0) and betas[-1] == pytest.approx(math.log(1e4) / 2)


class TestBruteForce:
    def test_two_field_spins(self):
        m = IsingModel(n=2, h=np.array([1.0, 1.0]))
        res = brute_force(m)
        assert np.array_equal(res["best_spins"], [-1, -1])
        assert res["best_energy"] == -2.0

    def test_empty_model(self):
        m = IsingModel(n=0, h=np.zeros(0), offset=1.25)
        assert brute_force(m)["best_energy"] == 1.25

    def test_matches_reversed_enumeration(self):
        m = qubo_to_ising(generate_random_qubo(12, 0.6, seed=8))
        res = brute_force(m)
        best = math.inf
        for idx in reversed(range(1 << 12)):
            s = np.array([2 * ((idx >> (11 - b)) & 1) - 1 for b in range(12)])
            best = min(best, ising_energy(m, s))
        assert res["best_energy"] == pytest.approx(best, abs=1e-12)

    def test_tie_break_lexicographic(self):
        # h = 0, no couplers: every assignment ties at the offset
        m = IsingModel(n=3, h=np.zeros(3), offset=0.5)
        res = brute_force(m)
        assert np.array_equal(res["best_spins"], [-1, -1, -1])

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            brute_force(IsingModel(n=25, h=np.zeros(25)))

    @pytest.mark.parametrize("h, J", [([np.nan, 1.0], {}), ([0.0, 1.0], {(0, 1): np.inf})])
    def test_rejects_non_finite_coefficients(self, h, J):
        with pytest.raises(ValueError, match="finite"):
            brute_force(IsingModel(n=2, h=np.array(h), J=J))

    @pytest.mark.parametrize("case", ["random", "ties"])
    def test_block_size_does_not_change_the_answer(self, case, monkeypatch):
        # 4 KB blocks are 8 high-half rows of the n=12 table (the default: all 64 in one), and
        # re-scoring chunks of 39 candidates; "ties" has two frustrated triangles and six free
        # spins, so 6 * 6 * 2^6 minima fall in every block
        if case == "random":
            m = qubo_to_ising(generate_random_qubo(12, 0.6, seed=21))
        else:
            triangles = [(0, 1), (0, 2), (1, 2), (6, 7), (6, 8), (7, 8)]
            m = IsingModel(12, np.zeros(12), dict.fromkeys(triangles, 1.0))
        want = brute_force(m)
        monkeypatch.setattr(sampler, "ORACLE_BLOCK_BYTES", 4096)
        got = brute_force(m)
        assert got["best_spins"].tobytes() == want["best_spins"].tobytes()
        assert got["best_energy"] == want["best_energy"]

    @staticmethod
    def naive(m):
        """First minimum of ising_energy over all assignments in lexicographic order."""
        best_e, best_s = math.inf, None
        for s in itertools.product((-1, 1), repeat=m.n):
            e = ising_energy(m, np.array(s))
            if e < best_e:
                best_e, best_s = e, s
        return best_e, np.array(best_s)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_naive_enumeration(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(2):
            J = {(i, j): float(rng.uniform(-1, 1))
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6}
            m = IsingModel(n, rng.uniform(-1, 1, n), J, float(rng.uniform(-2, 2)))
            want_e, want_s = self.naive(m)
            res = brute_force(m)
            assert np.array_equal(res["best_spins"], want_s)
            assert res["best_energy"] == pytest.approx(want_e, abs=1e-12)
            got = ising_energy(m, res["best_spins"])
            assert res["best_energy"] == pytest.approx(got, abs=1e-12)

    @pytest.mark.parametrize("n", [6, 9, 10, 11, 12])
    def test_mirror_ties_follow_row_formula(self, n):
        # h and J symmetric under i -> n-1-i, so mirrored assignments tie in exact
        # arithmetic while the split and row sums round them differently
        n_all = 1 << n
        spins = (((np.arange(n_all)[:, None] >> np.arange(n - 1, -1, -1)) & 1) * 2 - 1)
        spins = spins.astype(np.int8)
        for seed in range(20):
            rng = np.random.default_rng(100 * seed + n)
            h = rng.uniform(-1, 1, n)
            J = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if (n - 1 - j, n - 1 - i) not in J and rng.random() < 0.7:
                        J[(i, j)] = J[(n - 1 - j, n - 1 - i)] = float(rng.uniform(-1, 1))
            m = IsingModel(n, (h + h[::-1]) / 2, J, 0.3)
            ei, ej, jv = m.ei, m.ej, m.jv
            energies = _batch_energies(spins, m.h, ei, ej, jv, m.offset)
            first = int(np.argmin(energies))
            res = brute_force(m)
            assert np.array_equal(res["best_spins"], spins[first])
            assert res["best_energy"] == energies[first]

    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_z2_symmetric_ties_pick_s0_minus(self, n):
        # h = 0: flipping every spin keeps the energy, so each minimum has a twin
        rng = np.random.default_rng(n)
        J = {(i, j): float(rng.integers(-2, 3)) for i in range(n) for j in range(i + 1, n)}
        m = IsingModel(n, np.zeros(n), J)
        want_e, want_s = self.naive(m)
        res = brute_force(m)
        assert res["best_spins"][0] == -1
        assert np.array_equal(res["best_spins"], want_s)
        assert res["best_energy"] == want_e

    def test_planted_integer_ties(self):
        # antiferromagnetic triangle plus a free spin: six minima at -1 with integer h, J
        m = IsingModel(4, np.array([0.0, 0.0, 0.0, 0.0]),
                       {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}, offset=0.0)
        res = brute_force(m)
        assert np.array_equal(res["best_spins"], [-1, -1, 1, -1])
        assert res["best_energy"] == -1.0
        m = IsingModel(6, np.array([1.0, -1.0, 0.0, 0.0, 2.0, 0.0]),
                       {(0, 3): -1.0, (2, 5): 1.0, (1, 4): 1.0}, offset=3.0)
        want_e, want_s = self.naive(m)
        res = brute_force(m)
        assert np.array_equal(res["best_spins"], want_s)
        assert res["best_energy"] == want_e

    def test_all_ties_at_the_limit(self):
        # every one of the 2^24 assignments ties; memory must stay bounded
        m = IsingModel(n=24, h=np.zeros(24), offset=0.5)
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            res = brute_force(m)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(res["best_spins"], -np.ones(24))
        assert res["best_energy"] == 0.5
        assert peak < 128 * 2**20  # one int64 index per assignment alone would be 128 MB
        assert elapsed < 20.0

    def test_energy_rows_independent_of_batch(self):
        m = qubo_to_ising(generate_random_qubo(24, 1.0, seed=3))
        ei, ej, jv = m.ei, m.ej, m.jv
        spins = (np.random.default_rng(0).integers(0, 2, (600, 24)) * 2 - 1).astype(np.int8)
        batch = _batch_energies(spins, m.h, ei, ej, jv, m.offset)
        for r in range(0, 600, 37):
            alone = _batch_energies(spins[r:r + 1], m.h, ei, ej, jv, m.offset)
            assert alone[0] == batch[r]


class TestSimulatedAnneal:
    def test_single_spin(self):
        m = IsingModel(n=1, h=np.array([1.0]), offset=0.25)
        ss = simulated_anneal(m, 50, seed=0)
        assert float(ss.energies.min()) == pytest.approx(-1 + 0.25)
        assert ss.spins[np.argmin(ss.energies)][0] == -1

    def test_ferromagnetic_pair(self):
        m = IsingModel(n=2, h=np.zeros(2), J={(0, 1): -1.0})
        ss = simulated_anneal(m, 50, seed=0)
        assert float(ss.energies.min()) == pytest.approx(-1.0)

    def test_two_spin_ground_state_frequency(self):
        # slow schedule on a generic 2-spin model: nearly every read lands
        # in the ground state
        m = IsingModel(n=2, h=np.array([0.3, -0.4]), J={(0, 1): 0.7})
        truth = brute_force(m)["best_energy"]
        slow = AnnealSchedule(sweeps=512)
        ss = simulated_anneal(m, 1000, slow, seed=3)
        hit = np.mean(np.isclose(ss.energies, truth, atol=1e-9))
        assert hit > 0.99

    def test_matches_oracle_on_random_instances(self):
        wins = 0
        for seed in range(20):
            m = qubo_to_ising(generate_random_qubo(12, 1.0, seed=seed))
            truth = brute_force(m)["best_energy"]
            ss = simulated_anneal(m, 500, seed=seed)
            wins += math.isclose(float(ss.energies.min()), truth, abs_tol=1e-9)
        assert wins >= 19

    def test_reproducible(self):
        m = qubo_to_ising(generate_random_qubo(10, 0.8, seed=1))
        a = simulated_anneal(m, 64, seed=5)
        b = simulated_anneal(m, 64, seed=5)
        assert np.array_equal(a.spins, b.spins)
        assert np.array_equal(a.energies, b.energies)

    def test_energies_recompute_from_spins(self):
        m = qubo_to_ising(generate_random_qubo(8, 0.7, seed=2))
        ss = simulated_anneal(m, 32, seed=4)
        for r in range(ss.num_reads):
            assert ss.energies[r] == pytest.approx(ising_energy(m, ss.spins[r]), abs=1e-9)

    def test_metadata(self):
        m = IsingModel(n=1, h=np.array([1.0]))
        ss = simulated_anneal(m, 3, AnnealSchedule(sweeps=17), seed=9)
        assert ss.metadata["reads"] == 3
        assert ss.metadata["sweeps"] == 17
        assert ss.metadata["seed"] == 9
        assert "logarithmic" in ss.metadata["schedule"]
        # the kernel that ran: "c" unless the C kernel is unavailable
        assert ss.metadata["kernel"] == get_kernel().NAME in ("c", "python")
        assert simulated_anneal(m, 3, seed=9, backend="python").metadata["kernel"] == "python"
        q = generate_random_qubo(3, 1.0, seed=1)
        for backend in (None, "python"):
            phys, res = synthetic_hardware_run(q, [2, 1, 2], 1.0, NoiseModel(0.05, 0.01), reads=2,
                                               backend=backend)
            assert phys.metadata["kernel"] == res.metadata["kernel"] == get_kernel(backend).NAME


class TestCsrAdjacency:
    @staticmethod
    def per_edge_loop(m):
        """Reference lists: each edge e = (i, j), in order, appends (j, e) to row i, then (i, e) to row j."""
        rows = [[] for _ in range(m.n)]
        for e, (a, b) in enumerate(zip(m.ei, m.ej)):
            rows[a].append((b, e))
            rows[b].append((a, e))
        flat = [entry for r in rows for entry in r]
        return (np.cumsum([0] + [len(r) for r in rows]), np.array([e[0] for e in flat], int),
                np.array([e[1] for e in flat], int))

    @staticmethod
    def check(m):
        got = csr(m.n, np.stack([m.ei, m.ej], axis=1).astype(np.int32))
        want = TestCsrAdjacency.per_edge_loop(m)
        assert all(np.array_equal(g, w) and g.shape == w.shape for g, w in zip(got, want))
        assert got[0].dtype == got[1].dtype == np.int32

    @pytest.mark.parametrize("L,rho,seed", [(1, 0.0, 0), (6, 0.0, 1), (12, 0.3, 2), (20, 1.0, 3)])
    def test_matches_a_per_edge_loop(self, L, rho, seed):
        logical = qubo_to_ising(generate_random_qubo(L, rho, seed))
        lengths = np.random.default_rng(seed).integers(1, 4, size=L)
        for m in (logical, build_embedded_ising(logical, lengths, 1.5).model):
            self.check(m)

    def test_degree_zero_spin_and_no_couplers(self):
        self.check(IsingModel(5, np.zeros(5), {(0, 3): 1.5, (3, 4): -0.5, (0, 4): 2.0}))  # 1, 2 free
        self.check(IsingModel(3, np.ones(3)))


class TestGoldenStreams:
    """sha256 of seeded outputs on both backends: a change that moves any spin, energy or beta
    of these runs fails here. A deliberate stream change updates them and says so in CHANGES.md."""

    BACKENDS = ["python", pytest.param("c", marks=pytest.mark.skipif(
        shutil.which("cc") is None, reason="no C compiler on PATH"))]

    @staticmethod
    def digest(*arrays):
        return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_simulated_anneal(self, backend):
        ss = simulated_anneal(qubo_to_ising(generate_random_qubo(12, 0.4, seed=13)), 50, seed=21,
                              backend=backend)
        assert ss.metadata["kernel"] == backend
        assert self.digest(ss.spins, ss.energies) == (
            "6d99901ef2dc3a02fd37b2e1fb7f9cb1bf7bb339ffdc0a3100eeecb49e7abf15")
        assert self.digest(ss.metadata["betas"]) == (
            "d7f4be9faa3ab220592503219dc6196919013cc202d0abaf713156135e600693")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_synthetic_hardware_run(self, backend):
        # L = 10 on path chains; 16 sweeps leave reads unsettled, so halving the coupler
        # errors moves some spins (at 128 sweeps the reads settle and the digest misses that)
        phys, res = synthetic_hardware_run(generate_random_qubo(10, 1.0, seed=17),
                                           [2, 1, 3, 2, 1, 2, 3, 1, 2, 2], 1.0,
                                           NoiseModel(0.06, 0.005), AnnealSchedule(sweeps=16),
                                           reads=20, seed=23, backend=backend)
        assert phys.metadata["kernel"] == backend
        assert self.digest(phys.spins, res.spins) == (
            "94dc184197344c02bbc1f7f6e24786ac01746766a9b3a2251b33fcbd32dc4d2f")


class TestDetectBreaks:
    def test_all_aligned(self):
        spins = np.array([1, 1, -1, -1, -1])
        out = detect_breaks(spins, [[0, 1], [2, 3, 4]])
        assert out["broken"] == [False, False]
        assert out["cbf"] == 0.0

    def test_one_of_ten_broken(self):
        chains = [[2 * i, 2 * i + 1] for i in range(10)]
        spins = np.ones(20, dtype=np.int8)
        spins[1] = -1
        out = detect_breaks(spins, chains)
        assert out["cbf"] == pytest.approx(0.1)

    def test_length_one_never_breaks(self):
        spins = np.array([1, -1, 1])
        out = detect_breaks(spins, [[0], [1], [2]])
        assert out["broken"] == [False, False, False]

    def test_id_out_of_range(self):
        with pytest.raises(ValueError):
            detect_breaks(np.ones(2), [[0, 5]])

    def test_batch_matches_each_read(self):
        chains = [[0, 1, 2], [3], [4, 5], (6, 7)]
        spins = (np.random.default_rng(2).integers(0, 2, (30, 8)) * 2 - 1).astype(np.int8)
        out = detect_breaks(spins, chains)
        assert out["broken"].shape == (30, 4) and out["cbf"].shape == (30,)
        for r in range(30):
            one = detect_breaks(spins[r], chains)
            assert one["broken"] == out["broken"][r].tolist()
            assert isinstance(one["cbf"], float) and one["cbf"] == out["cbf"][r]


class TestChainInputs:
    REDUCTIONS = [detect_breaks, lambda spins, chains: resolve_chains(spins, chains, "plus_one")]

    @pytest.mark.parametrize("reduce", REDUCTIONS, ids=["detect_breaks", "resolve_chains"])
    def test_negative_id_rejected(self, reduce):
        # id -1 used to read the last spin
        with pytest.raises(ValueError, match="nonempty and hold spin ids in 0..3"):
            reduce(np.array([1, -1, 1, 1]), [[0, -1], [1, 2]])

    @pytest.mark.parametrize("reduce", REDUCTIONS, ids=["detect_breaks", "resolve_chains"])
    def test_empty_chain_rejected(self, reduce):
        # an empty chain used to count as unbroken (CBF 0.5 here) and to resolve to the tie value
        with pytest.raises(ValueError, match="nonempty"):
            reduce(np.array([1, -1]), [[0, 1], []])


class TestResolveChains:
    def test_unbroken_chain(self):
        assert resolve_chains(np.array([-1, -1, -1]), [[0, 1, 2]], policy="plus_one")[0] == -1

    def test_majority(self):
        assert resolve_chains(np.array([1, 1, -1]), [[0, 1, 2]], policy="plus_one")[0] == 1

    def test_tie_deterministic_per_stream(self):
        spins = np.array([1, -1])
        a = resolve_chains(spins, [[0, 1]], policy="coin", stream=substream(3, "tie"))
        b = resolve_chains(spins, [[0, 1]], policy="coin", stream=substream(3, "tie"))
        assert a[0] == b[0]
        assert a[0] in (-1, 1)

    def test_plus_one_policy(self):
        assert resolve_chains(np.array([1, -1]), [[0, 1]], policy="plus_one")[0] == 1

    def test_coin_requires_stream(self):
        with pytest.raises(ValueError):
            resolve_chains(np.array([1, -1]), [[0, 1]], policy="coin")

    def test_batch_matches_each_read(self):
        chains = [[0, 1], [2, 3, 4], [5, 6], [7]]
        spins = (np.random.default_rng(3).integers(0, 2, (40, 8)) * 2 - 1).astype(np.int8)
        batch = resolve_chains(spins, chains, policy="coin", stream=substream(4, "tie"))
        assert batch.dtype == np.int8 and batch.shape == (40, 4)
        stream = substream(4, "tie")  # one read at a time draws the same coins in turn
        for r in range(40):
            assert resolve_chains(spins[r], chains, "coin", stream).tolist() == batch[r].tolist()
        plus = resolve_chains(spins, chains, policy="plus_one")
        assert np.array_equal(plus, [resolve_chains(s, chains, "plus_one") for s in spins])


class TestMarginModelRun:
    def test_zero_noise(self):
        nm = NoiseModel(0.0, 0.0)
        cbf = margin_model_run([5] * 10, 0.5, 1.0, nm, 100, seed=0)
        assert np.all(cbf == 0.0)

    def test_tiny_k_breaks_everything(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        cbf = margin_model_run([5] * 10, 1e-12, 1.0, nm, 100, seed=0)
        assert np.all(cbf == 1.0)

    def test_mean_matches_cbp(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        n = 10**6
        cbf = margin_model_run([13], 0.35, 1.0, nm, n, seed=1)
        p = cbp(13, CbpModel(noise=nm, kappa=0.35))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(float(cbf.mean()) - p) < 3 * se

    def test_mixed_lengths_match_cbf_predict(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.01)
        lengths = [3, 7, 13, 20]
        n = 200_000
        cbf = margin_model_run(lengths, 0.3, 1.0, nm, n, seed=2)
        pred = cbf_predict(lengths, CbpModel(noise=nm, kappa=0.3))
        se = math.sqrt(pred * (1 - pred) / n / len(lengths))
        assert abs(float(cbf.mean()) - pred) < 4 * se

    def test_eta_shrinks_margin(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        full = float(margin_model_run([13] * 5, 0.35, 1.0, nm, 20_000, seed=3).mean())
        half = float(margin_model_run([13] * 5, 0.35, 0.5, nm, 20_000, seed=3).mean())
        assert half > full

    def test_rejects_bad_inputs(self):
        nm = NoiseModel(0.06, 0.005)
        with pytest.raises(ValueError):
            margin_model_run([5], 0.0, 1.0, nm, 10, seed=0)
        with pytest.raises(ValueError):
            margin_model_run([5], 0.5, 1.5, nm, 10, seed=0)
        with pytest.raises(ValueError, match="k must be > 0"):  # nan used to give CBF 0.0
            margin_model_run([5], math.nan, 1.0, nm, 10, seed=0)

    def test_rejects_empty_lengths_and_no_reads(self):
        nm = NoiseModel(0.06, 0.005)
        with pytest.raises(ValueError, match="lengths"):
            margin_model_run([], 0.5, 1.0, nm, 10, seed=0)
        for reads in (0, -1):
            with pytest.raises(ValueError, match="reads"):
                margin_model_run([5], 0.5, 1.0, nm, reads, seed=0)

    def test_reproducible(self):
        nm = NoiseModel(0.06, 0.005)
        a = margin_model_run([4, 9], 0.3, 1.0, nm, 500, seed=7)
        b = margin_model_run([4, 9], 0.3, 1.0, nm, 500, seed=7)
        assert np.array_equal(a, b)


class TestMarginErrors:
    @pytest.mark.parametrize("nm", [NoiseModel(sigma_h=0.06, sigma_c=0.015),
                                    NoiseModel(sigma_h=0.06, sigma_c=0.015,
                                               corr_strength=0.002, corr_exponent=1.5)])
    def test_column_variance_is_variance_law(self, nm):
        lengths = [2, 8, 32]
        delta = margin_errors(lengths, nm, 10**6, seed=21)
        assert delta.shape == (10**6, 3)
        for col, ell in enumerate(lengths):
            assert abs(delta[:, col].var() / variance_law(ell, nm) - 1.0) < 0.01

    def test_same_distribution_as_literal_sum(self):
        from scipy.stats import ks_2samp

        nm = NoiseModel(sigma_h=0.06, sigma_c=0.015, corr_strength=0.002, corr_exponent=1.5)
        fast = margin_errors([8], nm, 200_000, seed=22)[:, 0]
        literal = chain_error_sample(8, nm, substream(23, "ks"), size=200_000)
        assert ks_2samp(fast, literal).pvalue > 0.01

    def test_columns_are_independent_chains(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
        delta = margin_errors([5, 5], nm, 200_000, seed=24)
        assert abs(np.corrcoef(delta.T)[0, 1]) < 5 / math.sqrt(200_000)

    def test_reproducible_and_drives_margin_model_run(self):
        nm = NoiseModel(0.06, 0.005)
        delta = margin_errors([4, 9], nm, 500, seed=7)
        assert np.array_equal(delta, margin_errors([4, 9], nm, 500, seed=7))
        want = (np.abs(delta) > 0.5 * 0.3).mean(axis=1)
        assert np.array_equal(margin_model_run([4, 9], 0.3, 0.5, nm, 500, seed=7), want)

    def test_rejects_bad_inputs(self):
        nm = NoiseModel(0.06, 0.005)
        with pytest.raises(ValueError, match="lengths"):
            margin_errors([], nm, 10, seed=0)
        with pytest.raises(ValueError, match="reads"):
            margin_errors([5], nm, 0, seed=0)
        with pytest.raises(ValueError, match="length"):
            margin_errors([5, 0], nm, 10, seed=0)


class TestSyntheticHardwareRun:
    def test_zero_noise_large_k_matches_oracle(self):
        q = generate_random_qubo(8, 1.0, seed=4)
        truth = brute_force(qubo_to_ising(q))["best_energy"]
        phys, res = synthetic_hardware_run(
            q, ChainLengthModel(slope=0.122), k=3.0, nm=NoiseModel(0.0, 0.0),
            reads=300, seed=0)
        assert float(phys.cbf.mean()) < 0.01
        assert float(res.energies.min()) == pytest.approx(truth, abs=1e-9)

    def test_resolved_energies_bounded_by_oracle(self):
        q = generate_random_qubo(10, 0.8, seed=5)
        truth = brute_force(qubo_to_ising(q))["best_energy"]
        _, res = synthetic_hardware_run(
            q, ChainLengthModel(slope=0.122), k=2.0,
            nm=NoiseModel(sigma_h=0.06, sigma_c=0.005), reads=200, seed=1)
        assert float(res.energies.min()) >= truth - 1e-9

    def test_physical_energies_recompute(self):
        q = generate_random_qubo(6, 1.0, seed=6)
        logical = qubo_to_ising(q)
        lengths = [2] * 6
        emb = build_embedded_ising(logical, lengths, k=2.0)
        phys, _ = synthetic_hardware_run(
            q, lengths, k=2.0, nm=NoiseModel(0.05, 0.01), reads=50, seed=2)
        for r in range(phys.num_reads):
            assert phys.energies[r] == pytest.approx(
                ising_energy(emb.model, phys.spins[r]), abs=1e-9)

    def test_reproducible(self):
        q = generate_random_qubo(6, 1.0, seed=6)
        kw = dict(k=2.0, nm=NoiseModel(0.05, 0.01), reads=40, seed=3)
        a_phys, a_res = synthetic_hardware_run(q, [2] * 6, **kw)
        b_phys, b_res = synthetic_hardware_run(q, [2] * 6, **kw)
        assert np.array_equal(a_phys.spins, b_phys.spins)
        assert np.array_equal(a_res.spins, b_res.spins)

    def test_zero_noise_is_simulated_anneal(self, monkeypatch):
        # one anneal path: with zero control errors and every read in one
        # block, the synthetic run draws simulated_anneal's uniforms in its order
        q = generate_random_qubo(6, 1.0, seed=6)
        lengths, schedule = [2, 1, 3, 2, 1, 2], AnnealSchedule(sweeps=40)
        sa = simulated_anneal(build_embedded_ising(qubo_to_ising(q), lengths, 1.0).model,
                              60, schedule, seed=5)
        # perfbench traces sampler.simulated_anneal as SA; a synthetic run must not enter it
        monkeypatch.setattr(sampler, "simulated_anneal", None)
        phys, _ = synthetic_hardware_run(q, lengths, 1.0, NoiseModel(0.0, 0.0), schedule,
                                         reads=60, seed=5)
        assert np.array_equal(phys.spins, sa.spins)
        assert np.array_equal(phys.energies, sa.energies)
        assert phys.metadata["betas"] == sa.metadata["betas"]

    def test_cbf_is_detect_breaks_of_the_batch(self):
        q = generate_random_qubo(8, 1.0, seed=7)
        phys, res = synthetic_hardware_run(q, [3] * 8, k=0.5, nm=NoiseModel(0.3, 0.1),
                                           reads=30, seed=4)
        chains = build_embedded_ising(qubo_to_ising(q), [3] * 8, 0.5).embedding
        assert np.array_equal(phys.cbf, detect_breaks(phys.spins, chains)["cbf"])
        assert np.array_equal(res.cbf, phys.cbf) and phys.cbf.max() > 0

    def test_hardware_embedding_anneals_only_chain_qubits(self):
        # chains on qubits 19, 158 and 159 of Z(2,4): a 3-spin model, chains read by spin index
        q = generate_random_qubo(2, 1.0, seed=3)
        emb = Embedding([[158, 19], [159]], build_zephyr(2, 4))
        phys, res = synthetic_hardware_run(q, emb, k=0.3, nm=NoiseModel(0.3, 0.1), reads=60, seed=2)
        model = build_embedded_ising(qubo_to_ising(q), emb, 0.3)
        assert phys.spins.shape == (60, 3) and model.spin_chains() == [[1, 0], [2]]
        assert np.array_equal(phys.cbf, detect_breaks(phys.spins, [[1, 0], [2]])["cbf"])
        assert 0 < phys.cbf.max() and res.spins.shape == (60, 2)
        for r in range(phys.num_reads):
            assert phys.energies[r] == pytest.approx(ising_energy(model.model, phys.spins[r]),
                                                     abs=1e-9)

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_traced_peak_memory(self):
        # the synthetic benchmark's batch: 480 spins, 2,190 couplers, 40 reads. It holds one
        # 1 MB tile of log-uniforms and one 0.85 MB set of perturbed coefficients at a time (2.5
        # MB in all), so a tile kept while the next is drawn, or a perturbed copy of the control
        # errors beside them, passes 3 MB
        args = (generate_random_qubo(60, 1.0, seed=0), ChainLengthModel(slope=0.122), 2.0,
                NoiseModel(0.06, 0.005))
        synthetic_hardware_run(*args, reads=40, seed=0, backend="c")  # load the kernel
        tracemalloc.start()
        try:
            synthetic_hardware_run(*args, reads=40, seed=0, backend="c")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_correlated_noise_rejected(self):
        # the correlated term is not drawn: corr_strength > 0 used to give zero-noise spins
        q = generate_random_qubo(3, 1.0, seed=0)
        with pytest.raises(ValueError, match="corr_strength"):
            synthetic_hardware_run(q, [1, 2, 1], 1.0, NoiseModel(0.0, 0.0, 0.01, 1.0), reads=2)

    def test_cbf_increases_with_noise(self):
        q = generate_random_qubo(8, 1.0, seed=7)
        quiet, _ = synthetic_hardware_run(
            q, [3] * 8, k=1.0, nm=NoiseModel(0.01, 0.005), reads=200, seed=4)
        loud, _ = synthetic_hardware_run(
            q, [3] * 8, k=1.0, nm=NoiseModel(0.4, 0.2), reads=200, seed=4)
        assert float(loud.cbf.mean()) > float(quiet.cbf.mean())


class TestSampleSet:
    def make(self):
        m = qubo_to_ising(generate_random_qubo(5, 1.0, seed=0))
        return simulated_anneal(m, 10, seed=0)

    def test_json_schema(self):
        ss = self.make()
        d = json.loads(ss.dumps())
        assert len(d["reads"]) == 10
        rec = d["reads"][0]
        assert set(rec) == {"physical_spins", "energy", "cbf"}
        assert d["metadata"]["reads"] == 10

    def test_summary_csv(self):
        ss = self.make()
        lines = ss.summary_csv().splitlines()
        assert lines[0] == "read,energy,cbf"
        assert len(lines) == 11
        r, e, c = lines[1].split(",")
        assert int(r) == 0
        assert float(e) == pytest.approx(ss.energies[0], rel=1e-11)
        assert float(c) == 0.0

    def test_energy_stats(self):
        ss = self.make()
        stats = energy_stats(ss)
        assert stats["E_min"] == float(ss.energies.min())
        assert stats["E_mean"] == pytest.approx(float(ss.energies.mean()))

    def test_energy_stats_degenerate(self):
        ss = SampleSet(spins=np.ones((3, 1), dtype=np.int8),
                       energies=np.full(3, 2.0), cbf=np.zeros(3))
        assert energy_stats(ss)["E_std"] == 0.0
        with pytest.raises(ValueError):
            energy_stats(SampleSet(spins=np.ones((0, 1), dtype=np.int8),
                                   energies=np.zeros(0), cbf=np.zeros(0)))
