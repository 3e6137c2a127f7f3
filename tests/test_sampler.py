import hashlib
import itertools
import math
import os
import shutil
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from embednoise._kernels import _sa_c, _sa_py, csr, get_kernel
from embednoise.analytics import cbf_predict, cbp
from embednoise.embedding import ChainLengthModel, Embedding, build_embedded_ising
from embednoise.noise import NoiseModel, chain_error_sample, control_errors, variance_law
from embednoise.problem import (ENERGY_BLOCK_TERMS, IsingModel, generate_random_qubo, ising_energy,
                                qubo_to_ising)
from embednoise.rng import substream
from embednoise.topology import build_zephyr
from embednoise import embedding, sampler
from embednoise.sampler import (AnnealSchedule, _batch_energies, brute_force,
                                detect_breaks, margin_errors, margin_model_run,
                                resolve_chains, schedule_betas, simulated_anneal,
                                synthetic_hardware_run)


class TestAnnealSchedule:
    def test_kinds_and_endpoints(self):
        # the one shape, logarithmic; its text stays in metadata["schedule"]
        s = AnnealSchedule(beta_min=0.1, beta_max=3.0, sweeps=64)
        betas = schedule_betas(s, np.zeros(1), np.zeros(1))
        assert betas[0] == pytest.approx(0.1)
        assert betas[-1] == pytest.approx(3.0)
        assert np.all(np.diff(betas) > 0)
        assert s.describe() == "logarithmic[0.1,3.0]x64"

    def test_auto_endpoints_scale_with_model(self):
        s = AnnealSchedule()
        small = schedule_betas(s, np.full(4, 0.1), np.zeros(4))
        large = schedule_betas(s, np.full(4, 10.0), np.zeros(4))
        assert small[0] == pytest.approx(100 * large[0])

    def test_invalid(self):
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

    @pytest.mark.parametrize("sweeps", [12.5, 0.5, math.nan, math.inf, 0, -3])
    def test_non_integral_sweeps_rejected(self, sweeps):
        # sweeps=12.5 used to give 13 betas, the last above the derived beta_max
        with pytest.raises(ValueError, match="sweeps must be an integer >= 1"):
            AnnealSchedule(sweeps=sweeps)

    def test_integral_float_sweeps_are_the_integer(self):
        s = AnnealSchedule(sweeps=12.0)
        assert s.sweeps == 12 and type(s.sweeps) is int
        h, c = np.ones(4), np.zeros(4)
        want = schedule_betas(AnnealSchedule(sweeps=12), h, c)
        assert np.array_equal(schedule_betas(s, h, c), want)


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
            "14e7fd7dcdc13c25e27e330a8fbfa581a3dce2bd7a5fdf972f0b07c4be0e41e5")
        assert self.digest(ss.metadata["betas"]) == (
            "d7f4be9faa3ab220592503219dc6196919013cc202d0abaf713156135e600693")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_synthetic_hardware_run(self, backend):
        # L = 10 on path chains, 16 sweeps: halving the field errors moves the spins of 5 of
        # the 20 reads, and doubling the coupler errors those of 1, so the digest sees either.
        # test_a_reads_programming_is_its_own_segment pins every value
        phys, res = synthetic_hardware_run(generate_random_qubo(10, 1.0, seed=17),
                                           [2, 1, 3, 2, 1, 2, 3, 1, 2, 2], 1.0,
                                           NoiseModel(0.06, 0.005), AnnealSchedule(sweeps=16),
                                           reads=20, seed=23, backend=backend)
        assert phys.metadata["kernel"] == backend
        assert self.digest(phys.spins, res.spins) == (
            "8f3c8b2e400e0c0a66ad205e4dfa2fff9889664f4b164f9122a78d7aab0a9859")


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
class TestReadParts:
    """The C kernel's reads anneal in one contiguous part per CPU, each part on its own thread
    drawing from its own jumped-ahead copy of the SA stream: the CPU count moves no spin."""

    @staticmethod
    def pin_cpus(monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    @staticmethod
    def anneals(reads, sweeps, backend="c"):
        """Outputs of a simulated_anneal (n=12) and a synthetic_hardware_run (n=14), and the
        thread counts of the runs."""
        schedule = AnnealSchedule(sweeps=sweeps)
        sa = simulated_anneal(qubo_to_ising(generate_random_qubo(12, 0.7, seed=3)), reads,
                              schedule, seed=4, backend=backend)
        phys, res = synthetic_hardware_run(generate_random_qubo(6, 0.8, seed=4),
                                           [3, 2, 3, 1, 2, 3], 1.0, NoiseModel(0.05, 0.02),
                                           schedule, reads=reads, seed=5, backend=backend)
        assert res.metadata["threads"] == phys.metadata["threads"]
        outputs = [sa.spins, sa.energies, sa.metadata["betas"], phys.spins, phys.energies,
                   phys.metadata["betas"], res.spins, res.energies]
        return outputs, (sa.metadata["threads"], phys.metadata["threads"])

    # (reads, sweeps, DRAWS_PER_CALL, threads on 3 CPUs): 100 sweeps end in a short chunk of 4;
    # 3 * 32 * 14 fits tiles of 3 reads of either anneal, and 2 * 32 * 14 tiles of 2; with
    # DRAWS_PER_CALL = 1 a one-read tile exceeds it, and 2 reads are two parts of one; 1 read
    # is one part; 1 << 17 fits all 37 reads in one tile, one part
    CASES = [(37, 100, 5 * 32 * 12, 3), (37, 128, 3 * 32 * 14, 3), (37, 100, 2 * 32 * 14, 3),
             (2, 100, 1, 2), (1, 100, 1, 1), (37, 100, 1 << 17, 1)]

    @pytest.mark.parametrize("reads, sweeps, draws, threads", CASES)
    def test_cpu_count_does_not_change_the_streams(self, monkeypatch, reads, sweeps, draws,
                                                   threads):
        monkeypatch.setattr(_sa_c, "DRAWS_PER_CALL", draws)
        runs = {}
        for cpus in (1, 2, 3):
            self.pin_cpus(monkeypatch, cpus)
            runs[cpus] = self.anneals(reads, sweeps)
        assert runs[1][1] == (1, 1) and runs[3][1] == (threads, threads)
        assert runs[2][1] == (min(2, threads),) * 2
        numpy_kernel = self.anneals(reads, sweeps, backend="python")
        assert numpy_kernel[1] == (1, 1)  # whole chunks: one part on the calling thread
        for outputs, _ in [runs[2], runs[3], numpy_kernel]:
            assert all(np.array_equal(a, b) for a, b in zip(outputs, runs[1][0]))

    def test_default_tiles_split_a_large_anneal(self, monkeypatch):
        # 300 reads of 20 spins need three tiles of 102 reads in a chunk of 32 sweeps
        model = qubo_to_ising(generate_random_qubo(20, 0.5, seed=2))
        runs = []
        for cpus in (1, 3):
            self.pin_cpus(monkeypatch, cpus)
            runs.append(simulated_anneal(model, 300, AnnealSchedule(sweeps=40), seed=6))
        assert [ss.metadata["threads"] for ss in runs] == [1, 3]
        assert np.array_equal(runs[0].spins, runs[1].spins)
        assert np.array_equal(runs[0].energies, runs[1].energies)

    def test_many_cpus_hold_at_most_one_tile_of_draws(self, monkeypatch):
        # 400 reads on 16 CPUs run 16 parts, each call holds at most DRAWS_PER_CALL uniforms,
        # and the spins are a 1-CPU run's. Of the synthetic benchmark's model (n = 480) a tile is
        # DRAWS_PER_CALL // (32 * n) = 4 reads; of 100 path chains of 14 (n = 1,400) it is one
        # read, and a cap of DRAWS_PER_CALL // (32 * n) parts ran 2
        sizes, run = [], _sa_c.run_metropolis
        monkeypatch.setattr(_sa_c, "run_metropolis",
                            lambda *a, **kw: sizes.append(kw["log_u"].size) or run(*a, **kw))
        for q, lengths, k, n in [(generate_random_qubo(60, 1.0, seed=0),
                                  ChainLengthModel(slope=0.122), 2.0, 480),
                                 (generate_random_qubo(100, 0.3, seed=1), [14] * 100, 1.0, 1400)]:
            runs = []
            for cpus in (1, 16):
                monkeypatch.setattr(sampler, "_cpus", lambda: cpus)
                runs.append(synthetic_hardware_run(q, lengths, k, NoiseModel(0.06, 0.005),
                                                   AnnealSchedule(sweeps=32), reads=400, seed=0,
                                                   backend="c")[0])
            assert [ss.metadata["threads"] for ss in runs] == [1, 16]
            assert runs[0].spins.shape == (400, n)
            assert max(sizes) <= _sa_c.DRAWS_PER_CALL  # every tile, on 1 CPU or 16
            assert np.array_equal(runs[0].spins, runs[1].spins)

    def test_advanced_copies_draw_pieces_of_the_stream(self):
        # as _anneal: integers first (the 32-bit buffer may hold a value), then doubles, one
        # 64-bit output each, so advance(k) skips k of them
        def stream():
            rng = substream(8, "sa")
            rng.integers(0, 2, size=(3, 5))
            return rng
        whole, state = stream().random(1000), stream().bit_generator.state
        for lo, hi in [(0, 1), (1, 300), (300, 1000), (999, 1000)]:
            bits = np.random.PCG64()
            bits.state = state
            bits.advance(lo)
            assert np.random.Generator(bits).random(hi - lo).tobytes() == whole[lo:hi].tobytes()

    @staticmethod
    def programmings(monkeypatch, reads, backend):
        """Per read of a synthetic run (n=14, 100 sweeps: chunks of 32, 32, 32 and 4), the
        fields and couplers of each kernel call it was in."""
        module, seen = get_kernel(backend), {}
        run = module.run_metropolis

        def record(spins, h, edges, jv, *rest, **kw):
            first = (spins.ctypes.data - spins.base.ctypes.data) // spins.strides[0]
            for i in range(len(spins)):
                seen.setdefault(first + i, []).append((h[i].copy(), jv[i].copy()))
            return run(spins, h, edges, jv, *rest, **kw)
        with monkeypatch.context() as patch:
            patch.setattr(module, "run_metropolis", record)
            synthetic_hardware_run(generate_random_qubo(6, 0.8, seed=4), [3, 2, 3, 1, 2, 3], 1.0,
                                   NoiseModel(0.05, 0.02), AnnealSchedule(sweeps=100),
                                   reads=reads, seed=5, backend=backend)
        return [seen[r] for r in range(reads)]

    def test_a_reads_programming_is_its_own_segment(self, monkeypatch):
        # read r anneals h + dh_r and jv + dj_r, drawn by control_errors from the (seed,
        # "perturb") stream advanced by r << 64 outputs, through every chunk: neither the read
        # count, the tile size nor the CPU count moves it
        model = build_embedded_ising(qubo_to_ising(generate_random_qubo(6, 0.8, seed=4)),
                                     [3, 2, 3, 1, 2, 3], 1.0).model
        nm, want = NoiseModel(0.05, 0.02), []
        for r in range(9):
            bits = np.random.PCG64()
            bits.state = substream(5, "perturb").bit_generator.state
            dh, dj = control_errors(model, nm, np.random.Generator(bits.advance(r << 64)))
            want.append((model.h + dh, model.jv + dj))
        dh, dj = control_errors(model, nm, substream(5, "perturb"))  # read 0: the stream's start
        assert np.array_equal(want[0][0], model.h + dh)
        assert np.array_equal(want[0][1], model.jv + dj)
        # one tile of 9; 3 parts in tiles of 1; 2 parts in tiles of 2; the NumPy kernel's one tile
        for reads, draws, cpus, backend in [(9, 1 << 17, 1, "c"), (9, 32 * 14, 3, "c"),
                                            (5, 2 * 32 * 14, 2, "c"), (9, 1, 1, "python")]:
            monkeypatch.setattr(_sa_c, "DRAWS_PER_CALL", draws)
            self.pin_cpus(monkeypatch, cpus)
            got = self.programmings(monkeypatch, reads, backend)
            for calls, (h, jv) in zip(got, want):
                assert len(calls) >= 4  # one call per chunk at least
                assert all(np.array_equal(a, h) and np.array_equal(b, jv) for a, b in calls)

    @pytest.mark.parametrize("failing_part", [0, 1])
    def test_an_error_in_any_part_propagates_and_no_thread_outlives_the_call(
            self, monkeypatch, failing_part):
        self.pin_cpus(monkeypatch, 2)
        monkeypatch.setattr(_sa_c, "DRAWS_PER_CALL", 2 * 4 * 12)  # tiles of 2 reads of 4 sweeps
        run, main = _sa_c.run_metropolis, threading.main_thread()

        def fail_in_one_part(*args, **kwargs):
            if (threading.current_thread() is main) == (failing_part == 0):
                raise RuntimeError(f"kernel failed in part {failing_part}")
            return run(*args, **kwargs)
        monkeypatch.setattr(_sa_c, "run_metropolis", fail_in_one_part)
        before = threading.active_count()
        model = qubo_to_ising(generate_random_qubo(12, 0.7, seed=3))
        with pytest.raises(RuntimeError, match=f"kernel failed in part {failing_part}"):
            simulated_anneal(model, 8, AnnealSchedule(sweeps=4), seed=1, backend="c")
        assert threading.active_count() == before


class TestInitialDraws:
    """The initial spins are drawn in row blocks of max(1, ENERGY_BLOCK_TERMS // n) reads: the
    kernel gets the values of one whole draw, and the uniforms that follow it on the stream."""

    # 37 reads of 13 spins: reads * n is odd, and 39 terms are blocks of 3 reads, 39 spins,
    # so each odd block ends on half of a 64-bit output and the next starts on its spare half
    @pytest.mark.parametrize("terms", [1, 39, 52, 65, 91, 1 << 17])
    def test_blocks_draw_the_values_of_one_whole_draw(self, monkeypatch, terms):
        rng = substream(7, "sa")
        want = [(rng.integers(0, 2, size=(37, 13)) * 2 - 1).astype(np.int8)]
        want.append(np.log(rng.random((37, 2, 13))))
        calls, run = [], _sa_py.run_metropolis

        def record(spins, h, edges, jv, betas, log_u):
            calls.append([spins.copy(), log_u.copy()])
            return run(spins, h, edges, jv, betas, log_u)
        monkeypatch.setattr(sampler, "ENERGY_BLOCK_TERMS", terms)
        monkeypatch.setattr(_sa_py, "run_metropolis", record)
        simulated_anneal(qubo_to_ising(generate_random_qubo(13, 0.5, seed=1)), 37,
                         AnnealSchedule(sweeps=2), seed=7, backend="python")
        assert len(calls) == 1  # the NumPy kernel takes the one chunk of all reads
        for got, expected in zip(calls[0], want):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_traced_peak_memory_at_large_n(self, monkeypatch):
        # 800 reads of a 5,000-spin path, one sweep, on 2 CPUs: the run holds the int8 spins,
        # 1 byte a spin of a read, and beside them one block of int64 spin draws or two parts'
        # 0.5 MB tiles of uniforms and the O(n) arrays of the model and kernel. The allowance is
        # four blocks of 2^17 8-byte terms. One whole int64 draw of the spins took 8 bytes a
        # spin of a read more, and the int32 visit orders 4 (the run peaked at 36 MB, then
        # 21.7, now 5.2 MiB)
        TestReadParts.pin_cpus(monkeypatch, 2)
        n, reads = 5000, 800
        i = np.arange(n - 1)
        model = IsingModel(n, np.linspace(-1.0, 1.0, n), (i, i + 1, -np.ones(n - 1)))
        simulated_anneal(model, 2, AnnealSchedule(sweeps=1), seed=1, backend="c")  # load the kernel
        tracemalloc.start()
        try:
            ss = simulated_anneal(model, reads, AnnealSchedule(sweeps=1), seed=1, backend="c")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ss.metadata["threads"] == 2
        assert peak < reads * n + 4 * 8 * ENERGY_BLOCK_TERMS, peak


class TestCpuMap:
    """_cpu_map deals items round robin to min(CPUs, items) threads, the calling thread
    first, and gives the results in item order; the calibration commands and _anneal
    run through it."""

    pin_cpus = staticmethod(TestReadParts.pin_cpus)

    def test_items_run_at_once_on_every_cpu(self, monkeypatch):
        self.pin_cpus(monkeypatch, 3)
        barrier = threading.Barrier(3, timeout=10)  # breaks unless 3 items run together
        assert sampler._cpu_map(lambda x: barrier.wait() * 0 + x * x, range(6)) == [
            0, 1, 4, 9, 16, 25]
        self.pin_cpus(monkeypatch, 8)
        assert sampler._cpu_map(lambda x: -x, [2]) == [-2]
        assert sampler._cpu_map(lambda x: x, []) == []

    def test_first_failure_in_item_order(self, monkeypatch):
        # on 2 CPUs the calling thread runs items 0, 2, 4 and a worker 1, 3, 5
        self.pin_cpus(monkeypatch, 2)
        threads, calls = threading.active_count(), []

        def fn(x):
            if x == 2:
                time.sleep(0.05)  # item 3 fails first in time
            calls.append(x)
            if x in (2, 3):
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match="item 2"):
            sampler._cpu_map(fn, range(6))
        assert sorted(calls) == [0, 1, 2, 3]  # each thread stops at its own failure
        assert threading.active_count() == threads

    def test_interrupt_in_a_worker_is_raised(self, monkeypatch):
        self.pin_cpus(monkeypatch, 2)

        def fn(x):
            if x == 1 and threading.current_thread() is not threading.main_thread():
                raise KeyboardInterrupt
            return x

        with pytest.raises(KeyboardInterrupt):
            sampler._cpu_map(fn, range(4))

    def test_many_threads_switching_often_lose_no_result(self, monkeypatch):
        self.pin_cpus(monkeypatch, 8)  # more threads than this machine's CPUs, most likely
        switch = sys.getswitchinterval()

        def fail_past_6_at_multiples_of_7(x):
            if x > 6 and x % 7 == 0:
                raise ValueError(str(x))
            return x * x

        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for _ in range(5):
                squares = sampler._cpu_map(lambda x: x * x, range(500))
                assert squares == [x * x for x in range(500)]
                with pytest.raises(ValueError, match="^7$"):
                    sampler._cpu_map(fail_past_6_at_multiples_of_7, range(500))
        finally:
            sys.setswitchinterval(switch)


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
    REDUCTIONS = [detect_breaks,
                  lambda spins, chains: resolve_chains(spins, chains, substream(0, "tie"))]

    @pytest.mark.parametrize("reduce", REDUCTIONS, ids=["detect_breaks", "resolve_chains"])
    def test_negative_id_rejected(self, reduce):
        # id -1 used to read the last spin
        with pytest.raises(ValueError, match="nonempty and hold spin ids in 0..3"):
            reduce(np.array([1, -1, 1, 1]), [[0, -1], [1, 2]])

    @pytest.mark.parametrize("reduce", REDUCTIONS, ids=["detect_breaks", "resolve_chains"])
    def test_non_integral_id_rejected(self, reduce):
        # id 1.9 used to fail as NumPy's bare IndexError; 1.0 is spin 1
        with pytest.raises(ValueError, match="chain 0 members must be integers, got 1.9"):
            reduce(np.array([1, 1, 1]), [[0, 1.9], [2]])
        spins = np.array([1, -1, 1])
        assert np.array_equal(reduce(spins, [[0, 1.0], [2]]), reduce(spins, [[0, 1], [2]]))

    @pytest.mark.parametrize("reduce", REDUCTIONS, ids=["detect_breaks", "resolve_chains"])
    def test_empty_chain_rejected(self, reduce):
        # an empty chain used to count as unbroken (CBF 0.5 here) and to resolve to the tie value
        with pytest.raises(ValueError, match="nonempty"):
            reduce(np.array([1, -1]), [[0, 1], []])


    @pytest.mark.parametrize("reduce", REDUCTIONS, ids=["detect_breaks", "resolve_chains"])
    def test_no_chains_rejected(self, reduce):
        # no chains at all used to fail in NumPy's minimum of an empty array
        with pytest.raises(ValueError, match="chains must be nonempty"):
            reduce(np.ones(3, np.int8), [])

    @pytest.mark.parametrize("reduce", REDUCTIONS, ids=["detect_breaks", "resolve_chains"])
    @pytest.mark.parametrize("spins", [[0, 1, 1], [[1, 1, 1], [0, 0, 1]], [1, 2, 1]])
    def test_spins_other_than_plus_minus_one_rejected(self, reduce, spins):
        # [0, 1, 1] used to report chain 0 broken, and "plus_one" to resolve the zeros to +1
        with pytest.raises(ValueError, match=r"spins must be \+1 or -1"):
            reduce(np.array(spins), [[0, 1], [2]])


class TestResolveChains:
    def test_unbroken_chain(self):
        assert resolve_chains(np.array([-1, -1, -1]), [[0, 1, 2]], substream(3, "tie"))[0] == -1

    def test_majority(self):
        assert resolve_chains(np.array([1, 1, -1]), [[0, 1, 2]], substream(3, "tie"))[0] == 1

    def test_tie_deterministic_per_stream(self):
        spins = np.array([1, -1])
        a = resolve_chains(spins, [[0, 1]], stream=substream(3, "tie"))
        b = resolve_chains(spins, [[0, 1]], stream=substream(3, "tie"))
        assert a[0] == b[0]
        assert a[0] in (-1, 1)

    def test_batch_matches_each_read(self):
        chains = [[0, 1], [2, 3, 4], [5, 6], [7]]
        spins = (np.random.default_rng(3).integers(0, 2, (40, 8)) * 2 - 1).astype(np.int8)
        batch = resolve_chains(spins, chains, stream=substream(4, "tie"))
        assert batch.dtype == np.int8 and batch.shape == (40, 4)
        stream = substream(4, "tie")  # one read at a time draws the same coins in turn
        for r in range(40):
            assert resolve_chains(spins[r], chains, stream).tolist() == batch[r].tolist()


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
        p = cbp(13, nm, 0.35)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(float(cbf.mean()) - p) < 3 * se

    def test_mixed_lengths_match_cbf_predict(self):
        nm = NoiseModel(sigma_h=0.06, sigma_c=0.01)
        lengths = [3, 7, 13, 20]
        n = 200_000
        cbf = margin_model_run(lengths, 0.3, 1.0, nm, n, seed=2)
        pred = cbf_predict(lengths, nm, 0.3)
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
        # an infinite margin used to give a CBF of 0.0 on every read
        with pytest.raises(ValueError, match="chain strength k must be > 0 and finite, got inf"):
            margin_model_run([5, 6], math.inf, 1.0, nm, 10, seed=1)

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

    @pytest.mark.parametrize("lengths, match", [
        ([2.7], "integers"), ([3, 2.5], "integers"), (4.5, "integers"), ([math.nan], "integers"),
        ([math.inf], "integers")])
    def test_non_integral_length_rejected(self, lengths, match):
        # [2.7] used to draw exactly as [2], while cbf_predict([2.7], ...) uses 2.7; inf is
        # no integer either, so it no longer reaches variance_law's "finite" check
        nm = NoiseModel(0.06, 0.005)
        with pytest.raises(ValueError, match=match):
            margin_errors(lengths, nm, 5, seed=0)
        with pytest.raises(ValueError, match=match):
            margin_model_run(lengths, 0.3, 1.0, nm, 5, seed=0)

    def test_integral_float_lengths_give_the_integer_draws(self):
        nm = NoiseModel(0.06, 0.005, corr_strength=0.002, corr_exponent=1.5)
        assert np.array_equal(margin_errors([3.0, 8.0], nm, 50, seed=4),
                              margin_errors([3, 8], nm, 50, seed=4))
        assert np.array_equal(margin_errors(np.array([3.0]), nm, 50, seed=4),
                              margin_errors(3, nm, 50, seed=4))


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

    def test_rejects_non_integral_lengths(self):
        # int(2.5) used to anneal the embedding of [2, 2, 2, 2]
        q = generate_random_qubo(4, 1.0, seed=6)
        with pytest.raises(ValueError, match="chain lengths must be integers"):
            synthetic_hardware_run(q, [2, 2.5, 2, 2], k=2.0, nm=NoiseModel(0.05, 0.01),
                                   reads=10, seed=0)

    def test_integral_float_length_is_the_integer(self):
        q = generate_random_qubo(4, 1.0, seed=6)
        kw = dict(k=2.0, nm=NoiseModel(0.05, 0.01), reads=20, seed=3)
        a, _ = synthetic_hardware_run(q, [2, 3.0, 2, 2], **kw)
        b, _ = synthetic_hardware_run(q, [2, 3, 2, 2], **kw)
        assert np.array_equal(a.spins, b.spins) and np.array_equal(a.energies, b.energies)

    def test_zero_noise_is_simulated_anneal(self, monkeypatch):
        # one anneal path: with zero control errors the synthetic run draws
        # simulated_anneal's uniforms in its order at any read count. The L=60 path
        # chains (n=480, heads of degree 60) with 600 reads and 33 sweeps were split
        # into read blocks of 582, each drawing its own sweep chunks
        cases = [(generate_random_qubo(6, 1.0, seed=6), [2, 1, 3, 2, 1, 2], 60, 40),
                 (generate_random_qubo(60, 1.0, seed=0), [8] * 60, 600, 33)]
        for q, lengths, reads, sweeps in cases:
            schedule = AnnealSchedule(sweeps=sweeps)
            sa = simulated_anneal(build_embedded_ising(qubo_to_ising(q), lengths, 1.0).model,
                                  reads, schedule, seed=5)
            # perfbench traces sampler.simulated_anneal as SA; a synthetic run must not enter it
            with monkeypatch.context() as patch:
                patch.setattr(sampler, "simulated_anneal", None)
                phys, _ = synthetic_hardware_run(q, lengths, 1.0, NoiseModel(0.0, 0.0), schedule,
                                                 reads=reads, seed=5)
            assert np.array_equal(phys.spins, sa.spins)
            assert np.array_equal(phys.energies, sa.energies)
            assert phys.metadata["betas"] == sa.metadata["betas"]

    def test_cbf_is_detect_breaks_of_the_batch(self):
        q = generate_random_qubo(8, 1.0, seed=7)
        phys, res = synthetic_hardware_run(q, [3] * 8, k=0.5, nm=NoiseModel(0.3, 0.1),
                                           reads=30, seed=4)
        chains = [list(range(3 * i, 3 * i + 3)) for i in range(8)]  # path ids are spin ids
        assert np.array_equal(phys.cbf, detect_breaks(phys.spins, chains)["cbf"])
        assert np.array_equal(res.cbf, phys.cbf) and phys.cbf.max() > 0
        # on hardware ids 158, 19 and 159 the chains are spins [[1, 0], [2]]
        emb = Embedding([[158, 19], [159]], build_zephyr(2, 4))
        phys, res = synthetic_hardware_run(generate_random_qubo(2, 1.0, seed=3), emb, k=0.3,
                                           nm=NoiseModel(0.3, 0.1), reads=60, seed=2)
        assert np.array_equal(phys.cbf, detect_breaks(phys.spins, [[1, 0], [2]])["cbf"])
        assert np.array_equal(res.cbf, phys.cbf) and 0 < phys.cbf.max() < 1

    def test_hardware_embedding_anneals_only_chain_qubits(self):
        # chains on qubits 19, 158 and 159 of Z(2,4): a 3-spin model, chains read by spin index
        q = generate_random_qubo(2, 1.0, seed=3)
        emb = Embedding([[158, 19], [159]], build_zephyr(2, 4))
        phys, res = synthetic_hardware_run(q, emb, k=0.3, nm=NoiseModel(0.3, 0.1), reads=60, seed=2)
        model = build_embedded_ising(qubo_to_ising(q), emb, 0.3)
        assert phys.spins.shape == (60, 3) and model.qubits.tolist() == [19, 158, 159]
        assert model.chain_spins.tolist() == [1, 0, 2] and model.chain_ptr.tolist() == [0, 2, 3]
        assert 0 < phys.cbf.max() and res.spins.shape == (60, 2)
        for r in range(phys.num_reads):
            assert phys.energies[r] == pytest.approx(ising_energy(model.model, phys.spins[r]),
                                                     abs=1e-9)

    def test_chains_are_flattened_once(self, monkeypatch):
        # the chain arrays are built once and scored from: validation, break detection
        # and resolution each used to flatten the chains again, four times in all
        calls, labels = [], embedding._labels
        def counted(chains):
            calls.append(1)
            return labels(chains)
        monkeypatch.setattr(embedding, "_labels", counted)
        monkeypatch.setattr(sampler, "_labels", counted)
        emb = Embedding([[158, 19], [159]], build_zephyr(2, 4))
        synthetic_hardware_run(generate_random_qubo(2, 1.0, seed=3), emb, k=0.3,
                               nm=NoiseModel(0.3, 0.1), reads=4, seed=2)
        assert len(calls) == 1

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_traced_peak_memory(self, monkeypatch):
        # the synthetic benchmark's batch: 480 spins, 2,190 couplers, 40 reads, on 2 CPUs (each
        # further CPU adds a part's 0.5 MB). Each of its two parts holds one 0.5 MB tile of
        # log-uniforms at a time and the programmings of one tile of reads (1.8 MB in all), so
        # a tile of uniforms kept while the next is drawn passes 3 MB
        TestReadParts.pin_cpus(monkeypatch, 2)
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

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_control_errors_are_held_one_tile_at_a_time(self, monkeypatch):
        # 400 reads of the synthetic benchmark's model, n = 480 spins and m = 2,190 couplers,
        # on 2 CPUs: each part anneals tiles of DRAWS_PER_CALL // (32 sweeps * n) = 4 reads.
        # Beside what a noiseless anneal of the model holds, a part holds one tile's
        # programmings (n + m doubles a read) and the kernel call's couplers in entry order (2m
        # a read); twice that allows a tile's arrays while the next tile's are drawn. That is
        # 0.9 MB; every read's control errors at once are 8.5 MB (the run peaked at 11.0 MB)
        TestReadParts.pin_cpus(monkeypatch, 2)
        q, lengths_model = generate_random_qubo(60, 1.0, seed=0), ChainLengthModel(slope=0.122)
        model = build_embedded_ising(qubo_to_ising(q),
                                     embedding.synth_chain_lengths(60, lengths_model, 0), 2.0).model
        n, m = model.n, len(model.jv)
        tile = _sa_c.DRAWS_PER_CALL // (32 * n)
        assert (n, m, tile) == (480, 2190, 4)
        simulated_anneal(model, 40, seed=0, backend="c")  # load the kernel

        def traced_peak(run):
            tracemalloc.start()
            try:
                assert run().metadata["threads"] == 2
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        noiseless = traced_peak(lambda: simulated_anneal(model, 400, seed=0, backend="c"))
        peak = traced_peak(lambda: synthetic_hardware_run(
            q, lengths_model, 2.0, NoiseModel(0.06, 0.005), reads=400, seed=0, backend="c")[0])
        assert peak < noiseless + 2 * 2 * tile * (n + 3 * m) * 8

    def test_python_kernel_traced_peak_memory(self):
        # per-read couplers are read from the (reads, m) errors by edge id: a padded
        # (reads, n, 60) value table of the L=60 path model used to peak at 48 MB
        args = (generate_random_qubo(60, 1.0, seed=0), ChainLengthModel(slope=0.122), 2.0,
                NoiseModel(0.06, 0.005), AnnealSchedule(sweeps=4))
        tracemalloc.start()
        try:
            synthetic_hardware_run(*args, reads=100, seed=0, backend="python")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000

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
