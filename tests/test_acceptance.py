"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Each criterion states its tolerance and (where given)
its runtime budget and asserts both.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import embednoise as en
from embednoise.fitting import fit_noise_params
from embednoise.noise import NoiseModel, chain_error_sample, variance_law
from embednoise.rng import substream


def report(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {label}{suffix}")
    return ok


def test_criterion_1_variance_law():
    t0 = time.perf_counter()
    nm = NoiseModel(sigma_h=0.06, sigma_c=0.015)
    worst = 0.0
    for ell in (2, 8, 32):
        draws = chain_error_sample(ell, nm, substream(101, "c1", ell), size=10**6)
        rel = abs(draws.var() / variance_law(ell, nm) - 1.0)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.01 and elapsed < 10.0
    assert report(1, "variance law within 1% at N=1e6", ok,
                  f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_gaussian_tail():
    t0 = time.perf_counter()
    nm = NoiseModel(sigma_h=0.06, sigma_c=0.015)
    n = 10**6
    worst = 0.0
    for ell in (2, 9, 17, 24, 32):
        for kappa in (0.1, 0.325, 0.55, 0.775, 1.0):
            p = en.cbp(ell, nm, kappa)
            freq = float(en.margin_model_run(
                [ell], kappa, 1.0, nm, n, seed=200 + ell).mean())
            se = math.sqrt(p * (1 - p) / n)
            # epsilon absorbs the degenerate points where p (hence se) ~ 0
            excess = abs(freq - p) - (3 * se + 1e-9)
            worst = max(worst, excess)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and elapsed < 60.0
    assert report(2, "margin-model tail within 3 binomial SE on 5x5 grid", ok,
                  f"worst excess {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_lemma_1():
    model = NoiseModel(0.06, 0.005), 0.35
    uniform = abs(en.cbf_predict([9] * 40, *model) - en.cbp(9, *model))
    mixed_lengths = [2, 5, 9, 9, 13, 21]
    mixed = abs(en.cbf_predict(mixed_lengths, *model)
                - np.mean([en.cbp(v, *model) for v in mixed_lengths]))
    ok = uniform <= 1e-15 and mixed <= 1e-15
    assert report(3, "cbf_predict equals mean per-chain cbp to 1e-15", ok,
                  f"uniform dev {uniform:.1e}, mixed dev {mixed:.1e}")


def test_criterion_4_fit_recovery():
    # The CBP model is exactly scale invariant: (lam*sigma_h, lam*sigma_c,
    # lam*kappa) predicts the same curve for every length, so recovery
    # rests on grid discreteness alone. The planted triple is chosen so
    # that its scale ray stays far from other grid points and the curve
    # carries signal at every L; near-ray triples such as the paper-like
    # (0.06, 0.005, 0.35) hit rogue grid neighbors in ~10-15% of trials.
    t0 = time.perf_counter()

    def observations(truth, clm, seed, noisy):
        nm = NoiseModel(sigma_h=truth[0], sigma_c=truth[1])
        obs = []
        for L in range(5, 105, 5):
            lengths = en.synth_chain_lengths(L, clm, seed=seed * 1000 + L)
            if noisy:
                cbf = float(en.margin_model_run(
                    lengths, truth[2], 1.0, nm, 2000, seed=seed * 1000 + L).mean())
            else:
                cbf = en.cbf_predict(lengths, nm, truth[2])
            obs.append({"L": L, "lengths": [int(v) for v in lengths], "cbf_obs": cbf})
        return obs

    paper_like = (0.06, 0.005, 0.35)
    clm_paper = en.ChainLengthModel(slope=0.122, intercept=1.0, jitter=1)
    exact = fit_noise_params(observations(paper_like, clm_paper, 0, noisy=False))
    exact_ok = (exact.sigma_h, exact.sigma_c, exact.kappa) == pytest.approx(paper_like) \
        and exact.sse <= 1e-20

    truth = (0.06, 0.075, 0.10)
    clm = en.ChainLengthModel(slope=0.3, intercept=1.0, jitter=2)
    steps = (0.005, 0.005, 0.05)
    hits = 0
    for trial in range(50):
        fr = fit_noise_params(observations(truth, clm, trial + 1, noisy=True))
        got = (fr.sigma_h, fr.sigma_c, fr.kappa)
        if all(abs(g - t) <= s + 1e-12 for g, t, s in zip(got, truth, steps)):
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = exact_ok and hits >= 45 and elapsed < 120.0
    assert report(4, "grid-search fit recovery (exact + 2000-read trials)", ok,
                  f"noiseless sse {exact.sse:.1e}, {hits}/50 within one step, "
                  f"{elapsed:.1f}s")


def test_criterion_5_kstar_scaling():
    t0 = time.perf_counter()
    ells = np.arange(3, 31)
    indep = NoiseModel(sigma_h=0.06, sigma_c=0.005)
    fit_i = en.power_law_fit(
        ells, [en.critical_chain_strength(int(e), indep, 0.02) for e in ells])
    corr = NoiseModel(sigma_h=0.001, sigma_c=0.0, corr_strength=0.01,
                      corr_exponent=1.64)
    fit_c = en.power_law_fit(
        ells, [en.critical_chain_strength(int(e), corr, 0.02) for e in ells])
    elapsed = time.perf_counter() - t0
    ok = 0.45 <= fit_i.exponent <= 0.55 and 0.78 <= fit_c.exponent <= 0.86 \
        and elapsed < 5.0
    assert report(5, "k* exponents: independent ~0.5, correlated ~gamma/2", ok,
                  f"independent {fit_i.exponent:.3f}, correlated {fit_c.exponent:.3f}, "
                  f"{elapsed:.1f}s")


def test_criterion_6_zephyr_structure():
    from pathlib import Path
    count_ok = en.vertex_count(15, 4) == 7440
    t = 4
    degrees = {m: max(en.degree_histogram(en.build_zephyr(m, t))) for m in (1, 2, 3)}
    # Every qubit with an interior w has 4t internal edges. External edges
    # join z to z+-1 inside [0, m); odd edges join (j=0, z) to (j=1, z-1)
    # and (j=1, z). At m = 1 that leaves 0 external + 1 odd, at m = 2 at
    # most 1 external + 2 odd, and only m >= 3 reaches 2 + 2.
    degree_ok = degrees == {1: 4 * t + 1, 2: 4 * t + 3, 3: 4 * t + 4}
    fixture = Path(__file__).parent / "data" / "zephyr_2_2_edges.txt"
    fixture_ok = en.build_zephyr(2, 2).to_edgelist() == fixture.read_text()
    ok = count_ok and degree_ok and fixture_ok
    assert report(6, "Zephyr: 7440 qubits, max degree 17/19/20 for m = 1/2/3, fixture", ok,
                  f"count {count_ok}, degrees {degrees}, fixture {fixture_ok}")


def test_criterion_7_embedded_energy_identity():
    worst = 0.0
    flips_ok = True
    for seed in range(6):
        n = 1 + seed % 4
        q = en.generate_random_qubo(n, 1.0, seed=seed)
        logical = en.qubo_to_ising(q)
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 4, size=n)
        k = 1.0 + 0.25 * seed
        emb = en.build_embedded_ising(logical, lengths, k)
        chain = np.repeat(np.arange(n), np.diff(emb.chain_ptr))[np.argsort(emb.chain_spins)]
        intra = int(np.count_nonzero(chain[emb.model.ei] == chain[emb.model.ej]))
        for idx in range(1 << n):
            s = np.array([2 * ((idx >> (n - 1 - b)) & 1) - 1 for b in range(n)])
            phys = np.empty(emb.model.n, dtype=np.int64)
            for i, chain in enumerate(emb.embedding.chains):
                phys[chain] = s[i]
            lhs = en.ising_energy(emb.model, phys)
            rhs = en.ising_energy(logical, s) - k * intra
            worst = max(worst, abs(lhs - rhs))
        # 2k flip penalty is a pure coupler-sign check, so isolate it on a
        # zero-field copy: flipping the far end of a chain of length >= 2
        # breaks exactly one intra edge (inter edges attach at chain heads)
        bare = en.IsingModel(n=n, h=np.zeros(n), J=(logical.ei, logical.ej, logical.jv), offset=0.0)
        emb0 = en.build_embedded_ising(bare, lengths, k)
        for idx in range(1 << n):
            s = np.array([2 * ((idx >> (n - 1 - b)) & 1) - 1 for b in range(n)])
            phys = np.empty(emb0.model.n, dtype=np.int64)
            for i, chain in enumerate(emb0.embedding.chains):
                phys[chain] = s[i]
            base = en.ising_energy(emb0.model, phys)
            for chain in emb0.embedding.chains:
                if len(chain) >= 2:
                    flipped = phys.copy()
                    flipped[chain[-1]] *= -1
                    de = en.ising_energy(emb0.model, flipped) - base
                    flips_ok &= abs(de - 2 * k) <= 1e-12
                    break
    ok = worst <= 1e-12 and flips_ok
    assert report(7, "embedded energy identity and 2k flip penalty", ok,
                  f"worst identity dev {worst:.1e}, flip checks {flips_ok}")


def test_criterion_8_solver_parity():
    t0 = time.perf_counter()
    rates = {}
    for L in (5, 10, 15, 20):
        wins = 0
        for inst in range(40):
            q = en.generate_random_qubo(L, 1.0, seed=800 + 40 * L + inst)
            m = en.qubo_to_ising(q)
            truth = en.brute_force(m)["best_energy"]
            ss = en.simulated_anneal(m, 2000, seed=inst)
            wins += math.isclose(float(ss.energies.min()), truth, abs_tol=1e-9)
        rates[L] = wins / 40
    sa_ok = all(r >= 0.95 for r in rates.values())

    synth_wins = 0
    synth_total = 5
    for inst in range(synth_total):
        q = en.generate_random_qubo(16, 1.0, seed=900 + inst)
        truth = en.brute_force(en.qubo_to_ising(q))["best_energy"]
        _, resolved = en.synthetic_hardware_run(
            q, en.ChainLengthModel(slope=0.122), k=3.0, nm=NoiseModel(0.0, 0.0),
            reads=2000, seed=inst)
        synth_wins += math.isclose(float(resolved.energies.min()), truth, abs_tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = sa_ok and synth_wins == synth_total and elapsed < 300.0
    assert report(8, "SA matches oracle >=95%; zero-noise synthetic matches at L=16",
                  ok, f"rates {rates}, synthetic {synth_wins}/{synth_total}, "
                  f"{elapsed:.1f}s")


def test_criterion_9_trend_reproduction():
    nm = NoiseModel(sigma_h=0.06, sigma_c=0.005)
    clm = en.ChainLengthModel(slope=0.122, intercept=1.0)
    Ls = list(range(5, 105, 5))
    cbf_vs_L = []
    for L in Ls:
        lengths = en.synth_chain_lengths(L, clm, seed=0)
        vals = [float(en.margin_model_run(lengths, 0.35, 1.0, nm, 4000,
                                          seed=s * 100 + L).mean())
                for s in range(5)]
        cbf_vs_L.append(np.mean(vals))
    rho_L, p_L = spearmanr(Ls, cbf_vs_L)

    ks = np.arange(0.1, 1.01, 0.05)
    lengths = en.synth_chain_lengths(60, clm, seed=0)
    cbf_vs_k = []
    for k in ks:
        vals = [float(en.margin_model_run(lengths, float(k), 1.0, nm, 4000,
                                          seed=s * 300 + int(k * 100)).mean())
                for s in range(5)]
        cbf_vs_k.append(np.mean(vals))
    rho_k, p_k = spearmanr(ks, cbf_vs_k)

    ok = rho_L > 0 and p_L < 0.01 and rho_k < 0 and p_k < 0.01
    assert report(9, "mean CBF nondecreasing in L, nonincreasing in k (Spearman)",
                  ok, f"rho_L {rho_L:.3f} (p={p_L:.1e}), rho_k {rho_k:.3f} "
                  f"(p={p_k:.1e})")
