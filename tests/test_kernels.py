import shutil

import numpy as np
import pytest

from embednoise import _kernels
from embednoise._kernels import _load, _sa_c, _sa_py, get_kernel
from embednoise.noise import NoiseModel
from embednoise.problem import generate_random_qubo, qubo_to_ising
from embednoise.sampler import simulated_anneal, synthetic_hardware_run

# a machine with cc must build the C kernel: a failed build fails these tests
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


def make_inputs(reads=8, n=12, sweeps=16, max_deg=6, seed=0, degrees=None):
    """Kernel arguments for CSR rows of ragged degrees, 0..max_deg unless `degrees` is given."""
    rng = np.random.default_rng(seed)
    spins = (rng.integers(0, 2, (reads, n)) * 2 - 1).astype(np.int8)
    h = rng.normal(size=(reads, n))
    degrees = rng.integers(0, max_deg + 1, n) if degrees is None else degrees
    row_ptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int32)
    nbr_idx = rng.integers(0, n, row_ptr[-1]).astype(np.int32)
    nbr_val = rng.normal(size=(reads, row_ptr[-1]))
    perms = np.stack([rng.permutation(n) for _ in range(reads)]).astype(np.int32)
    betas = np.linspace(0.1, 3.0, sweeps)
    log_u = np.log(rng.random((reads, sweeps, n)))
    return spins, h, nbr_idx, nbr_val, perms, betas, log_u, row_ptr


class TestPythonKernel:
    def test_spins_stay_plus_minus_one(self):
        args = make_inputs()
        _sa_py.run_metropolis(*args)
        assert np.all(np.abs(args[0]) == 1)

    def test_deterministic(self):
        a = make_inputs(seed=3)
        b = make_inputs(seed=3)
        _sa_py.run_metropolis(*a)
        _sa_py.run_metropolis(*b)
        assert np.array_equal(a[0], b[0])

    def test_unit_uniforms_admit_only_downhill_moves(self):
        # at u = 1 (log u = 0) a flip needs -beta*de > 0, i.e. de < 0: with
        # h = +1 every +1 spin flips down and every -1 spin stays put
        spins, h, nbr_idx, nbr_val, perms, betas, log_u, row_ptr = make_inputs(sweeps=1)
        log_u[:] = 0.0
        nbr_val[:] = 0.0
        h[:] = 1.0
        _sa_py.run_metropolis(spins, h, nbr_idx, nbr_val, perms, betas, log_u, row_ptr)
        assert np.all(spins == -1)


@needs_cc
class TestBackendParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bitwise_identical_kernels(self, seed):
        a = make_inputs(seed=seed)
        b = make_inputs(seed=seed)
        _sa_py.run_metropolis(*a)
        get_kernel("c").run_metropolis(*b)
        assert np.array_equal(a[0], b[0])

    def test_parity_with_broadcast_arrays(self):
        # shared h and couplers enter as stride-0 broadcast views
        spins, h, nbr_idx, nbr_val, perms, betas, log_u, row_ptr = make_inputs(reads=6, seed=9)
        h1, val1 = np.broadcast_to(h[0], h.shape), np.broadcast_to(nbr_val[0], nbr_val.shape)
        out = []
        for mod in (_sa_py, get_kernel("c")):
            s = spins.copy()
            mod.run_metropolis(s, h1, nbr_idx, val1, perms, betas, log_u, row_ptr)
            out.append(s)
        assert np.array_equal(*out)

    @pytest.mark.parametrize("shape", ["hub", "degree-0", "no-couplers"])
    def test_parity_on_skewed_rows(self, shape):
        # one spin adjacent to all others, rows with no entries, and nnz = 0,
        # each with per-read and with shared (stride-0) coupler values
        n = 40
        degrees = {"hub": [n - 1] + [1] * (n - 1), "degree-0": [0, 5] * (n // 2),
                   "no-couplers": [0] * n}[shape]
        spins, h, nbr_idx, nbr_val, perms, betas, log_u, row_ptr = make_inputs(
            reads=5, n=n, sweeps=12, seed=4, degrees=degrees)
        for val in (nbr_val, np.broadcast_to(nbr_val[0], nbr_val.shape)):
            out = []
            for mod in (_sa_py, get_kernel("c")):
                s = spins.copy()
                mod.run_metropolis(s, h, nbr_idx, val, perms, betas, log_u, row_ptr)
                out.append(s)
            assert np.array_equal(*out)
            assert not np.array_equal(out[0], spins)

    def test_cancelling_terms_summed_in_table_order(self):
        # spin 0 = -1 sees h = 0 and terms (1e16, 1, -1e16) in read 0 and
        # (1, 1e16, -1e16) in read 1. Summed from h in row order, 1e16 + 1
        # rounds to 1e16, so both fields are 0 and log u = -1 < 0 flips spin
        # 0. Any order that cancels the 1e16s first gives 1, which would
        # need log u < -2, and keeps it: pairwise sums in read 0, the
        # reverse order in read 1.
        spins = np.array([[-1, 1, 1, 1]] * 2, dtype=np.int8)
        row_ptr = np.array([0, 3, 3, 3, 3], dtype=np.int32)  # spins 1..3 have no entries
        nbr_idx = np.array([1, 2, 3], dtype=np.int32)
        vals = np.array([[1e16, 1.0, -1e16], [1.0, 1e16, -1e16]])
        h = np.array([0.0, -10.0, -10.0, -10.0])
        perms = np.tile(np.arange(4, dtype=np.int32), (2, 1))
        args = (np.broadcast_to(h, (2, 4)), nbr_idx, vals, perms, np.array([1.0]),
                np.full((2, 1, 4), -1.0), row_ptr)
        for mod in (_sa_py, get_kernel("c")):
            s = spins.copy()
            mod.run_metropolis(s, *args)
            assert s.tolist() == [[1, 1, 1, 1]] * 2

    def test_c_kernel_rejects_unsafe_inputs(self):
        c = get_kernel("c")
        spins, h, nbr_idx, nbr_val, perms, betas, log_u, row_ptr = make_inputs()
        bad = [(spins, h.astype(np.float32), nbr_idx, nbr_val, perms, betas, log_u, row_ptr),
               (spins, h, nbr_idx, nbr_val[:, ::-1], perms, betas, log_u, row_ptr),
               (spins, h, nbr_idx, nbr_val, perms, betas, log_u[:, :1], row_ptr),
               (spins, h, nbr_idx, nbr_val, perms + 1, betas, log_u, row_ptr),
               (spins, h, np.full_like(nbr_idx, -1), nbr_val, perms, betas, log_u, row_ptr),
               (np.broadcast_to(spins[0], spins.shape), h, nbr_idx, nbr_val, perms, betas, log_u,
                row_ptr),
               (spins, h, nbr_idx, nbr_val, perms, betas, log_u, row_ptr.astype(np.int64))]
        for args in bad:
            with pytest.raises(ValueError):
                c.run_metropolis(*args)

    @pytest.mark.parametrize("case", ["length", "start", "end", "falls", "neighbour"])
    def test_c_kernel_rejects_bad_csr(self, case):
        # a malformed row_ptr would make sa.c read outside nbr_idx and nbr_val;
        # the good one for these 4 spins is [0, 2, 3, 5, 6]
        row_ptr, match = {"length": ([0, 2, 3, 5, 6, 6], r"int32 \(5,\)"),
                          "start": ([1, 2, 3, 5, 6], "row_ptr must rise"),
                          "end": ([0, 2, 3, 5, 5], "row_ptr must rise"),
                          "falls": ([0, 3, 2, 5, 6], "row_ptr must rise"),
                          "neighbour": ([0, 2, 3, 5, 6], "must index 0..n-1")}[case]
        spins, h, nbr_idx, nbr_val, perms, betas, log_u, _ = make_inputs(n=4, degrees=[2, 1, 2, 1])
        if case == "neighbour":
            nbr_idx[3] = 4
        with pytest.raises(ValueError, match=match):
            get_kernel("c").run_metropolis(spins, h, nbr_idx, nbr_val, perms, betas, log_u,
                                           np.array(row_ptr, dtype=np.int32))

    def test_full_sampler_parity(self):
        m = qubo_to_ising(generate_random_qubo(14, 0.7, seed=11))
        a = simulated_anneal(m, 100, seed=2, backend="python")
        b = simulated_anneal(m, 100, seed=2, backend="c")
        assert (a.metadata["kernel"], b.metadata["kernel"]) == ("python", "c")
        assert np.array_equal(a.spins, b.spins)
        assert np.array_equal(a.energies, b.energies)

    def test_synthetic_parity(self):
        q = generate_random_qubo(6, 0.8, seed=4)
        nm = NoiseModel(sigma_h=0.05, sigma_c=0.02)
        a, b = (synthetic_hardware_run(q, [3, 2, 3, 1, 2, 3], 1.0, nm, reads=40, seed=5,
                                       backend=k)[0]
                for k in ("python", "c"))
        assert np.array_equal(a.spins, b.spins)


class TestLoader:
    @needs_cc
    def test_second_load_does_not_compile(self, tmp_path, monkeypatch):
        assert _load(str(tmp_path)) == (_sa_c, None)
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))  # no cc from here on
        assert _load(str(tmp_path)) == (_sa_c, None)
        assert [p.suffix for p in tmp_path.iterdir()] == [".so"]

    def test_no_compiler_falls_back_with_reason(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        kernel, reason = _load(str(tmp_path / "cache"))
        assert kernel is _sa_py
        assert "No such file or directory: 'cc'" in reason

    @needs_cc
    def test_build_failure_falls_back_with_compiler_output(self, tmp_path, monkeypatch):
        bad = tmp_path / "sa.c"
        bad.write_text("this is not C\n")
        monkeypatch.setattr(_sa_c, "SOURCE", str(bad))
        kernel, reason = _load(str(tmp_path / "cache"))
        assert kernel is _sa_py
        assert reason.startswith("cc exited") and "error" in reason

    def test_unavailable_c_kernel_raises_stored_reason(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_loaded", (_sa_py, "cc exited 1: boom"))
        assert get_kernel("auto") is _sa_py
        with pytest.raises(RuntimeError, match="boom"):
            get_kernel("c")


class TestBackendSelection:
    def test_python_always_available(self):
        assert get_kernel("python") is _sa_py

    def test_auto_resolves(self):
        k = get_kernel("auto")
        assert hasattr(k, "run_metropolis")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_kernel("fortran")
