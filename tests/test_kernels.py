import inspect
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import embednoise
from embednoise import _kernels
from embednoise._kernels import _load, _sa_c, _sa_py, csr, get_kernel
from embednoise.noise import NoiseModel
from embednoise.problem import generate_random_qubo, qubo_to_ising
from embednoise.sampler import simulated_anneal, synthetic_hardware_run

# a machine with cc must build the C kernel: a failed build fails these tests
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


def make_inputs(reads=8, n=12, sweeps=16, density=0.3, seed=0, edges=None, dyadic=False):
    """Kernel arguments for the couplers `edges`, per-read values.

    By default each pair i < j is an edge with probability `density`, so degrees are ragged
    and can be 0. `dyadic` draws h and couplers from the multiples of 1/8 in [-2, 2], on
    which every partial sum of a field is exact.
    """
    rng = np.random.default_rng(seed)

    def draw(shape):
        return rng.integers(-16, 17, shape) / 8 if dyadic else rng.normal(size=shape)

    spins = (rng.integers(0, 2, (reads, n)) * 2 - 1).astype(np.int8)
    h = draw((reads, n))
    if edges is None:
        edges = np.argwhere(np.triu(rng.random((n, n)) < density, 1))
    edges = np.ascontiguousarray(np.reshape(edges, (-1, 2)), dtype=np.int32)
    jv = draw((reads, len(edges)))
    betas = np.linspace(0.1, 3.0, sweeps)
    log_u = np.log(rng.random((reads, sweeps, n)))
    return spins, h, edges, jv, betas, log_u


def fresh_sum_metropolis(spins, h, edges, jv, betas, log_u):
    """The kernels' dynamics with every field summed from scratch at its visit; returns the flips."""
    row_ptr, nbr_idx, edge_id = csr(spins.shape[1], edges)
    flips = 0
    for r, s in enumerate(spins):
        for c, beta in enumerate(betas):
            for i in range(len(s)):
                row = slice(row_ptr[i], row_ptr[i + 1])
                field = h[r, i] + sum(jv[r, edge_id[row]] * s[nbr_idx[row]])
                if log_u[r, c, i] < -beta * (-2.0 * s[i] * field):
                    s[i], flips = -s[i], flips + 1
    return flips


def both_kernels(spins, *args):
    """Spins after the NumPy kernel and after the C kernel, each run on a copy of `spins`."""
    out = []
    for mod in (_sa_py, get_kernel("c")):
        s = spins.copy()
        mod.run_metropolis(s, *args)
        out.append(s)
    return out


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
        spins, h, edges, jv, betas, log_u = make_inputs(sweeps=1)
        log_u[:] = 0.0
        jv[:] = 0.0
        h[:] = 1.0
        _sa_py.run_metropolis(spins, h, edges, jv, betas, log_u)
        assert np.all(spins == -1)

    @pytest.mark.parametrize("case", ["neighbour", "negative", "self-loop"])
    def test_rejects_bad_edges(self, case):
        # csr checks the endpoints for both kernels: an end outside 0..n-1 would index past the
        # fields, and a self-loop's two entries in one row would update the spin's own field
        spins, h, edges, jv, betas, log_u = make_inputs(n=4, edges=[(0, 1), (0, 2), (2, 3)])
        edges[1] = {"neighbour": (0, 4), "negative": (-1, 2), "self-loop": (2, 2)}[case]
        before = spins.copy()
        with pytest.raises(ValueError, match="edges must join two distinct spins in 0..n-1"):
            _sa_py.run_metropolis(spins, h, edges, jv, betas, log_u)
        assert np.array_equal(spins, before)

    @pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
    def test_one_csr_build_per_anneal(self, backend, monkeypatch):
        # _anneal's row sums of |J| fill csr's cache before any part starts, and every kernel
        # call finds it there: 4 chunks of 32 sweeps, in tiles on two parts for sa.c
        builds, build = [], _sa_py._build_csr
        monkeypatch.setattr(_sa_py, "_build_csr", lambda *a: builds.append(1) or build(*a))
        monkeypatch.setattr(_sa_py, "_last", (None, None))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(_sa_c, "DRAWS_PER_CALL", 5 * 32 * 14)
        ss = simulated_anneal(qubo_to_ising(generate_random_qubo(12, 0.7, seed=3)), 37, seed=4,
                              backend=backend)
        phys, _ = synthetic_hardware_run(generate_random_qubo(6, 0.8, seed=4), [3, 2, 3, 1, 2, 3],
                                         1.0, NoiseModel(0.05, 0.02), reads=37, seed=5,
                                         backend=backend)
        assert ss.metadata["threads"] == phys.metadata["threads"] == (2 if backend == "c" else 1)
        assert len(builds) == 2  # one per anneal


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
        spins, h, edges, jv, betas, log_u = make_inputs(reads=6, seed=9)
        h1, jv1 = np.broadcast_to(h[0], h.shape), np.broadcast_to(jv[0], jv.shape)
        assert np.array_equal(*both_kernels(spins, h1, edges, jv1, betas, log_u))

    @pytest.mark.parametrize("shape", ["hub", "degree-0", "no-couplers"])
    def test_parity_on_skewed_rows(self, shape):
        # one spin adjacent to all others, rows with no entries, and nnz = 0,
        # each with per-read and with shared (stride-0) coupler values
        n = 40
        odd = np.arange(1, n, 2)  # the degree-0 case: a 5-regular circulant on the odd spins
        ring = [(odd[k], odd[(k + step) % 20]) for k in range(20) for step in (1, 2)]
        edges = {"hub": [(0, j) for j in range(1, n)],
                 "degree-0": ring + [(odd[k], odd[k + 10]) for k in range(10)],
                 "no-couplers": []}[shape]
        spins, h, edges, jv, betas, log_u = make_inputs(
            reads=5, n=n, sweeps=12, seed=4, edges=edges)
        assert list(np.diff(csr(n, edges)[0])) == {"hub": [n - 1] + [1] * (n - 1),
                                                   "degree-0": [0, 5] * (n // 2),
                                                   "no-couplers": [0] * n}[shape]
        for val in (jv, np.broadcast_to(jv[0], jv.shape)):
            out = both_kernels(spins, h, edges, val, betas, log_u)
            assert np.array_equal(*out)
            assert not np.array_equal(out[0], spins)

    def test_cancelling_terms_summed_in_table_order(self):
        # spin 0 = -1 sees h = 0 and terms (1e16, 1, -1e16) in read 0 and
        # (1, 1e16, -1e16) in read 1, from edges (0, 1), (0, 2) and (0, 3), each
        # also the one entry in the row of spin 1, 2 or 3. Summed from h in row
        # order (the edge order), 1e16 + 1 rounds to 1e16,
        # so both of spin 0's first fields are 0 and log u = -1 < 0 flips it.
        # Any order that cancels the 1e16s first gives 1, which would need
        # log u < -2, and keeps it: pairwise sums in read 0, the reverse order
        # in read 1. Spins 1..3 stay up: h = -1e17 outweighs their one term.
        spins = np.array([[-1, 1, 1, 1]] * 2, dtype=np.int8)
        edges = np.array([[0, 1], [0, 2], [0, 3]], dtype=np.int32)
        terms = np.array([[1e16, 1.0, -1e16], [1.0, 1e16, -1e16]])
        h = np.array([0.0, -1e17, -1e17, -1e17])
        args = (np.broadcast_to(h, (2, 4)), edges, terms, np.array([1.0]), np.full((2, 1, 4), -1.0))
        for mod in (_sa_py, get_kernel("c")):
            s = spins.copy()
            mod.run_metropolis(s, *args)
            assert s.tolist() == [[1, 1, 1, 1]] * 2

    def test_c_kernel_rejects_unsafe_inputs(self):
        c = get_kernel("c")
        spins, h, edges, jv, betas, log_u = make_inputs()
        bad = [(spins, h.astype(np.float32), edges, jv, betas, log_u),
               (spins, h, edges, jv[:, ::-1], betas, log_u),
               (spins, h, edges, jv[:, :-1], betas, log_u),
               (spins, h, edges, jv, betas, log_u[:, :1]),
               (np.broadcast_to(spins[0], spins.shape), h, edges, jv, betas, log_u),
               (spins, h, edges.astype(np.int64), jv, betas, log_u),
               (spins, h, edges.T.copy(), jv, betas, log_u)]
        before = spins.copy()
        for args in bad:
            with pytest.raises(ValueError):
                c.run_metropolis(*args)
            assert np.array_equal(spins, before)  # rejected before any spin moved

    def test_c_kernel_rechecks_a_csr_changed_in_place(self):
        # the endpoint checks and the CSR are kept for the last edge list, by value: an edge
        # list that passed and is then edited in place is checked again
        spins, h, edges, jv, betas, log_u = make_inputs(seed=6)
        c = get_kernel("c")
        c.run_metropolis(spins.copy(), h, edges, jv, betas, log_u)
        edges[0, 1] = spins.shape[1]
        before = spins.copy()
        with pytest.raises(ValueError, match="edges must join two distinct spins in 0..n-1"):
            c.run_metropolis(spins, h, edges, jv, betas, log_u)
        assert np.array_equal(spins, before)

    @pytest.mark.parametrize("case", ["neighbour", "negative", "self-loop"])
    def test_c_kernel_rejects_bad_edges(self, case):
        # an end outside 0..n-1 would make sa.c write outside the fields; a self-loop's two
        # entries sit in one row, so a flip would update the spin's own field
        spins, h, edges, jv, betas, log_u = make_inputs(n=4, edges=[(0, 1), (0, 2), (2, 3)])
        edges[1] = {"neighbour": (0, 4), "negative": (-1, 2), "self-loop": (2, 2)}[case]
        before = spins.copy()
        with pytest.raises(ValueError, match="edges must join two distinct spins in 0..n-1"):
            get_kernel("c").run_metropolis(spins, h, edges, jv, betas, log_u)
        assert np.array_equal(spins, before)

    @pytest.mark.parametrize("shared", [False, True])
    def test_c_kernel_rejects_nonfinite_values(self, shared):
        spins, h, edges, jv, betas, log_u = make_inputs(n=4, edges=[(0, 1), (0, 2), (2, 3)])
        jv[0 if shared else 5, 1] = np.nan
        if shared:
            jv = np.broadcast_to(jv[0], jv.shape)
        before = spins.copy()
        with pytest.raises(ValueError, match="coupler values must be finite"):
            get_kernel("c").run_metropolis(spins, h, edges, jv, betas, log_u)
        assert np.array_equal(spins, before)

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


class TestIncrementalFields:
    @pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
    @pytest.mark.parametrize("shared", [False, True])
    def test_match_fresh_sums_on_dyadic_inputs(self, backend, shared):
        # on dyadic inputs every partial sum is exact, so fields updated at each
        # accepted flip must equal fields summed at each visit, bit for bit
        spins, h, edges, jv, _, log_u = make_inputs(
            reads=4, n=16, sweeps=24, density=0.4, seed=5, dyadic=True)
        if shared:
            jv = np.broadcast_to(jv[0], jv.shape)
        betas = np.full(24, 0.3)  # hot: hundreds of flips accepted
        want = spins.copy()
        flips = fresh_sum_metropolis(want, h, edges, jv, betas, log_u)
        assert flips >= 300
        get_kernel(backend).run_metropolis(spins, h, edges, jv, betas, log_u)
        assert np.array_equal(spins, want)

    @needs_cc
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 10), reads=st.integers(1, 4), shared=st.booleans(),
           seed=st.integers(0, 2**32 - 1),
           steps=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 8)), max_size=30))
    @example(n=5, reads=3, shared=False, seed=1, steps=[])  # m = 0
    @example(n=4, reads=3, shared=False, seed=2, steps=[(0, 0), (1, 1), (0, 0), (1, 2)])
    def test_c_matches_numpy_on_random_symmetric_graphs(self, n, reads, shared, seed, steps):
        # edges (i, i + k + 1 mod n), so either orientation, possibly repeated: the second
        # example lists (0, 1) twice and as (1, 0); the kernels must agree on every edge list
        edges = [(i % n, (i + k % (n - 1) + 1) % n) for i, k in steps]
        spins, h, edges, jv, betas, log_u = make_inputs(
            reads=reads, n=n, sweeps=8, seed=seed, edges=edges)
        if shared:
            jv = np.broadcast_to(jv[0], jv.shape)
        assert np.array_equal(*both_kernels(spins, h, edges, jv, betas, log_u))


class TestKernelContract:
    def test_kernels_share_one_signature(self):
        # perfbench's tracer reads spins and coupler values at positions 0 and 3, and betas at
        # position 5 or by name, so _anneal passes betas and log_u by name
        sig = inspect.signature(_sa_py.run_metropolis)
        assert inspect.signature(_sa_c.run_metropolis) == sig
        assert list(sig.parameters) == ["spins", "h", "edges", "jv", "betas", "log_u"]

    @needs_cc
    def test_sa_c_compiles_without_warnings(self):
        proc = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", _sa_c.SOURCE],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


@needs_cc
class TestDrawTiles:
    """The C kernel gets a chunk's draws in tiles of reads; the tile size changes no stream."""

    @staticmethod
    def runs(monkeypatch, draws):
        """Spins of a simulated_anneal and a synthetic_hardware_run, 37 reads each, and the C
        kernel's calls, with DRAWS_PER_CALL = draws, on two CPUs."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(_sa_c, "DRAWS_PER_CALL", draws)
        calls, run = [], _sa_c.run_metropolis
        monkeypatch.setattr(_sa_c, "run_metropolis",
                            lambda *a, **kw: calls.append(len(a[0])) or run(*a, **kw))
        sa = simulated_anneal(qubo_to_ising(generate_random_qubo(12, 0.7, seed=3)), 37, seed=4,
                              backend="c")
        synth, _ = synthetic_hardware_run(generate_random_qubo(6, 0.8, seed=4), [3, 2, 3, 1, 2, 3],
                                          1.0, NoiseModel(0.05, 0.02), reads=37, seed=5, backend="c")
        return sa.spins, synth.spins, calls

    def test_tile_size_does_not_change_the_streams(self, monkeypatch):
        # 128 sweeps are 4 chunks of 32; n is 12 for simulated_anneal and 14 (the chain lengths'
        # sum) for the synthetic run. When the first chunk needs more than one tile of
        # T = max(1, DRAWS_PER_CALL // (32 * n)) reads, the reads split into two parts (18 and
        # 19 reads on two threads), each in tiles of T reads; at DRAWS_PER_CALL = 1 those are
        # one-read tiles
        whole = self.runs(monkeypatch, sys.maxsize)
        assert whole[2] == [37] * 8  # one call per chunk of each anneal
        for draws, sa_tiles, synth_tiles in [(1, [1] * 37, [1] * 37),
                                             (5 * 32 * 12, [5] * 6 + [3, 4], [4] * 8 + [2, 3]),
                                             (_sa_c.DRAWS_PER_CALL, [37], [37])]:
            sa, synth, calls = self.runs(monkeypatch, draws)
            assert sa.tobytes() == whole[0].tobytes() and synth.tobytes() == whole[1].tobytes()
            assert sorted(calls) == sorted(sa_tiles * 4 + synth_tiles * 4)

    def test_numpy_kernel_gets_whole_chunks(self, monkeypatch):
        calls, run = [], _sa_py.run_metropolis
        monkeypatch.setattr(_sa_py, "run_metropolis",
                            lambda *a, **kw: calls.append(kw["log_u"].shape) or run(*a, **kw))
        simulated_anneal(qubo_to_ising(generate_random_qubo(12, 0.7, seed=3)), 37, seed=4,
                         backend="python")
        assert calls == [(37, 32, 12)] * 4

    def test_numpy_kernel_tiles_above_its_bound(self, monkeypatch):
        # past reads * n = 2^25 the NumPy kernel tiles like sa.c; a bound of 5 reads of 32
        # sweeps stands in for that size: two parts in tiles of 5, the spins of whole chunks
        model = qubo_to_ising(generate_random_qubo(12, 0.7, seed=3))
        whole = simulated_anneal(model, 37, seed=4, backend="python")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(_sa_py, "DRAWS_PER_CALL", 5 * 32 * 12)
        tiled = simulated_anneal(model, 37, seed=4, backend="python")
        assert (whole.metadata["threads"], tiled.metadata["threads"]) == (1, 2)
        assert tiled.spins.tobytes() == whole.spins.tobytes()

    def test_draws_held_at_once_are_bounded(self, monkeypatch):
        # a whole chunk's draws, 2000 reads x 32 sweeps x 20 spins, would be 10 MB, held twice
        # while the next chunk's are drawn; on 2 CPUs (each further CPU adds a part's 0.5 MB)
        # two parts' tiles of draws and a row block of the energy pass's coupler terms are 1 MB
        # each
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        bound = 4 * 2**20
        model = qubo_to_ising(generate_random_qubo(20, 1.0, seed=1))
        simulated_anneal(model, 10, seed=1, backend="c")  # load the kernel, cache the CSR
        tracemalloc.start()
        try:
            simulated_anneal(model, 2000, seed=1, backend="c")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_edge_list_cache_is_thread_safe():
    # csr keeps the CSR of the last edge list for both kernels: a call must sweep the CSR of its
    # own edge list, even when another thread's call keeps the CSR of a longer list (neighbour
    # ids beyond this n) between its check and its read
    kernel, switch = get_kernel(), sys.getswitchinterval()
    inputs = [make_inputs(reads=2, n=n, sweeps=2, seed=n) for n in (5, 40)]

    def run(args):
        spins = args[0].copy()
        kernel.run_metropolis(spins, *args[1:])
        return spins
    serial = [run(args) for args in inputs]
    same = [[] for _ in range(4)]  # more threads than cores, alternating the two edge lists

    def repeat(k):
        same[k] += [np.array_equal(run(inputs[k % 2]), serial[k % 2]) for _ in range(300)]
    threads = [threading.Thread(target=repeat, args=(k,)) for k in range(4)]
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert same == [[True] * 300] * 4


def test_csr_returns_the_entry_it_compared(monkeypatch):
    # another thread's call may replace the cached entry between csr's key comparison and its
    # return, which the test above cannot time: here the comparison itself replaces it
    small, large = (np.array(e, dtype=np.int32) for e in ([[0, 1], [1, 2]], [[0, 3], [3, 4]]))
    want = _sa_py._build_csr(3, small)
    other = ((5, large.shape, large.tobytes()), _sa_py._build_csr(5, large))

    class Racing(tuple):
        def __getitem__(self, i):
            if i == 0:
                _sa_py._last = other  # as a racing thread's csr call would
            return tuple.__getitem__(self, i)
    monkeypatch.setattr(_sa_py, "_last", Racing([(3, small.shape, small.tobytes()), want]))
    assert csr(3, small) is want
    assert _sa_py._last is other


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


@needs_cc
def test_bench_kernels_script_runs():
    # the script asserts C/NumPy parity on the dense and path models, shared and per read,
    # and exits 1 on a mismatch
    root = Path(embednoise.__file__).resolve().parents[2]
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(root / "benchmarks" / "bench_kernels.py"), "--reads", "20",
                           "--sweeps", "4", "--sizes", "8"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "path L=60" in proc.stdout and "per-read L=60" in proc.stdout
