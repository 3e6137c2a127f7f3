import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embednoise.problem import (IsingModel, QuboInstance, _batch_energies, generate_random_qubo,
                                ising_energy, qubo_energy, qubo_to_ising)


def couplers(m):
    """The model's couplers as {(i, j): J_ij}, read from its arrays."""
    return dict(zip(zip(m.ei.tolist(), m.ej.tolist()), m.jv.tolist()))


def enumerate_bits(n):
    for idx in range(1 << n):
        yield np.array([(idx >> (n - 1 - b)) & 1 for b in range(n)])


class TestGenerateRandomQubo:
    def test_zero_density_has_no_offdiag(self):
        q = generate_random_qubo(5, 0.0, seed=7)
        assert q.offdiag == {}
        assert q.diag.shape == (5,)

    def test_full_density_has_complete_graph(self):
        q = generate_random_qubo(5, 1.0, seed=7)
        assert len(q.offdiag) == 10
        assert set(q.offdiag) == {(i, j) for i in range(5) for j in range(i + 1, 5)}

    def test_determinism(self):
        a = generate_random_qubo(20, 1.0, seed=20)
        b = generate_random_qubo(20, 1.0, seed=20)
        assert np.array_equal(a.diag, b.diag)
        assert a.offdiag == b.offdiag

    def test_seeds_differ(self):
        a = generate_random_qubo(20, 1.0, seed=20)
        b = generate_random_qubo(20, 1.0, seed=21)
        assert not np.array_equal(a.diag, b.diag)

    def test_coefficients_in_range(self):
        q = generate_random_qubo(30, 0.5, seed=3)
        assert np.all(np.abs(q.diag) <= 1.0)
        assert all(abs(v) <= 1.0 for v in q.offdiag.values())

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            generate_random_qubo(5, 1.5, seed=0)
        with pytest.raises(ValueError):
            generate_random_qubo(5, -0.1, seed=0)

    def test_density_roughly_respected(self):
        q = generate_random_qubo(60, 0.3, seed=1)
        frac = len(q.offdiag) / (60 * 59 / 2)
        assert abs(frac - 0.3) < 0.06  # ~4 sigma for 1770 Bernoulli trials


class TestQuboToIsing:
    def test_single_variable(self):
        # Q_00 = q expands to q(1+s)/2: h = q/2, offset = q/2
        q = QuboInstance(L=1, diag=np.array([0.8]), offdiag={}, density=0.0, seed=0)
        m = qubo_to_ising(q)
        assert m.h[0] == pytest.approx(0.4)
        assert m.offset == pytest.approx(0.4)
        assert couplers(m) == {}

    def test_single_coupler(self):
        q = QuboInstance(L=2, diag=np.zeros(2), offdiag={(0, 1): 1.0}, density=1.0, seed=0)
        m = qubo_to_ising(q)
        assert couplers(m)[(0, 1)] == pytest.approx(0.25)
        assert m.h[0] == pytest.approx(0.25)
        assert m.h[1] == pytest.approx(0.25)
        assert m.offset == pytest.approx(0.25)

    def test_all_zero(self):
        q = QuboInstance(L=3, diag=np.zeros(3), offdiag={}, density=0.0, seed=0)
        m = qubo_to_ising(q)
        assert np.all(m.h == 0) and couplers(m) == {} and m.offset == 0

    @pytest.mark.parametrize("L,rho,seed", [(2, 1.0, 0), (5, 0.5, 3), (8, 0.8, 11), (12, 0.4, 5)])
    def test_energy_equivalence_exhaustive(self, L, rho, seed):
        q = generate_random_qubo(L, rho, seed)
        m = qubo_to_ising(q)
        for x in enumerate_bits(L):
            s = 2 * x - 1
            assert qubo_energy(q, x) == pytest.approx(ising_energy(m, s), abs=1e-12)


class TestEnergies:
    def test_qubo_all_zero_assignment(self):
        q = generate_random_qubo(6, 1.0, seed=2)
        assert qubo_energy(q, np.zeros(6, dtype=int)) == 0.0

    def test_qubo_all_one_assignment(self):
        q = generate_random_qubo(6, 1.0, seed=2)
        total = float(np.sum(q.diag)) + sum(q.offdiag.values())
        assert qubo_energy(q, np.ones(6, dtype=int)) == pytest.approx(total)

    def test_qubo_against_dense_matrix(self):
        q = generate_random_qubo(10, 0.7, seed=9)
        rng = np.random.default_rng(0)
        Q = np.diag(q.diag).astype(float)
        for (i, j), v in q.offdiag.items():
            Q[i, j] = v
        for _ in range(20):
            x = rng.integers(0, 2, size=10)
            assert qubo_energy(q, x) == pytest.approx(float(x @ Q @ x), abs=1e-12)

    def test_ising_all_up_all_down(self):
        m = IsingModel(n=3, h=np.array([0.1, -0.2, 0.3]), J={(0, 1): 0.5, (1, 2): -0.25},
                       offset=1.5)
        hs, js = float(np.sum(m.h)), sum(couplers(m).values())
        assert ising_energy(m, np.ones(3)) == pytest.approx(hs + js + 1.5)
        assert ising_energy(m, -np.ones(3)) == pytest.approx(-hs + js + 1.5)

    def test_ising_rejects_nonspin(self):
        m = IsingModel(n=2, h=np.zeros(2))
        with pytest.raises(ValueError):
            ising_energy(m, np.array([1, 0]))

    def test_length_mismatch(self):
        q = generate_random_qubo(4, 0.5, seed=0)
        with pytest.raises(ValueError):
            qubo_energy(q, np.zeros(5, dtype=int))


class TestValidation:
    def test_bad_offdiag_key(self):
        with pytest.raises(ValueError):
            QuboInstance(L=3, diag=np.zeros(3), offdiag={(2, 1): 0.5}, density=0.1, seed=0)

    def test_bad_J_key(self):
        with pytest.raises(ValueError):
            IsingModel(n=3, h=np.zeros(3), J={(0, 3): 0.5})

    @pytest.mark.parametrize("name, h, J, offset", [("h", [np.nan, 0.0], {}, 0.0),
                                                    ("J", [0.0, 0.0], {(0, 1): np.inf}, 0.0),
                                                    ("offset", [0.0, 0.0], {}, -np.inf)])
    def test_ising_rejects_non_finite(self, name, h, J, offset):
        with pytest.raises(ValueError, match=f"^{name} is not finite"):
            IsingModel(n=2, h=h, J=J, offset=offset)

    def test_diag_length(self):
        with pytest.raises(ValueError):
            QuboInstance(L=3, diag=np.zeros(2), offdiag={}, density=0.0, seed=0)


class TestIsingModelArrays:
    def test_mapping_and_arrays_store_the_same_sorted_couplers(self):
        J = {(1, 3): 0.5, (0, 2): -1.0, (0, 1): 0.25, (2, 3): 2.0}
        a = IsingModel(4, np.zeros(4), J)
        b = IsingModel(4, np.zeros(4), ([1, 0, 0, 2], [3, 2, 1, 3], [0.5, -1.0, 0.25, 2.0]))
        for m in (a, b):
            assert m.ei.tolist() == [0, 0, 1, 2] and m.ej.tolist() == [1, 2, 3, 3]
            assert m.jv.tolist() == [0.25, -1.0, 0.5, 2.0]
            assert m.ei.dtype == m.ej.dtype == np.int64 and m.jv.dtype == np.float64
        assert a.dumps() == b.dumps()
        assert not any(isinstance(v, dict) for v in vars(a).values())

    def test_no_couplers(self):
        m = IsingModel(3, np.zeros(3))
        assert m.ei.shape == m.ej.shape == m.jv.shape == (0,)
        assert m.to_dict()["J"] == []

    @pytest.mark.parametrize("J", [([0], [0], [1.0]), ([1], [0], [1.0]), ([0], [3], [1.0]),
                                   ([-1], [1], [1.0]), ([0, 0], [1, 1], [1.0, 2.0]),
                                   ([0, 1], [1, 2], [1.0]), ([[0]], [[1]], [[1.0]])])
    def test_rejects_bad_arrays(self, J):
        with pytest.raises(ValueError):
            IsingModel(3, np.zeros(3), J)

    def test_json_triples_sorted(self):
        m = IsingModel(3, np.zeros(3), {(1, 2): 0.5, (0, 2): 1.5})
        assert m.to_dict()["J"] == [[0, 2, 1.5], [1, 2, 0.5]]
        assert IsingModel.loads(m.dumps()).dumps() == m.dumps()

    def test_ising_energy_is_the_row_formula(self):
        m = qubo_to_ising(generate_random_qubo(30, 0.7, seed=8))
        spins = (np.random.default_rng(1).integers(0, 2, (20, 30)) * 2 - 1).astype(np.int8)
        rows = _batch_energies(spins, m.h, m.ei, m.ej, m.jv, m.offset)
        assert [ising_energy(m, s) for s in spins] == rows.tolist()


@pytest.mark.parametrize("seed", range(6))
def test_qubo_to_ising_adds_in_the_order_of_a_loop(seed):
    # any insertion order of q.offdiag: h_i, h_j and the offset take each
    # Q_ij / 4 in turn, bit for bit as a loop over the items does
    rng = np.random.default_rng(seed)
    q = generate_random_qubo(25, 0.6, seed)
    items = list(q.offdiag.items())
    if seed % 2:
        items = [items[k] for k in rng.permutation(len(items))]
    q = QuboInstance(25, q.diag, dict(items), 0.6, seed)
    h, offset = q.diag / 2.0, float(np.sum(q.diag)) / 2.0
    for (i, j), v in items:
        h[i] += v / 4.0
        h[j] += v / 4.0
        offset += v / 4.0
    m = qubo_to_ising(q)
    assert m.h.tobytes() == h.tobytes() and m.offset == offset
    assert couplers(m) == {key: v / 4.0 for key, v in items}


class TestSerialization:
    def test_qubo_roundtrip(self):
        q = generate_random_qubo(8, 0.6, seed=4)
        r = QuboInstance.loads(q.dumps())
        assert np.array_equal(q.diag, r.diag) and q.offdiag == r.offdiag

    def test_ising_roundtrip(self):
        m = qubo_to_ising(generate_random_qubo(8, 0.6, seed=4))
        r = IsingModel.loads(m.dumps())
        assert np.array_equal(m.h, r.h) and couplers(m) == couplers(r) and m.offset == r.offset

    def test_offdiag_sorted_in_json(self):
        q = generate_random_qubo(8, 1.0, seed=4)
        triples = q.to_dict()["offdiag"]
        assert triples == sorted(triples)


@settings(max_examples=50, deadline=None)
@given(L=st.integers(2, 8), rho=st.floats(0, 1), seed=st.integers(0, 2**31),
       data=st.data())
def test_mapping_equivalence_property(L, rho, seed, data):
    q = generate_random_qubo(L, rho, seed)
    m = qubo_to_ising(q)
    x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=L, max_size=L)))
    assert qubo_energy(q, x) == pytest.approx(ising_energy(m, 2 * x - 1), abs=1e-12)
