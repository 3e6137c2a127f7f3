import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embednoise.problem import (IsingModel, QuboInstance, _batch_energies, generate_random_qubo,
                                ising_energy, qubo_energy, qubo_to_ising)


def couplers(m):
    """The model's couplers as {(i, j): J_ij}, read from its arrays."""
    return dict(zip(zip(m.ei.tolist(), m.ej.tolist()), m.jv.tolist()))


def terms(q):
    """The QUBO's off-diagonal terms as a list of ((i, j), Q_ij), in stored order."""
    ei, ej, v = q.offdiag
    return list(zip(zip(ei.tolist(), ej.tolist()), v.tolist()))


def enumerate_bits(n):
    for idx in range(1 << n):
        yield np.array([(idx >> (n - 1 - b)) & 1 for b in range(n)])


class TestGenerateRandomQubo:
    def test_zero_density_has_no_offdiag(self):
        q = generate_random_qubo(5, 0.0, seed=7)
        assert all(a.shape == (0,) for a in q.offdiag)
        assert q.diag.shape == (5,)

    def test_full_density_has_complete_graph(self):
        q = generate_random_qubo(5, 1.0, seed=7)
        ei, ej, v = q.offdiag
        assert ei.dtype == ej.dtype == np.int64 and v.dtype == np.float64
        assert list(zip(ei.tolist(), ej.tolist())) == [(i, j) for i in range(5)
                                                       for j in range(i + 1, 5)]

    def test_determinism(self):
        a = generate_random_qubo(20, 1.0, seed=20)
        b = generate_random_qubo(20, 1.0, seed=20)
        assert np.array_equal(a.diag, b.diag)
        assert all(np.array_equal(x, y) for x, y in zip(a.offdiag, b.offdiag))

    def test_seeds_differ(self):
        a = generate_random_qubo(20, 1.0, seed=20)
        b = generate_random_qubo(20, 1.0, seed=21)
        assert not np.array_equal(a.diag, b.diag)

    def test_coefficients_in_range(self):
        q = generate_random_qubo(30, 0.5, seed=3)
        assert np.all(np.abs(q.diag) <= 1.0)
        assert np.all(np.abs(q.offdiag[2]) <= 1.0)

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            generate_random_qubo(5, 1.5, seed=0)
        with pytest.raises(ValueError):
            generate_random_qubo(5, -0.1, seed=0)

    def test_density_roughly_respected(self):
        q = generate_random_qubo(60, 0.3, seed=1)
        frac = len(q.offdiag[2]) / (60 * 59 / 2)
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
        total = float(np.sum(q.diag)) + float(np.sum(q.offdiag[2]))
        assert qubo_energy(q, np.ones(6, dtype=int)) == pytest.approx(total)

    def test_qubo_against_dense_matrix(self):
        q = generate_random_qubo(10, 0.7, seed=9)
        rng = np.random.default_rng(0)
        Q = np.diag(q.diag).astype(float)
        for (i, j), v in terms(q):
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

    @pytest.mark.parametrize("x", [[2, -1, 0.5], [1, 0, -1], [0, 1, 0.5], [0, 0, np.nan]])
    def test_qubo_rejects_non_binary(self, x):
        # [2, -1, 0.5] used to score 0.6717
        q = generate_random_qubo(3, 1.0, seed=0)
        with pytest.raises(ValueError, match="0 or 1"):
            qubo_energy(q, x)

    def test_qubo_takes_bool_and_float_bits(self):
        q = generate_random_qubo(3, 1.0, seed=0)
        x = [1, 0, 1]
        want = qubo_energy(q, x)
        assert qubo_energy(q, np.array(x, dtype=bool)) == qubo_energy(q, [1.0, 0.0, 1.0]) == want


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

    @pytest.mark.parametrize("offdiag, match", [
        (([0], [1], [np.nan]), "not finite"),
        (([0, 1, 0], [1, 2, 1], [0.5, 1.0, -0.5]), "unique"),
        (([1], [1], [0.5]), "violates 0 <= i < j"),
        (([2], [1], [0.5]), "violates 0 <= i < j"),
        (([0], [3], [0.5]), "violates 0 <= i < j")])
    def test_qubo_rejects_bad_triple(self, offdiag, match):
        with pytest.raises(ValueError, match=match):
            QuboInstance(L=3, diag=np.zeros(3), offdiag=offdiag, density=0.5, seed=0)

    def test_qubo_rejects_non_finite_diag(self):
        with pytest.raises(ValueError, match="not finite"):
            QuboInstance(L=2, diag=[0.0, np.inf], offdiag={}, density=0.0, seed=0)

    @pytest.mark.parametrize("load, text", [
        (QuboInstance.loads, '{"L": 3, "diag": [0, 0, 0], "offdiag": [[0, 1, 0.5], [0, 1, 1.5]], '
                             '"density": 1.0, "seed": 0}'),
        (IsingModel.loads, '{"n": 3, "h": [0, 0, 0], "J": [[1, 2, 0.5], [1, 2, 1.5]], "offset": 0}')])
    def test_json_duplicate_pair_rejected(self, load, text):
        # a dict used to keep the last value silently
        with pytest.raises(ValueError, match="unique"):
            load(text)


class TestQuboArrays:
    def test_mapping_and_triple_store_the_same_sorted_terms(self):
        Q = {(1, 3): 0.5, (0, 2): -1.0, (0, 1): 0.25, (2, 3): 2.0}
        a = QuboInstance(4, np.zeros(4), Q, 0.5, 0)
        b = QuboInstance(4, np.zeros(4), ([1, 0, 0, 2], [3, 2, 1, 3], [0.5, -1.0, 0.25, 2.0]),
                         0.5, 0)
        for q in (a, b):
            ei, ej, v = q.offdiag
            assert ei.tolist() == [0, 0, 1, 2] and ej.tolist() == [1, 2, 3, 3]
            assert v.tolist() == [0.25, -1.0, 0.5, 2.0]
            assert ei.dtype == ej.dtype == np.int64 and v.dtype == np.float64
        assert a.dumps() == b.dumps()
        assert not any(isinstance(x, dict) for x in vars(a).values())

    # sha256 of the converted model's h, ei, ej, jv and offset bytes, then q.dumps(),
    # as the dict-backed QuboInstance produced them
    GOLDEN = [
        (20, 1.0, 5, "c04194f29a3765bcffd3ff20d8a4dab464069b9c69eaf796732a5bdfb1e8365e"),
        (60, 1.0, 0, "48c27ea879fc3618f42b53871e3fd5b8edcd2997f3b9ce57e18e2d29b3633ff4"),
        (100, 0.5, 3, "55a8225bbad6b1372351c746067a343bbd9617429251b0ab3adb5ab33c037389"),
        (1, 0.0, 0, "3983a41cbf823209215b9c842fb15bbe5b34687f00a57e9b63337bc41e80d793"),
        (7, 0.3, 9, "f76fdac4d7e73111ade612e3b68c39696b5f6955565b23faf0ea46ad47493f61")]

    @pytest.mark.parametrize("L, rho, seed, digest", GOLDEN)
    def test_generate_and_convert_golden(self, L, rho, seed, digest):
        q = generate_random_qubo(L, rho, seed)
        m = qubo_to_ising(q)
        h = hashlib.sha256()
        for a in (m.h, m.ei, m.ej, m.jv, np.float64(m.offset)):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(q.dumps().encode())
        assert h.hexdigest() == digest


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
    # any insertion order of the given terms: h_i, h_j and the offset take each
    # Q_ij / 4 in turn, bit for bit as a loop over the terms sorted by (i, j) does
    rng = np.random.default_rng(seed)
    g = generate_random_qubo(25, 0.6, seed)
    items = terms(g)
    if seed % 2:
        items = [items[k] for k in rng.permutation(len(items))]
    q = QuboInstance(25, g.diag, dict(items), 0.6, seed)
    h, offset = q.diag / 2.0, float(np.sum(q.diag)) / 2.0
    for (i, j), v in sorted(items):
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
        assert np.array_equal(q.diag, r.diag) and terms(q) == terms(r)
        assert [a.dtype for a in r.offdiag] == [np.int64, np.int64, np.float64]
        assert r.dumps() == q.dumps()

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
