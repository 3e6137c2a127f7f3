"""The integer rule: `_integral.integral` decides what counts as an integer input, and no
other package module tests integrality by itself.

The guard is an AST check on the standard library's `ast`: a call of `.is_integer()`, a
`% 1` or a comparison with a `floor(` call outside `_integral.py` is a second copy of
the rule, which may drift from the first.
"""

import ast
import math
import pathlib

import numpy as np
import pytest

import embednoise as en
from embednoise._integral import integral

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "embednoise"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "_integral.py")


def _is_floor_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "floor")


def integer_tests(source: str) -> list[str]:
    """'line N: what' for each place the source tests integrality by itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "is_integer"):
            found.append(f"line {node.lineno}: .is_integer()")
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
              and isinstance(node.right, ast.Constant) and node.right.value == 1):
            found.append(f"line {node.lineno}: % 1")
        elif isinstance(node, ast.Compare) and any(map(_is_floor_call,
                                                       [node.left, *node.comparators])):
            found.append(f"line {node.lineno}: comparison with floor()")
    return sorted(found, key=lambda f: int(f.split()[1].rstrip(":")))


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_no_second_integer_rule(path):
    assert integer_tests(path.read_text()) == []


def test_the_check_sees_each_copy():
    source = ("import numpy as np\n\n\ndef f(x, y):\n    ok = float(x).is_integer()\n"
              "    odd = y % 1 != 0\n    return ok, odd, np.any(y != np.floor(y)), y % 2\n")
    assert integer_tests(source) == ["line 5: .is_integer()", "line 6: % 1",
                                     "line 7: comparison with floor()"]


@pytest.mark.parametrize("values, want", [
    (7, 7), (7.0, 7), (np.int64(7), 7), (np.float32(7.0), 7), (2**70, 2**70),
    ([3, 4.0], [3, 4]), (np.array([3.0, 4.0]), [3, 4]), ((np.uint8(3),), [3]), ([], []),
    ([[1, 2], [3, 4.0]], [[1, 2], [3, 4]])])
def test_integers_pass(values, want):
    got = integral("x", values)
    if isinstance(want, int):
        assert got == want and type(got) is int
    else:
        assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("values, got", [
    (2.5, "2.5"), (math.nan, "nan"), (math.inf, "inf"), (True, "True"), (np.True_, "True"),
    ("3", "'3'"), (None, "None"), ([2, True], "True"), ([2, np.False_], "False"),
    ([1, 2.5, 3.5], "2.5"), (np.array([1.0, -math.inf]), "-inf"), (["2", True], "'2'"),
    ([2, None], "None"), (np.array([True]), "True"), ([[0, 1], [2, True]], "True")])
def test_non_integers_named(values, got):
    kind = "an integer" if np.ndim(values) == 0 else "integers"
    with pytest.raises(ValueError, match=f"^x must be {kind}, got {got}$"):
        integral("x", values)


def test_lower_bound_and_text():
    assert integral("x", [0, 1], lo=0).tolist() == [0, 1]
    with pytest.raises(ValueError, match=r"^x must be integers >= 1, got 0$"):
        integral("x", np.array([3, 0]), lo=1)
    with pytest.raises(ValueError, match=r"^x must be an integer >= 0, got -1.0$"):
        integral("x", -1.0, lo=0)
    assert integral("x", "10.0", text=True) == 10 and integral("x", " 1e1 ", text=True) == 10
    assert integral("x", ["10", 3], text=True).tolist() == [10, 3]
    for word in ("ten", "10.5", "nan", ""):
        with pytest.raises(ValueError, match=f"^x must be an integer, got '{word}'$"):
            integral("x", word, text=True)


def test_name_of_the_flat_index():
    with pytest.raises(ValueError, match=r"^entry 2 must be integers, got 1.5$"):
        integral(lambda i: f"entry {i}", [3, 4, 1.5, 2.5])


NM = en.NoiseModel(0.06, 0.005)
LOGICAL = en.qubo_to_ising(en.generate_random_qubo(4, 1.0, seed=2))


@pytest.mark.parametrize("call, message", [
    (lambda: en.synth_chain_lengths(2.5, en.ChainLengthModel(0.2), 0),
     "L must be an integer >= 1, got 2.5"),
    (lambda: en.generate_random_qubo(True, 0.5, 0), "L must be an integer >= 1, got True"),
    (lambda: en.margin_errors([5], NM, 2.5, seed=0), "reads must be an integer >= 1, got 2.5"),
    (lambda: en.simulated_anneal(LOGICAL, True), "reads must be an integer >= 1, got True"),
    (lambda: en.synthetic_hardware_run(en.generate_random_qubo(4, 1.0, seed=2), [2] * 4, 2.0,
                                       NM, reads=-1.0), "reads must be an integer >= 1, got -1.0"),
    (lambda: en.chain_error_sample(2.5, NM, en.substream(0)),
     "chain length must be an integer >= 1, got 2.5"),
    (lambda: en.ZephyrGraph(1, 1, [[0, 1]], [1.5]), "class codes must be integers, got 1.5"),
    (lambda: en.validate_embedding(en.Embedding([[0], [1]]), en.build_zephyr(1, 1), [(0, 1.5)]),
     "logical edges must be integers, got 1.5"),
    (lambda: en.fit_noise_params([{"L": L, "cbf_obs": 0.1, "ell_bar": 2.0}
                                  for L in (5, 10.5, 15)]), "L must be an integer, got 10.5"),
    (lambda: en.substream(1.5, "x"), "seed must be an integer >= 0, got 1.5"),
    (lambda: en.substream(0, "x", 2.5), "substream tag must be an integer >= 0, got 2.5")],
    ids=["synth-L", "qubo-L", "margin-reads", "anneal-reads", "synthetic-reads", "chain-ell",
         "class-code", "logical-edge", "fit-L", "substream-seed", "substream-tag"])
def test_library_counts_take_the_rule(call, message):
    # each used to truncate the value, run on it or fail with a TypeError that named nothing
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_library_counts_take_integral_floats():
    model = en.ChainLengthModel(0.2, jitter=1)
    assert np.array_equal(en.synth_chain_lengths(10.0, model, 3),
                          en.synth_chain_lengths(10, model, 3))
    assert np.array_equal(en.margin_errors([3], NM, 50.0, seed=4),
                          en.margin_errors([3], NM, 50, seed=4))
    assert (en.chain_error_sample(4.0, NM, en.substream(1))
            == en.chain_error_sample(4, NM, en.substream(1)))
    assert en.substream(3.0, "x", 2.0).random() == en.substream(3, "x", 2).random()
