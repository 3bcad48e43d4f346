import ast
import math
from pathlib import Path

import numpy as np
import pytest

from sixport import (
    FormalSeries,
    NonzeroConstantTerm,
    OrderOverflow,
    VariableMismatch,
    extract_derivative,
    series_exp,
)


def nonzero_terms(s):
    """(exponents, coefficient) of every nonzero term of the series."""
    return [(tuple(int(i) for i in idx), complex(s.coeffs[tuple(idx)]))
            for idx in np.argwhere(s.coeffs)]


def series_sum(a, b):
    """Sum of two series over the same variables and orders."""
    return FormalSeries(a.variables, a.orders, a.coeffs + b.coeffs)


def brute_convolution(a_terms, b_terms, orders):
    """Independent reference product: plain double loop over term pairs."""
    out = {}
    for ea, va in a_terms:
        for eb, vb in b_terms:
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x <= o for x, o in zip(e, orders)):
                out[e] = out.get(e, 0) + va * vb
    return out


def test_single_term():
    s = FormalSeries.from_terms(("s2", "s3"), (2, 2), [({"s2": 1}, 0.5 + 1j)])
    assert s.coeffs[1, 0] == 0.5 + 1j
    assert np.count_nonzero(s.coeffs) == 1


def test_empty_terms_is_zero():
    s = FormalSeries.from_terms(("x",), (3,), [])
    assert not s.coeffs.any()


def test_duplicate_indices_sum():
    s = FormalSeries.from_terms(("x",), (2,), [((1,), 2.0), ((1,), 3.0)])
    assert s.coeffs[1] == 5.0


def test_term_beyond_order_is_dropped():
    s = FormalSeries.from_terms(("x",), (2,), [((3,), 1.0), ((1,), 2.0), ((-1,), 5.0)])
    np.testing.assert_array_equal(s.coeffs, [0.0, 2.0, 0.0])


def test_exp_of_zero_is_one():
    s = series_exp(FormalSeries(("x", "y"), (2, 2)))
    assert s.coeffs[0, 0] == 1.0
    assert np.count_nonzero(s.coeffs) == 1


def test_exp_scalar_series():
    c = 0.7 - 0.2j
    s = series_exp(FormalSeries.from_terms(("x",), (2,), [((1,), c)]))
    np.testing.assert_allclose(s.coeffs, [1.0, c, c ** 2 / 2], atol=1e-15)


def test_exp_bilinear_truncates():
    p = FormalSeries.from_terms(("s", "t"), (1, 1), [((1, 1), 1.0)])
    s = series_exp(p)
    np.testing.assert_allclose(s.coeffs, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_exp_requires_zero_constant():
    p = FormalSeries.from_terms(("x",), (2,), [((0,), 1.0)])
    with pytest.raises(NonzeroConstantTerm):
        series_exp(p)


def test_mul_identity():
    a = FormalSeries.from_terms(("x", "y"), (2, 2), [((0, 1), 2.0), ((1, 0), -1j)])
    one = FormalSeries.from_terms(("x", "y"), (2, 2), [((0, 0), 1.0)])
    np.testing.assert_array_equal((a * one).coeffs, a.coeffs)


def test_mul_truncates_high_powers():
    plus = FormalSeries.from_terms(("s",), (1,), [((0,), 1.0), ((1,), 1.0)])
    minus = FormalSeries.from_terms(("s",), (1,), [((0,), 1.0), ((1,), -1.0)])
    prod = plus * minus
    np.testing.assert_allclose(prod.coeffs, [1.0, 0.0], atol=1e-15)


def test_mul_variable_mismatch():
    a = FormalSeries(("x",), (1,))
    b = FormalSeries(("y",), (1,))
    with pytest.raises(VariableMismatch):
        a * b


def test_mul_matches_brute_convolution():
    rng = np.random.default_rng(3)
    orders = (2, 2, 2)
    for _ in range(20):
        def random_terms():
            terms = []
            for _ in range(rng.integers(1, 6)):
                e = tuple(int(v) for v in rng.integers(0, 3, size=3))
                terms.append((e, complex(rng.normal(), rng.normal())))
            return terms

        ta, tb = random_terms(), random_terms()
        a = FormalSeries.from_terms(("x", "y", "z"), orders, ta)
        b = FormalSeries.from_terms(("x", "y", "z"), orders, tb)
        got = a * b
        # duplicates in the random terms must be summed first
        want = brute_convolution(nonzero_terms(a), nonzero_terms(b), orders)
        for e, v in want.items():
            assert got.coeffs[e] == pytest.approx(v, abs=1e-13)
        assert np.count_nonzero(got.coeffs) <= len(want) + 1


def test_extract_applies_factorials():
    s = FormalSeries.from_terms(("s2",), (2,), [((0,), 1.0), ((2,), 3.0)])
    assert extract_derivative(s, (2,)) == pytest.approx(6.0)


def test_extract_all_zeros_is_constant_term():
    s = FormalSeries.from_terms(("a", "b"), (1, 1), [((0, 0), 4.2)])
    assert extract_derivative(s, (0, 0)) == pytest.approx(4.2)


def test_extract_of_exponential_powers():
    c = 1.3 - 0.4j
    s = series_exp(FormalSeries.from_terms(("s2",), (5,), [((1,), c)]))
    for n in range(6):
        assert extract_derivative(s, (n,)) == pytest.approx(c ** n, abs=1e-12)


def test_extract_out_of_range():
    s = FormalSeries(("x",), (1,))
    with pytest.raises(OrderOverflow):
        extract_derivative(s, (2,))


def test_exp_is_homomorphism_for_commuting_series():
    rng = np.random.default_rng(11)
    orders = (2, 2, 2)
    for _ in range(10):
        def small_poly():
            terms = []
            for _ in range(3):
                e = tuple(int(v) for v in rng.integers(0, 2, size=3))
                if sum(e) == 0:
                    continue
                terms.append((e, complex(rng.normal(), rng.normal()) * 0.5))
            return FormalSeries.from_terms(("x", "y", "z"), orders, terms)

        a, b = small_poly(), small_poly()
        lhs = series_exp(series_sum(a, b))
        rhs = series_exp(a) * series_exp(b)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_extract_is_linear():
    rng = np.random.default_rng(5)
    a = FormalSeries.from_terms(("x", "y"), (2, 2), [((1, 1), 2.0), ((2, 0), 1j)])
    b = FormalSeries.from_terms(("x", "y"), (2, 2), [((1, 1), -0.5), ((0, 2), 3.0)])
    for idx in [(1, 1), (2, 0), (0, 2)]:
        lhs = extract_derivative(series_sum(a, b), idx)
        rhs = extract_derivative(a, idx) + extract_derivative(b, idx)
        assert lhs == pytest.approx(rhs, abs=1e-14)


def test_exp_normalized_at_origin():
    rng = np.random.default_rng(9)
    for _ in range(5):
        terms = [
            (tuple(int(v) for v in rng.integers(0, 2, size=4)),
             complex(rng.normal(), rng.normal()))
            for _ in range(4)
        ]
        terms = [(e, v) for e, v in terms if sum(e) > 0]
        p = FormalSeries.from_terms(("a", "b", "c", "d"), (1, 1, 1, 1), terms)
        assert extract_derivative(series_exp(p), (0, 0, 0, 0)) == pytest.approx(1.0)


def test_factorial_convention_matches_taylor():
    # coefficient of x^2 stored as 3 -> second derivative is 3 * 2!
    s = FormalSeries.from_terms(("x",), (2,), [((2,), 3.0)])
    assert extract_derivative(s, (2,)) == pytest.approx(3.0 * math.factorial(2))


def power_sum_exp(p):
    """Independent reference: sum_k p^k / k! with *, until p^k is 0."""
    term = FormalSeries.from_terms(p.variables, p.orders, [((0,) * len(p.orders), 1.0)])
    total = term.coeffs.copy()
    for k in range(1, sum(p.orders) + 1):
        term = term * p
        total += term.coeffs / math.factorial(k)
    return total


def test_exp_matches_power_sum_reference():
    rng = np.random.default_rng(21)
    for orders in [(3,), (2, 3), (3, 1, 2), (3, 3, 3, 3), (1, 2, 0, 3)]:
        variables = tuple(f"x{i}" for i in range(len(orders)))
        for _ in range(8):
            terms = []
            for _ in range(rng.integers(1, 9)):
                # degree 1..3, possibly beyond the truncation (dropped)
                e = [0] * len(orders)
                for _ in range(rng.integers(1, 4)):
                    e[rng.integers(len(orders))] += 1
                terms.append((tuple(e), complex(rng.normal(), rng.normal())))
            terms.append(terms[0])     # a duplicate exponent, summed
            p = FormalSeries.from_terms(variables, orders, terms)
            want = power_sum_exp(p)
            got = series_exp(p).coeffs
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


# -- structure -------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "sixport"


@pytest.mark.parametrize("module", ["interferometer", "oracle", "moments", "states", "scan"])
def test_production_modules_do_not_import_series(module):
    """Only the cross-check clients (verification, cli) may use the series engine."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not any(name.split(".")[-1] == "series" for name in imported)
