import math

import numpy as np
import pytest

from sixport import (
    FormalSeries,
    NonzeroConstantTerm,
    OrderOverflow,
    VariableMismatch,
    extract_derivative,
    series_exp,
    series_from_polynomial,
    series_mul,
)


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
    s = series_from_polynomial([({"s2": 1}, 0.5 + 1j)], ("s2", "s3"), (2, 2))
    assert s.coeffs[1, 0] == 0.5 + 1j
    assert np.count_nonzero(s.coeffs) == 1


def test_empty_terms_is_zero():
    s = series_from_polynomial([], ("x",), (3,))
    assert not s.coeffs.any()


def test_duplicate_indices_sum():
    s = series_from_polynomial([((1,), 2.0), ((1,), 3.0)], ("x",), (2,))
    assert s.coeffs[1] == 5.0


def test_term_beyond_order_raises():
    with pytest.raises(OrderOverflow):
        series_from_polynomial([((3,), 1.0)], ("x",), (2,))


def test_exp_of_zero_is_one():
    s = series_exp(FormalSeries.zero(("x", "y"), (2, 2)))
    assert s.coeffs[0, 0] == 1.0
    assert np.count_nonzero(s.coeffs) == 1


def test_exp_scalar_series():
    c = 0.7 - 0.2j
    s = series_exp(series_from_polynomial([((1,), c)], ("x",), (2,)))
    np.testing.assert_allclose(s.coeffs, [1.0, c, c ** 2 / 2], atol=1e-15)


def test_exp_bilinear_truncates():
    p = series_from_polynomial([((1, 1), 1.0)], ("s", "t"), (1, 1))
    s = series_exp(p)
    np.testing.assert_allclose(s.coeffs, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_exp_requires_zero_constant():
    p = series_from_polynomial([((0,), 1.0)], ("x",), (2,))
    with pytest.raises(NonzeroConstantTerm):
        series_exp(p)


def test_mul_identity():
    a = series_from_polynomial([((0, 1), 2.0), ((1, 0), -1j)], ("x", "y"), (2, 2))
    one = series_from_polynomial([((0, 0), 1.0)], ("x", "y"), (2, 2))
    np.testing.assert_array_equal(series_mul(a, one).coeffs, a.coeffs)


def test_mul_truncates_high_powers():
    plus = series_from_polynomial([((0,), 1.0), ((1,), 1.0)], ("s",), (1,))
    minus = series_from_polynomial([((0,), 1.0), ((1,), -1.0)], ("s",), (1,))
    prod = series_mul(plus, minus)
    np.testing.assert_allclose(prod.coeffs, [1.0, 0.0], atol=1e-15)


def test_mul_variable_mismatch():
    a = FormalSeries.zero(("x",), (1,))
    b = FormalSeries.zero(("y",), (1,))
    with pytest.raises(VariableMismatch):
        series_mul(a, b)


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
        a = series_from_polynomial(ta, ("x", "y", "z"), orders)
        b = series_from_polynomial(tb, ("x", "y", "z"), orders)
        got = series_mul(a, b)
        # duplicates in the random terms must be summed first
        want = brute_convolution(list(a.nonzero_terms()), list(b.nonzero_terms()), orders)
        for e, v in want.items():
            assert got.coeffs[e] == pytest.approx(v, abs=1e-13)
        assert np.count_nonzero(got.coeffs) <= len(want) + 1


def test_extract_applies_factorials():
    s = series_from_polynomial([((0,), 1.0), ((2,), 3.0)], ("s2",), (2,))
    assert extract_derivative(s, (2,)) == pytest.approx(6.0)


def test_extract_all_zeros_is_constant_term():
    s = series_from_polynomial([((0, 0), 4.2)], ("a", "b"), (1, 1))
    assert extract_derivative(s, (0, 0)) == pytest.approx(4.2)


def test_extract_of_exponential_powers():
    c = 1.3 - 0.4j
    s = series_exp(series_from_polynomial([((1,), c)], ("s2",), (5,)))
    for n in range(6):
        assert extract_derivative(s, (n,)) == pytest.approx(c ** n, abs=1e-12)


def test_extract_out_of_range():
    s = FormalSeries.zero(("x",), (1,))
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
            return series_from_polynomial(terms, ("x", "y", "z"), orders)

        a, b = small_poly(), small_poly()
        lhs = series_exp(a + b)
        rhs = series_mul(series_exp(a), series_exp(b))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_extract_is_linear():
    rng = np.random.default_rng(5)
    a = series_from_polynomial([((1, 1), 2.0), ((2, 0), 1j)], ("x", "y"), (2, 2))
    b = series_from_polynomial([((1, 1), -0.5), ((0, 2), 3.0)], ("x", "y"), (2, 2))
    for idx in [(1, 1), (2, 0), (0, 2)]:
        lhs = extract_derivative(a + b, idx)
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
        p = series_from_polynomial(terms, ("a", "b", "c", "d"), (1, 1, 1, 1))
        assert extract_derivative(series_exp(p), (0, 0, 0, 0)) == pytest.approx(1.0)


def test_factorial_convention_matches_taylor():
    # coefficient of x^2 stored as 3 -> second derivative is 3 * 2!
    s = series_from_polynomial([((2,), 3.0)], ("x",), (2,))
    assert extract_derivative(s, (2,)) == pytest.approx(3.0 * math.factorial(2))


def power_sum_exp(p):
    """Independent reference: sum_k p^k / k! with series_mul, until p^k is 0."""
    term = series_from_polynomial([((0,) * len(p.orders), 1.0)], p.variables, p.orders)
    total = term.coeffs.copy()
    for k in range(1, sum(p.orders) + 1):
        term = series_mul(term, p)
        total += term.coeffs / math.factorial(k)
    return total


def test_exp_matches_power_sum_reference():
    rng = np.random.default_rng(21)
    for orders in [(3,), (2, 3), (3, 1, 2), (3, 3, 3, 3), (1, 2, 0, 3)]:
        variables = tuple(f"x{i}" for i in range(len(orders)))
        for _ in range(8):
            terms = []
            for _ in range(rng.integers(1, 9)):
                # degree 1..3, possibly beyond the truncation (clipped)
                e = [0] * len(orders)
                for _ in range(rng.integers(1, 4)):
                    e[rng.integers(len(orders))] += 1
                terms.append((tuple(e), complex(rng.normal(), rng.normal())))
            terms.append(terms[0])     # a duplicate exponent, summed
            p = FormalSeries.from_terms(variables, orders, terms, clip=True)
            want = power_sum_exp(p)
            got = series_exp(p).coeffs
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
