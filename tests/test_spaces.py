"""Weighted norms and the three extremal coefficient families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarobench.spaces import (
    CoeffVec,
    SpaceIndex,
    counterexample_family,
    norm,
    truncated_geometric_family,
    weak_null_family,
)

finite_coeffs = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50
)
alphas = st.floats(min_value=-1.0, max_value=3.0)


class TestNorm:
    def test_unit_first_coefficient(self):
        for a in (-1.0, 0.0, 0.7, 1.0, 2.0):
            assert norm(CoeffVec([1.0, 0.0, 0.0]), SpaceIndex(a)) == 1.0

    def test_alpha_one_is_plain_l2(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(40)
        got = norm(CoeffVec(a), SpaceIndex(1.0))
        assert got == pytest.approx(math.sqrt(float(np.sum(a * a))), rel=1e-14)

    def test_alpha_zero_second_slot(self):
        assert norm(CoeffVec([0.0, 1.0]), SpaceIndex(0.0)) == pytest.approx(
            math.sqrt(2.0), rel=1e-15
        )

    @given(finite_coeffs, alphas)
    @settings(max_examples=60, deadline=None)
    def test_zero_append_invariance(self, coeffs, a):
        s = SpaceIndex(a)
        assert norm(CoeffVec(coeffs + [0.0, 0.0]), s) == norm(CoeffVec(coeffs), s)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=30),
        alphas,
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_weight_monotone_in_alpha(self, coeffs, a, step):
        f = CoeffVec(coeffs)
        lo, hi = norm(f, SpaceIndex(a + step)), norm(f, SpaceIndex(a))
        assert lo <= hi * (1 + 1e-12)


class TestCoeffVec:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            CoeffVec([])
        with pytest.raises(ValueError):
            CoeffVec([1.0, math.inf])
        with pytest.raises(ValueError):
            CoeffVec([[1.0], [2.0]])

    def test_immutable(self):
        f = CoeffVec([1.0, 2.0])
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0


class TestCounterexampleFamily:
    def test_first_coefficient(self):
        f = counterexample_family(SpaceIndex(1.0), 0.5, 4)
        assert f.coeffs[0] == pytest.approx(math.sqrt(0.5 / 1.5), rel=1e-15)

    def test_fourth_coefficient_closed_form(self):
        f = counterexample_family(SpaceIndex(1.0), 0.5, 4)
        assert f.coeffs[3] == pytest.approx(math.sqrt(1.0 / 3.0) * 4.0**-0.75, rel=1e-14)

    def test_norm_bounded_by_one_at_large_truncation(self):
        f = counterexample_family(SpaceIndex(1.5), 0.5, 10**5)
        assert norm(f, SpaceIndex(1.5)) <= 1.0

    def test_norms_nondecreasing_in_truncation(self):
        s = SpaceIndex(0.8)
        norms = [
            norm(counterexample_family(s, 0.3, n), s) for n in (1, 4, 16, 64, 256)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            counterexample_family(SpaceIndex(1.0), 0.0, 10)
        with pytest.raises(ValueError):
            counterexample_family(SpaceIndex(1.0), 1.0, 10)
        with pytest.raises(ValueError):
            counterexample_family(SpaceIndex(2.5), 0.5, 10)


class TestTruncatedGeometricFamily:
    def test_exact_unit_norm(self):
        s = SpaceIndex(1.0)
        f = truncated_geometric_family(s, 0.9, 100)
        assert abs(norm(f, s) - 1.0) <= 1e-12

    @given(
        st.floats(min_value=0.05, max_value=0.99),
        st.floats(min_value=0.1, max_value=1.9),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_norm_property(self, b, a, n_top):
        s = SpaceIndex(a)
        f = truncated_geometric_family(s, b, n_top)
        assert abs(norm(f, s) - 1.0) <= 1e-12

    def test_single_term_is_one(self):
        f = truncated_geometric_family(SpaceIndex(0.3), 0.5, 0)
        assert f.coeffs[0] == pytest.approx(1.0, rel=1e-15)

    def test_geometric_ratio(self):
        b = 0.7
        f = truncated_geometric_family(SpaceIndex(1.2), b, 20)
        ratios = f.coeffs[:-1] / f.coeffs[1:]
        assert np.allclose(ratios, 1.0 / b, rtol=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            truncated_geometric_family(SpaceIndex(1.0), 1.0, 5)
        with pytest.raises(ValueError):
            truncated_geometric_family(SpaceIndex(1.0), 0.0, 5)


class TestWeakNullFamily:
    def test_first_coefficient(self):
        b = 0.8
        f = weak_null_family(SpaceIndex(0.5), b, 10)
        assert f.coeffs[0] == pytest.approx((1 - b * b) ** 0.75 * b, rel=1e-15)

    def test_hardy_norm_closed_form(self):
        # alpha=1 truncated norm^2 telescopes to b^2 - b^(2(N+1))
        s = SpaceIndex(1.0)
        for b in (0.9, 0.99):
            f = weak_null_family(s, b)
            n_terms = len(f)
            want = math.sqrt(b * b - b ** (2 * (n_terms + 1)))
            assert norm(f, s) == pytest.approx(want, rel=1e-12)
            assert norm(f, s) == pytest.approx(b, abs=1e-10)

    def test_norm_window_as_b_increases(self):
        s = SpaceIndex(0.5)
        norms = [norm(weak_null_family(s, b), s) for b in (0.9, 0.99, 0.999)]
        assert all(v > 0 for v in norms)
        assert max(norms) / min(norms) <= 4.0

    def test_default_truncation_length(self):
        f = weak_null_family(SpaceIndex(1.0), 0.99)
        assert len(f) == math.ceil(20.0 / 0.01)

    def test_domain(self):
        with pytest.raises(ValueError):
            weak_null_family(SpaceIndex(1.0), 1.0)
        with pytest.raises(ValueError):
            weak_null_family(SpaceIndex(1.0), -0.2)
