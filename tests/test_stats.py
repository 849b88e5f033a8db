"""Hand values and algebraic properties of the scalar reference statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewclusters.model import ClusterLayout, EstimateVector, GroupTooSmall
from scalar_reference import (
    Assignment,
    DegenerateVariance,
    adjusted_statistic,
    comparison_of_means,
    two_sample_variance,
)


def vec(values, q1):
    values = np.asarray(values, dtype=float)
    return EstimateVector(values, ClusterLayout(q1=q1, q0=values.size - q1))


class TestAssignment:
    def test_identity(self):
        assert Assignment.identity(ClusterLayout(3, 2)).treated_set == (0, 1, 2)

    def test_sorted(self):
        assert Assignment((3, 1)).treated_set == (1, 3)

    def test_complement(self):
        assert Assignment((0, 2)).complement(ClusterLayout(2, 2)) == (1, 3)


class TestHandValues:
    """Worked examples with independently computed expected values."""

    # x = (3, 1, 2, 0), two treated then two untreated clusters
    X = vec([3.0, 1.0, 2.0, 0.0], q1=2)
    IDENTITY = Assignment((0, 1))

    def test_comparison_of_means_identity(self):
        # (3 + 1)/2 - (2 + 0)/2 = 1
        assert comparison_of_means(self.X, self.IDENTITY) == 1.0

    def test_two_sample_variance_identity(self):
        # treated deviations (+-1): SS_t = 2, untreated likewise SS_u = 2
        # 2/(2*1) + 2/(2*1) = 2
        assert two_sample_variance(self.X, self.IDENTITY) == 2.0

    def test_adjusted_statistic_offdiagonal(self):
        # treated set {1, 3}: means (1+0)/2 - (3+2)/2 = -2,
        # placebo variance 1/2/(2*1)*? -> SS_t = 0.5, SS_u = 0.5, S^2 = 0.5,
        # adjustment sqrt(2 / 0.5) = 2, statistic = -4
        assert adjusted_statistic(self.X, Assignment((1, 3))) == pytest.approx(-4.0)

    def test_adjusted_identity_bitwise_equal_to_unadjusted(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = vec(rng.normal(size=8), q1=3)
            ident = Assignment.identity(x.layout)
            assert adjusted_statistic(x, ident) == comparison_of_means(x, ident)

    def test_degenerate_variance_raises(self):
        x = vec([1.0, 0.0, 1.0, 0.0], q1=2)
        # split {0, 2} makes both groups constant: (1, 1) vs (0, 0)
        with pytest.raises(DegenerateVariance):
            adjusted_statistic(x, Assignment((0, 2)))

    def test_group_too_small(self):
        x = vec([1.0, 2.0, 3.0], q1=1)
        with pytest.raises(GroupTooSmall):
            two_sample_variance(x, Assignment((0,)))


finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def layout_and_values():
    return st.tuples(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=4),
    ).flatmap(
        lambda qq: st.tuples(
            st.just(qq),
            st.lists(finite, min_size=qq[0] + qq[1], max_size=qq[0] + qq[1]),
        )
    )


def assignment_for(layout, data):
    idx = data.draw(
        st.permutations(range(layout.q)).map(lambda p: tuple(p[: layout.q1]))
    )
    return Assignment(idx)


class TestProperties:
    @given(layout_and_values(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry(self, lv, data):
        (q1, q0), values = lv
        x = vec(values, q1)
        a = assignment_for(x.layout, data)
        lhs = comparison_of_means(vec(-np.asarray(values), q1), a)
        rhs = -comparison_of_means(x, a)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-10)

    @given(layout_and_values(), st.data(), finite)
    @settings(max_examples=200, deadline=None)
    def test_location_invariance(self, lv, data, shift):
        (q1, q0), values = lv
        x = vec(values, q1)
        a = assignment_for(x.layout, data)
        shifted = vec(np.asarray(values) + shift, q1)
        assert comparison_of_means(shifted, a) == pytest.approx(
            comparison_of_means(x, a), rel=1e-12, abs=1e-10
        )
        assert two_sample_variance(shifted, a) == pytest.approx(
            two_sample_variance(x, a), rel=1e-12, abs=1e-10
        )

    @given(
        layout_and_values(),
        st.data(),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_equivariance(self, lv, data, scale):
        (q1, q0), values = lv
        x = vec(values, q1)
        a = assignment_for(x.layout, data)
        scaled = vec(np.asarray(values) * scale, q1)
        assert comparison_of_means(scaled, a) == pytest.approx(
            scale * comparison_of_means(x, a), rel=1e-12, abs=1e-10
        )
        assert two_sample_variance(scaled, a) == pytest.approx(
            scale**2 * two_sample_variance(x, a), rel=1e-12, abs=1e-10
        )

    @given(
        st.integers(min_value=2, max_value=4).flatmap(
            lambda q1: st.tuples(
                st.just(q1),
                st.lists(finite, min_size=2 * q1, max_size=2 * q1),
            )
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_complement_identity_balanced(self, lv, data):
        # with q1 == q0, swapping the roles of the two groups flips the sign
        q1, values = lv
        x = vec(values, q1)
        a = assignment_for(x.layout, data)
        comp = Assignment(a.complement(x.layout))
        assert comparison_of_means(x, comp) == pytest.approx(
            -comparison_of_means(x, a), rel=1e-12, abs=1e-10
        )
        assert two_sample_variance(x, comp) == pytest.approx(
            two_sample_variance(x, a), rel=1e-12, abs=1e-10
        )

    @given(layout_and_values())
    @settings(max_examples=100, deadline=None)
    def test_variance_nonnegative(self, lv):
        (q1, q0), values = lv
        x = vec(values, q1)
        assert two_sample_variance(x, Assignment.identity(x.layout)) >= 0.0

    def test_adjustment_is_ratio_of_spreads(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = vec(rng.normal(size=7), q1=3)
            a = Assignment((1, 4, 6))
            expected = comparison_of_means(x, a) * math.sqrt(
                two_sample_variance(x, Assignment.identity(x.layout))
                / two_sample_variance(x, a)
            )
            assert adjusted_statistic(x, a) == pytest.approx(expected, rel=1e-12)
