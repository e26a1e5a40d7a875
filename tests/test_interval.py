import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estbound.interval import (
    Interval,
    IntervalBox,
    iadd,
    imul,
    ineg,
    irelu,
    isqr,
    isqrt,
    isub,
)


def hull(a, b):
    """Smallest interval containing both; exact."""
    return Interval(min(a.lb, b.lb), max(a.ub, b.ub))


def encloses(outer, inner):
    """Whether outer contains inner: two intervals, or two boxes of the
    same dim compared component by component."""
    if isinstance(outer, IntervalBox):
        if outer.dim != inner.dim:
            raise ValueError(f"box dims differ: {outer.dim} vs {inner.dim}")
        return all(map(encloses, outer, inner))
    return outer.lb <= inner.lb and inner.ub <= outer.ub


def assert_brackets(iv, lo, hi, ulps=2):
    """iv encloses [lo, hi] and each bound is within `ulps` of exact."""
    assert iv.lb <= lo and iv.ub >= hi
    assert abs(iv.lb - lo) <= ulps * math.ulp(max(abs(lo), 1e-300))
    assert abs(iv.ub - hi) <= ulps * math.ulp(max(abs(hi), 1e-300))


class TestConstruction:
    def test_basic(self):
        iv = Interval(1.0, 2.0)
        assert iv.lb == 1.0 and iv.ub == 2.0

    def test_degenerate(self):
        iv = Interval(3.0, 3.0)
        assert iv.width == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.nan)

    def test_no_rounding_at_construction(self):
        iv = Interval(0.1, 0.2)
        assert iv.lb == 0.1 and iv.ub == 0.2


class TestElementaryOps:
    def test_add(self):
        assert_brackets(iadd(Interval(1, 2), Interval(3, 4)), 4.0, 6.0)

    def test_sub(self):
        assert_brackets(isub(Interval(1, 2), Interval(3, 4)), -3.0, -1.0)

    def test_mul_mixed_signs(self):
        assert_brackets(imul(Interval(-1, 2), Interval(3, 4)), -4.0, 8.0)

    def test_neg_exact(self):
        assert ineg(Interval(-1, 2)) == Interval(-2, 1)

    def test_sqr_zero_inside(self):
        iv = isqr(Interval(-2, 3))
        assert iv.lb == 0.0
        assert_brackets(iv, 0.0, 9.0)

    def test_sqr_positive(self):
        assert_brackets(isqr(Interval(2, 3)), 4.0, 9.0)

    def test_sqr_negative(self):
        assert_brackets(isqr(Interval(-3, -2)), 4.0, 9.0)

    def test_sqrt_perfect_squares(self):
        assert_brackets(isqrt(Interval(4, 9)), 2.0, 3.0)

    def test_sqrt_zero_exact(self):
        assert isqrt(Interval(0.0, 0.0)) == Interval(0.0, 0.0)

    def test_sqrt_clamps_rounding_noise(self):
        iv = isqrt(Interval(-1e-12, 4.0))
        assert iv.lb == 0.0
        assert iv.ub >= 2.0
        assert abs(iv.ub - 2.0) <= 2 * math.ulp(2.0)

    def test_sqrt_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            isqrt(Interval(-2.0, -1.0))

    def test_relu(self):
        assert irelu(Interval(-1, 2)) == Interval(0, 2)
        assert irelu(Interval(1, 2)) == Interval(1, 2)
        assert irelu(Interval(-3, -1)) == Interval(0, 0)


class TestBox:
    def test_bisect_midpoint(self):
        b = IntervalBox.from_bounds([(0, 4), (1, 2)])
        left, right = b.bisect(0)
        assert left == IntervalBox.from_bounds([(0, 2), (1, 2)])
        assert right == IntervalBox.from_bounds([(2, 4), (1, 2)])

    def test_bisect_other_dim(self):
        b = IntervalBox.from_bounds([(0, 4), (1, 2)])
        left, right = b.bisect(1)
        assert left == IntervalBox.from_bounds([(0, 4), (1, 1.5)])
        assert right == IntervalBox.from_bounds([(0, 4), (1.5, 2)])

    def test_bisect_degenerate_rejected(self):
        b = IntervalBox.from_bounds([(3, 3)])
        with pytest.raises(ValueError):
            b.bisect(0)

    def test_bisect_shares_untouched_components(self):
        b = IntervalBox.from_bounds([(0, 4), (1, 2)])
        left, right = b.bisect(0)
        assert left[1] is b[1] and right[1] is b[1]

    def test_contains_boundary(self):
        b = IntervalBox.from_bounds([(0, 1), (0, 1)])
        assert b.contains((0.5, 1.0))
        assert not b.contains((0.5, 1.1))

    def test_contains_dim_mismatch(self):
        b = IntervalBox.from_bounds([(0, 1)])
        with pytest.raises(ValueError):
            b.contains((0.5, 0.5))

    def test_midpoint(self):
        b = IntervalBox.from_bounds([(0, 2), (-1, 1)])
        assert b.midpoint() == (1.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IntervalBox([])

    def test_concat_and_slice(self):
        a = IntervalBox.from_bounds([(0, 1)])
        b = IntervalBox.from_bounds([(2, 3), (4, 5)])
        c = a.concat(b)
        assert c.dim == 3
        assert c[:1] == a and c[1:] == b

    def test_empty_slice_rejected(self):
        b = IntervalBox.from_bounds([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            b[2:]

    def test_non_interval_component_rejected(self):
        with pytest.raises(TypeError):
            IntervalBox([Interval(0, 1), (2, 3)])

    def test_add_dim_mismatch_rejected(self):
        a = IntervalBox.from_bounds([(0, 1)])
        with pytest.raises(ValueError, match="dims differ"):
            a + IntervalBox.from_bounds([(0, 1), (2, 3)])


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def iv_strategy():
    return st.tuples(finite, finite).map(lambda t: Interval(min(t), max(t)))


def point_in(iv, u):
    x = iv.lb + u * (iv.ub - iv.lb)
    return min(max(x, iv.lb), iv.ub)


@given(iv_strategy(), iv_strategy(), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=300)
def test_fundamental_inclusion_binary_ops(a, b, u, v):
    x = point_in(a, u)
    y = point_in(b, v)
    assert iadd(a, b).contains(x + y)
    assert isub(a, b).contains(x - y)
    assert imul(a, b).contains(x * y)


@given(iv_strategy(), st.floats(0, 1))
@settings(max_examples=300)
def test_fundamental_inclusion_unary_ops(a, u):
    x = point_in(a, u)
    assert ineg(a).contains(-x)
    assert isqr(a).contains(x * x)
    assert irelu(a).contains(max(0.0, x))


@given(iv_strategy(), iv_strategy())
@settings(max_examples=300)
def test_isotonicity(inner, outer):
    outer = hull(inner, outer)  # force inner subset of outer
    assert iadd(inner, inner).lb >= iadd(outer, outer).lb
    assert iadd(inner, inner).ub <= iadd(outer, outer).ub
    assert encloses(imul(outer, outer), imul(inner, inner))
    assert encloses(isqr(outer), isqr(inner))
    assert encloses(irelu(outer), irelu(inner))
    assert encloses(ineg(outer), ineg(inner))


@given(iv_strategy())
@settings(max_examples=300)
def test_sqr_subset_of_self_product(a):
    sq = isqr(a)
    assert sq.lb >= 0.0
    assert encloses(imul(a, a), sq)


@given(iv_strategy())
@settings(max_examples=200)
def test_relu_exactness(a):
    out = irelu(a)
    rng = random.Random(0)
    for _ in range(100):
        x = point_in(a, rng.random())
        assert out.contains(max(0.0, x))
    # both bounds attained at endpoints
    assert out.lb in (max(0.0, a.lb), max(0.0, a.ub))
    assert out.ub in (max(0.0, a.lb), max(0.0, a.ub))


@given(
    st.lists(st.tuples(finite, finite), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=300)
def test_bisect_halves_rebuild_original(bounds, dim):
    box = IntervalBox(Interval(min(t), max(t)) for t in bounds)
    dim = dim % box.dim
    if box[dim].width <= 0.0:
        return
    left, right = box.bisect(dim)
    assert hull(left[dim], right[dim]) == box[dim]
    assert left[dim].ub == right[dim].lb
    for i in range(box.dim):
        if i != dim:
            assert left[i] is box[i] and right[i] is box[i]
