import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from estbound.interval import (
    Interval,
    IntervalBox,
    _bounds,
    _inorm_rows,
    _make,
    iadd,
    imul,
    inorm,
    isqr,
    isqrt,
    isub,
)
from conftest import bounds_of


def irelu(a):
    """Exact image of a under max(0, x); relu is monotone, so no widening.
    The scalar reference of the network's box pass takes relu this way."""
    return Interval(a.lb if a.lb > 0.0 else 0.0, a.ub if a.ub > 0.0 else 0.0)


def ineg(a):
    """Negation; exact, so no widening. The error objective negates the
    norm this way."""
    return Interval(-a.ub, -a.lb)


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
        # Nor is any other component whose midpoint is not strictly inside
        # it, as the search's split rule requires.
        for bounds in [
            (3, 3),
            (-math.inf, math.inf),  # the midpoint is NaN
            (1e308, 1.7e308),  # lb + ub overflows to inf
            (1.0, math.nextafter(1.0, 2.0)),  # one ulp wide
        ]:
            b = IntervalBox.from_bounds([(0, 1), bounds])
            with pytest.raises(ValueError, match="cannot bisect component 1"):
                b.bisect(1)

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

    def test_midpoint_of_degenerate_and_one_ulp_components(self):
        up = math.nextafter(1.0, math.inf)
        b = IntervalBox.from_bounds([(3.0, 3.0), (1.0, up), (0.0, math.inf)])
        assert b.midpoint() == (3.0, 1.0, math.inf)
        assert b.contains(b.midpoint())

    @pytest.mark.parametrize(
        "bounds, words",
        [
            ([(0, 1), (-math.inf, math.inf)], r"component 1 .*\[-inf, inf\]"),
            ([(1e308, 1.7e308), (0, 1)], r"component 0 .*1\.7e\+308"),
        ],
    )
    def test_midpoint_outside_its_component_rejected(self, bounds, words):
        with pytest.raises(ValueError, match=words):
            IntervalBox.from_bounds(bounds).midpoint()

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

    def test_add(self):
        a = IntervalBox.from_bounds([(0, 1), (-2, 3)])
        b = IntervalBox.from_bounds([(0.5, 0.5), (1, 2)])
        total = a + b
        assert total == IntervalBox([iadd(x, y) for x, y in zip(a, b)])
        assert total.contains((1.5, -1.0)) and total.contains((0.5, 5.0))

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
    c = box[dim]
    if not c.lb < 0.5 * (c.lb + c.ub) < c.ub:
        return
    left, right = box.bisect(dim)
    assert hull(left[dim], right[dim]) == box[dim]
    assert left[dim].ub == right[dim].lb
    for i in range(box.dim):
        if i != dim:
            assert left[i] is box[i] and right[i] is box[i]


def norm_chain(components):
    """The reference the norm is pinned to: squares summed left to right,
    then the root, one Interval per step."""
    acc = isqr(components[0])
    for c in components[1:]:
        acc = iadd(acc, isqr(c))
    return isqrt(acc)


# Signed zeros, subnormals, squares at the underflow and overflow
# thresholds and infinities, beside arbitrary floats.
edge_bound = st.sampled_from(
    [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        2.2250738585072014e-308,
        -1e-310,
        1e-160,
        -1.5e-154,
        1.3407807929942596e154,
        -1.4e154,
        1e300,
        -1.7976931348623157e308,
        math.inf,
        -math.inf,
    ]
)
any_bound = st.one_of(st.floats(allow_nan=False), edge_bound)
norm_component = st.one_of(
    st.tuples(any_bound, any_bound).map(lambda t: Interval(min(t), max(t))),
    any_bound.map(lambda v: Interval(v, v)),  # degenerate
)


@given(st.lists(norm_component, min_size=1, max_size=5))
@example([Interval(-2.0, 3.0)])
@example([Interval(-0.0, 0.0), Interval(-1.0, -0.5)])
@example([Interval(-1e200, 1e-320), Interval(0.0, 5e-324)])
@example([Interval(1e200, 1e201), Interval(-1e201, -1e200), Interval(3.0, 3.0)])
@settings(max_examples=500)
def test_norm_equals_the_chain_bit_for_bit(components):
    out = inorm(components)
    ref = norm_chain(components)
    assert (out.lb.hex(), out.ub.hex()) == (ref.lb.hex(), ref.ub.hex())


@given(
    st.lists(iv_strategy(), min_size=1, max_size=5),
    st.lists(st.floats(0, 1), min_size=5, max_size=5),
)
@settings(max_examples=200)
def test_norm_contains_the_exact_norm(components, us):
    mpmath = pytest.importorskip("mpmath")
    out = inorm(components)
    corners = [[c.lb, c.ub] for c in components]
    points = [[point_in(c, u) for c, u in zip(components, us)]]
    for mask in range(2 ** len(components)):
        points.append([pair[(mask >> i) & 1] for i, pair in enumerate(corners)])
    with mpmath.workdps(60):
        for point in points:
            exact = mpmath.sqrt(mpmath.fsum(mpmath.mpf(v) ** 2 for v in point))
            assert mpmath.mpf(out.lb) <= exact <= mpmath.mpf(out.ub)


@pytest.mark.parametrize(
    "lb, ub", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan), (2.0, 1.0)]
)
def test_norm_rejects_nan_and_reversed_bounds(lb, ub):
    # Only unchecked construction builds such a component; the chain would
    # turn [nan, 1.0] into a valid-looking [0.0, 1.0000000000000002].
    with pytest.raises(ValueError, match="bounds"):
        inorm([Interval(0.0, 1.0), _make(lb, ub)])


def test_norm_of_an_empty_vector_rejected():
    with pytest.raises(ValueError, match="empty"):
        inorm([])


def one_ulp_wide(v):
    """[v, next float above v], or [v, v] at the top of the float range."""
    return Interval(v, math.nextafter(v, math.inf) if v < math.inf else v)


row_component = st.one_of(
    norm_component,
    any_bound.map(one_ulp_wide),
    st.floats(-1.0, 1.0).map(lambda v: Interval(-abs(v), abs(v))),  # straddles 0
)
# 1-5 components per row, 1-6 rows of the same width.
norm_rows = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(row_component, min_size=n, max_size=n), min_size=1, max_size=6
    )
)


def row_norms(rows):
    """_inorm_rows on the bound arrays of a list of interval rows, as one
    Interval per row."""
    lb, ub = bounds_of([IntervalBox(row) for row in rows], len(rows[0]))
    norm_lb, norm_ub = _inorm_rows(lb, ub)
    assert norm_lb.shape == norm_ub.shape == (len(rows),)
    return [_make(lo, hi) for lo, hi in zip(norm_lb.tolist(), norm_ub.tolist())]


@given(norm_rows)
@example(
    [
        [Interval(-0.0, 0.0), Interval(0.0, 0.0)],
        [Interval(-0.0, -0.0), Interval(5e-324, 1e-310)],
    ]
)
@example([[Interval(1e200, 1e201)], [Interval(-math.inf, 1.0)], [Interval(1.0, 1.0)]])
@example(
    [
        [
            Interval(1.0, 1.0000000000000002),
            Interval(-1e-320, -5e-324),
            Interval(3.0, math.inf),
        ]
    ]
)
@settings(max_examples=500)
def test_row_norms_equal_inorm_bit_for_bit(rows):
    # Each row's norm is the one the chain of interval operations gives
    # that row alone, whatever the other rows hold; pytest turns any numpy
    # warning into an error.
    for out, row in zip(row_norms(rows), rows):
        ref = norm_chain(row)
        assert (out.lb.hex(), out.ub.hex()) == (ref.lb.hex(), ref.ub.hex())


@pytest.mark.parametrize(
    "lb, ub", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan), (2.0, 1.0)]
)
def test_row_norms_reject_what_inorm_rejects(lb, ub):
    # The first bad component in row order is named.
    rows = [
        [Interval(0.0, 1.0), Interval(1.0, 2.0)],
        [Interval(0.0, 1.0), _make(lb, ub)],
        [_make(3.0, -3.0), Interval(0.0, 1.0)],
    ]
    with pytest.raises(ValueError) as got:
        row_norms(rows)
    assert str(got.value) == f"norm of a component with bounds [{lb!r}, {ub!r}]"


def test_row_norms_of_no_rows():
    norm_lb, norm_ub = _inorm_rows(np.empty((0, 3)), np.empty((0, 3)))
    assert norm_lb.shape == norm_ub.shape == (0,)


def test_bounds_reads_one_box():
    box = IntervalBox.from_bounds([(-1.0, 2.0), (-0.0, 0.0), (-math.inf, 7.0)])
    lb, ub = _bounds(box)
    assert lb.dtype == ub.dtype == np.float64
    assert [[v.hex() for v in row] for row in lb.tolist()] == [
        [(-1.0).hex(), (-0.0).hex(), (-math.inf).hex()]
    ]
    assert ub.tolist() == [[2.0, 0.0, 7.0]]
    assert _bounds(IntervalBox.from_bounds([(3, 4)]))[0].shape == (1, 1)
