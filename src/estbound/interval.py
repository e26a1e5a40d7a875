"""Outward-rounded interval arithmetic and interval boxes.

Every arithmetic operation here returns bounds that are stepped outward to
the next representable float after the native floating-point computation,
so real-arithmetic containment survives rounding: if x is in `a` and y is
in `b`, the exact real value of x op y lies inside the returned interval.
The exception, exact in IEEE arithmetic and so not widened: the square
root of an exact zero bound.

`_inorm_rows` is the Euclidean norm of many interval vectors at once, held
as arrays of lower and upper bounds (`Bounds`; `_bounds` reads one box into
such arrays), one vector per row: per row, bit for bit the bounds of the
chain isqrt(iadd(...iadd(isqr(c0), isqr(c1))..., isqr(cn))). `inorm` is
its one-vector form.

Intervals and boxes are immutable after construction; all operations are
pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Interval",
    "IntervalBox",
    "iadd",
    "isub",
    "imul",
    "isqr",
    "isqrt",
    "inorm",
]

_INF = math.inf

# Bound arrays: the lower and the upper bounds of k boxes or intervals, one
# per row.
Bounds = tuple[np.ndarray, np.ndarray]


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class Interval:
    """Closed real interval [lb, ub] with lb <= ub and no NaN bounds."""

    __slots__ = ("lb", "ub")

    lb: float
    ub: float

    def __init__(self, lb: float, ub: float) -> None:
        lb = float(lb)
        ub = float(ub)
        if math.isnan(lb) or math.isnan(ub):
            raise ValueError("interval bounds must not be NaN")
        if lb > ub:
            raise ValueError(f"reversed interval bounds: lb={lb!r} > ub={ub!r}")
        self.lb = lb
        self.ub = ub

    @property
    def width(self) -> float:
        return self.ub - self.lb

    def contains(self, x: float) -> bool:
        return self.lb <= x <= self.ub

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lb == other.lb and self.ub == other.ub

    def __repr__(self) -> str:
        return f"[{self.lb!r}, {self.ub!r}]"


def _make(lb: float, ub: float) -> Interval:
    # Fast construction for bounds already known to be ordered and non-NaN.
    iv = Interval.__new__(Interval)
    iv.lb = lb
    iv.ub = ub
    return iv


def iadd(a: Interval, b: Interval) -> Interval:
    """Sum, outward-rounded."""
    return _make(_down(a.lb + b.lb), _up(a.ub + b.ub))


def isub(a: Interval, b: Interval) -> Interval:
    """Difference, outward-rounded."""
    return _make(_down(a.lb - b.ub), _up(a.ub - b.lb))


def imul(a: Interval, b: Interval) -> Interval:
    """Product via endpoint products, outward-rounded."""
    p0 = a.lb * b.lb
    p1 = a.lb * b.ub
    p2 = a.ub * b.lb
    p3 = a.ub * b.ub
    return _make(_down(min(p0, p1, p2, p3)), _up(max(p0, p1, p2, p3)))


def isqr(a: Interval) -> Interval:
    """Tight square: exact zero lower bound when 0 is inside, else min/max
    of the squared endpoints; always a subset of imul(a, a)."""
    s_lb = a.lb * a.lb
    s_ub = a.ub * a.ub
    hi = _up(s_lb if s_lb > s_ub else s_ub)
    if a.lb <= 0.0 <= a.ub:
        return _make(0.0, hi)
    lo = _down(s_ub if s_lb > s_ub else s_lb)
    if lo < 0.0:
        lo = 0.0
    return _make(lo, hi)


def isqrt(a: Interval) -> Interval:
    """Square root with a clamped lower bound.

    A slightly negative lb is treated as rounding noise (inputs come from
    outward-rounded sums of squares) and clamped to 0; an entirely negative
    interval is a domain error. Bounds that are exactly 0 stay exact.
    """
    if a.ub < 0.0:
        raise ValueError(f"isqrt of interval with negative upper bound: {a!r}")
    # The root of a positive float is at least about 2.2e-162, so rounding
    # it down stays positive.
    lo = _down(math.sqrt(a.lb)) if a.lb > 0.0 else 0.0
    hi = 0.0 if a.ub == 0.0 else _up(math.sqrt(a.ub))
    return _make(lo, hi)


def inorm(components: Iterable[Interval]) -> Interval:
    """Euclidean norm of an interval vector, outward-rounded: `_inorm_rows`
    on the vector as one row. A component with NaN or reversed bounds,
    which only unchecked construction can produce, raises ValueError, as
    does an empty vector.
    """
    comps = tuple(components)
    if not comps:
        raise ValueError("norm of an empty vector")
    lo, hi = _inorm_rows(
        np.array([[c.lb for c in comps]], dtype=np.float64),
        np.array([[c.ub for c in comps]], dtype=np.float64),
    )
    return _make(lo.item(), hi.item())


def _inorm_rows(lb: np.ndarray, ub: np.ndarray) -> Bounds:
    """Euclidean norm of each row of the interval matrix with (k, n)
    float64 bound arrays lb and ub, n >= 1, as the k lower and the k upper
    bounds of the norms.

    Bit for bit the chain isqrt(iadd(...iadd(isqr(c0), isqr(c1))...,
    isqr(cn))) on each row: the same squares, the same left-to-right
    outward-rounded sum and the same clamped root, a column at a time over
    all rows. The first component in row order with NaN or reversed bounds
    raises ValueError naming its bounds.
    """
    valid = lb <= ub
    if not valid.all():
        i, j = np.argwhere(~valid)[0]
        raise ValueError(
            f"norm of a component with bounds [{lb[i, j].item()!r}, "
            f"{ub[i, j].item()!r}]"
        )
    inf = np.inf
    nextafter = np.nextafter
    # Squares overflow to inf, and the root of a negative lower sum is NaN
    # before it is replaced by 0.0, both silently.
    with np.errstate(over="ignore", invalid="ignore"):
        s_lb = lb * lb
        s_ub = ub * ub
        hi = nextafter(np.maximum(s_lb, s_ub), inf)
        lo = nextafter(np.minimum(s_lb, s_ub), -inf)
        np.maximum(lo, 0.0, out=lo)
        lo[(lb <= 0.0) & (0.0 <= ub)] = 0.0
        acc_lo = lo[:, 0]
        acc_hi = hi[:, 0]
        for j in range(1, lb.shape[1]):
            acc_lo = nextafter(acc_lo + lo[:, j], -inf)
            acc_hi = nextafter(acc_hi + hi[:, j], inf)
        root_lo = np.where(acc_lo > 0.0, nextafter(np.sqrt(acc_lo), -inf), 0.0)
        return root_lo, nextafter(np.sqrt(acc_hi), inf)


class IntervalBox:
    """Cartesian product of intervals; a nonempty axis-aligned box."""

    __slots__ = ("components",)

    components: tuple[Interval, ...]

    def __init__(self, components: Iterable[Interval]) -> None:
        comps = tuple(components)
        if not comps:
            raise ValueError("box must have at least one component")
        for c in comps:
            if not isinstance(c, Interval):
                raise TypeError(f"box component is not an Interval: {c!r}")
        self.components = comps

    @staticmethod
    def from_bounds(bounds: Iterable[tuple[float, float]]) -> "IntervalBox":
        """Build from (lb, ub) pairs."""
        return IntervalBox(Interval(lo, hi) for lo, hi in bounds)

    @property
    def dim(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.components)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            comps = self.components[idx]
            return _box(comps) if comps else IntervalBox(comps)  # () raises
        return self.components[idx]

    def __add__(self, other: "IntervalBox") -> "IntervalBox":
        if len(self.components) != len(other.components):
            raise ValueError(f"box dims differ: {self.dim} vs {other.dim}")
        return _box(tuple(map(iadd, self.components, other.components)))

    def concat(self, other: "IntervalBox") -> "IntervalBox":
        """Cartesian product: the components of self followed by other's."""
        return _box(self.components + other.components)

    def contains(self, x: Sequence[float]) -> bool:
        if len(x) != self.dim:
            raise ValueError(f"point has dim {len(x)}, box has dim {self.dim}")
        return all(c.lb <= v <= c.ub for c, v in zip(self.components, x))

    def midpoint(self) -> tuple[float, ...]:
        """The components' midpoints; ValueError for a component whose
        midpoint is not in it: NaN for [-inf, inf], or inf when lb + ub
        overflows and ub is finite."""
        for i, c in enumerate(self.components):
            if not c.lb <= 0.5 * (c.lb + c.ub) <= c.ub:
                raise ValueError(f"component {i} has no midpoint in float range: {c!r}")
        return tuple(0.5 * (c.lb + c.ub) for c in self.components)

    def bisect(self, dim: int) -> tuple["IntervalBox", "IntervalBox"]:
        """Split component `dim` at its midpoint; other components are the
        identical objects in both halves. Raises ValueError unless the
        midpoint lies strictly inside the component, the search's split
        rule: not when it is degenerate, one ulp wide or infinite, nor when
        lb + ub overflows."""
        c = self.components[dim]
        mid = 0.5 * (c.lb + c.ub)
        if not c.lb < mid < c.ub:
            raise ValueError(f"cannot bisect component {dim} at {mid!r}: {c!r}")
        comps = list(self.components)
        comps[dim] = _make(c.lb, mid)
        left = tuple(comps)
        comps[dim] = _make(mid, c.ub)
        return _box(left), _box(tuple(comps))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalBox):
            return NotImplemented
        return self.components == other.components

    def __repr__(self) -> str:
        inner = " x ".join(repr(c) for c in self.components)
        return f"Box({inner})"


def _box(components: tuple[Interval, ...]) -> IntervalBox:
    # Unchecked construction from a non-empty tuple of Intervals.
    box = IntervalBox.__new__(IntervalBox)
    box.components = components
    return box


def _row_box(lb: np.ndarray, ub: np.ndarray) -> IntervalBox:
    # Unchecked: the box with the bounds of one row of bound arrays.
    return _box(tuple(map(_make, lb.tolist(), ub.tolist())))


def _bounds(box: IntervalBox) -> Bounds:
    """The lower and the upper bounds of box, as two (1, dim) float64 arrays."""
    comps = box.components
    return (
        np.array([[c.lb for c in comps]], dtype=np.float64),
        np.array([[c.ub for c in comps]], dtype=np.float64),
    )
