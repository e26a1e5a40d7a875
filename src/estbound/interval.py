"""Outward-rounded interval arithmetic and interval boxes.

Every arithmetic operation here returns bounds that are stepped outward to
the next representable float after the native floating-point computation,
so real-arithmetic containment survives rounding: if x is in `a` and y is
in `b`, the exact real value of x op y lies inside the returned interval.
Exceptions that need no widening because they are exact in IEEE arithmetic:
negation, relu, and the square root of an exact zero bound.

Intervals and boxes are immutable after construction; all operations are
pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Interval",
    "IntervalBox",
    "iadd",
    "isub",
    "imul",
    "ineg",
    "isqr",
    "isqrt",
    "irelu",
]

_INF = math.inf


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

    @staticmethod
    def point(v: float) -> "Interval":
        """Degenerate interval [v, v]."""
        return Interval(v, v)

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


def ineg(a: Interval) -> Interval:
    """Negation; exact, so no widening."""
    return _make(-a.ub, -a.lb)


def imul(a: Interval, b: Interval) -> Interval:
    """Product via endpoint products, outward-rounded."""
    p0 = a.lb * b.lb
    p1 = a.lb * b.ub
    p2 = a.ub * b.lb
    p3 = a.ub * b.ub
    return _make(_down(min(p0, p1, p2, p3)), _up(max(p0, p1, p2, p3)))


def _mul_scalar(w: float, a: Interval) -> Interval:
    # Equivalent to imul(Interval.point(w), a); two products instead of four.
    if w >= 0.0:
        lo = w * a.lb
        hi = w * a.ub
    else:
        lo = w * a.ub
        hi = w * a.lb
    return _make(_down(lo), _up(hi))


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
    lo_arg = a.lb if a.lb > 0.0 else 0.0
    if lo_arg == 0.0:
        lo = 0.0
    else:
        lo = _down(math.sqrt(lo_arg))
        if lo < 0.0:
            lo = 0.0
    hi = 0.0 if a.ub == 0.0 else _up(math.sqrt(a.ub))
    return _make(lo, hi)


def irelu(a: Interval) -> Interval:
    """Exact image of a under max(0, x); relu is monotone, so no widening."""
    return _make(a.lb if a.lb > 0.0 else 0.0, a.ub if a.ub > 0.0 else 0.0)


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

    @staticmethod
    def point(values: Sequence[float]) -> "IntervalBox":
        """Degenerate box around a point."""
        return IntervalBox(Interval(v, v) for v in values)

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
        return tuple(0.5 * (c.lb + c.ub) for c in self.components)

    def bisect(self, dim: int) -> tuple["IntervalBox", "IntervalBox"]:
        """Split component `dim` at its midpoint; other components are the
        identical objects in both halves."""
        c = self.components[dim]
        if c.width <= 0.0:
            raise ValueError(f"cannot bisect degenerate component {dim}: {c!r}")
        mid = 0.5 * (c.lb + c.ub)
        if mid < c.lb:
            mid = c.lb
        elif mid > c.ub:
            mid = c.ub
        left = list(self.components)
        right = list(self.components)
        left[dim] = _make(c.lb, mid)
        right[dim] = _make(mid, c.ub)
        return _box(tuple(left)), _box(tuple(right))

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
