"""Branch-and-bound global minimization over interval boxes.

The search keeps a cover of the initial box ordered by the lower bound of
each box's objective enclosure. Each iteration takes the front box (the one
with the smallest lower bound), splits it along its widest splittable
dimension, re-evaluates the halves and puts them in its place. The front
enclosure always brackets the global minimum, so the loop may stop at any
iteration with a sound result; it stops normally once the front enclosure
is narrower than the configured tolerance.

The cover is held in rows of bound arrays: (rows, dim) box lower and upper
bounds and (rows,) enclosure upper bounds, grown by doubling, with the row
of a split box reused. A heap of (enclosure lower bound, insertion
sequence, row) orders them. `IntervalBox` and `Interval` appear only at the
edges: the initial box, the result, `Cover.entries()` and error messages.

The objective is batched on such arrays too. A split whose halves are not
yet evaluated also bisects the next LOOKAHEAD - 1 boxes in cover order,
all in one numpy pass, and hands all the halves to the objective in one
call; each speculated pair waits in rows outside the heap until its box
reaches the front. Each enclosure depends only on its own box, and the
splits, insertion order and tie-breaking are those of one split per call,
so every result is the same for any LOOKAHEAD; only the number of
objective calls and of evaluated boxes changes.

No box is ever discarded: without an upper-bound pruning rule the cover
only grows, and memory is bounded by the iteration cap.

Splitting can be restricted to a subset of dimensions. Components outside
that subset are carried through bit-identically, which is what lets a
caller freeze e.g. noise dimensions while the parameter dimensions are
refined.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .interval import Interval, IntervalBox, _bounds, _make, _row_box

__all__ = [
    "ObjectiveError", "CoverEntry", "Cover", "MsConfig", "MsResult", "moore_skelboe"
]

Bounds = tuple[np.ndarray, np.ndarray]
BoxObjective = Callable[[np.ndarray, np.ndarray], Bounds]

# Front boxes split per objective call: 32 boxes, 64 halves, per call. The
# objectives evaluate a batch with numpy calls whose cost is paid per call,
# not per box, so a wider batch is cheaper per box (see framework's module
# docstring for the measurements behind 32).
LOOKAHEAD = 32


class ObjectiveError(RuntimeError):
    """The objective returned other than one valid enclosure per box."""


class CoverEntry:
    """A cover box together with its objective enclosure."""

    __slots__ = ("box", "enclosure")

    def __init__(self, box: IntervalBox, enclosure: Interval) -> None:
        self.box = box
        self.enclosure = enclosure


class Cover:
    """Working set of cover boxes, ordered by enclosure lower bound.

    Box bounds and enclosure upper bounds live in rows of the arrays _lb,
    _ub and _f_ub. The heap holds (lower bound, insertion sequence, row)
    per box, so equal lower bounds pop in insertion (FIFO) order. Rows
    listed in _free hold no cover box; they are reused first."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int]] = []
        self._seq = 0
        self._free: list[int] = []
        self._end = 0
        self._lb = self._ub = np.empty((0, 0))
        self._f_ub = np.empty(0)

    def __len__(self) -> int:
        return len(self._heap)

    def _add(self, lb: np.ndarray, ub: np.ndarray, f_ub: np.ndarray) -> list[int]:
        """Write the boxes of the (k, dim) bounds lb, ub and their enclosure
        upper bounds into k rows, free ones first, and return the rows."""
        k, dim = lb.shape
        rows = [self._free.pop() for _ in range(min(k, len(self._free)))]
        start, end = self._end, self._end + k - len(rows)
        if end > len(self._f_ub):
            cap = max(end, 2 * len(self._f_ub))
            grown = np.empty((cap, dim)), np.empty((cap, dim)), np.empty(cap)
            if start:
                for new, old in zip(grown, (self._lb, self._ub, self._f_ub)):
                    new[:start] = old[:start]
            self._lb, self._ub, self._f_ub = grown
        rows += range(start, end)
        self._end = end
        at = np.array(rows)
        self._lb[at] = lb
        self._ub[at] = ub
        self._f_ub[at] = f_ub
        return rows

    def _entry(self, f_lb: float, row: int) -> CoverEntry:
        enclosure = _make(f_lb, self._f_ub.item(row))
        return CoverEntry(_row_box(self._lb[row], self._ub[row]), enclosure)

    def insert(self, entry: CoverEntry) -> None:
        box = entry.box
        (row,) = self._add(*_bounds((box,), box.dim), np.array([entry.enclosure.ub]))
        heapq.heappush(self._heap, (entry.enclosure.lb, self._seq, row))
        self._seq += 1

    def pop(self) -> CoverEntry:
        f_lb, _, row = heapq.heappop(self._heap)
        self._free.append(row)
        return self._entry(f_lb, row)

    def entries(self) -> list[CoverEntry]:
        """All entries, sorted by (lower bound, insertion order)."""
        # Sequence numbers are unique, so tuple order never reaches the row.
        return [self._entry(f_lb, row) for f_lb, _, row in sorted(self._heap)]


@dataclass(frozen=True)
class MsConfig:
    """Search parameters.

    delta: stop once the front enclosure is at most this wide.
    max_iterations: split budget; hitting it is not an error, the result is
        still a sound (possibly wide) bracket.
    split_dims: box dimensions the search may bisect.
    """

    delta: float
    split_dims: tuple[int, ...]
    max_iterations: int = 1_000_000

    def __post_init__(self) -> None:
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if not self.split_dims:
            raise ValueError("split_dims must not be empty")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        object.__setattr__(self, "split_dims", tuple(self.split_dims))


@dataclass(frozen=True)
class MsResult:
    """Outcome of a branch-and-bound run.

    enclosure brackets the global minimum of the exact objective over the
    initial box; witness is the final front box, whose non-split components
    equal the initial box's. converged tells whether the width criterion
    fired (True) or the run stopped on the iteration cap / unsplittable
    front (False). cover is the final cover, left unsorted: its entries()
    lists it in cover order. evaluated counts the boxes handed to the
    objective, initial box and speculated halves included.
    """

    enclosure: Interval
    witness: IntervalBox
    iterations: int
    final_cover_size: int
    converged: bool
    evaluated: int
    cover: Cover = field(repr=False)


def _split_rule(
    lb: np.ndarray, ub: np.ndarray, dims: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each box, a row of the (k, dim) bounds: the widest splittable
    dimension among dims (sorted, without repeats), lowest index on ties,
    its midpoint, and whether there is one. A dimension is splittable when
    its midpoint lies strictly inside it: not when it is degenerate or one
    ulp wide, nor when lb + ub overflows."""
    lo = lb[:, dims]
    hi = ub[:, dims]
    with np.errstate(over="ignore", invalid="ignore"):
        mid = 0.5 * (lo + hi)
        ok = (lo < mid) & (mid < hi)
        best = np.where(ok, hi - lo, -1.0).argmax(axis=1)
    at = np.arange(len(lb)), best
    return dims[best], mid[at], ok[at]


def _evaluate(f: BoxObjective, lb: np.ndarray, ub: np.ndarray) -> Bounds:
    """f's enclosures of the boxes in the rows of lb and ub, checked."""
    out = f(lb, ub)
    k = len(lb)
    try:
        f_lb, f_ub = out
        arrays = [isinstance(a, np.ndarray) and a.shape == (k,) for a in (f_lb, f_ub)]
    except (TypeError, ValueError):
        arrays = [False]
    if not all(arrays) or f_lb.dtype != np.float64 or f_ub.dtype != np.float64:
        raise ObjectiveError(
            f"objective returned {out!r} for {k} boxes, the first "
            f"{_row_box(lb[0], ub[0])!r}, not two ({k},) float64 arrays "
            "holding one enclosure per box"
        )
    # Also false for NaN bounds, which would corrupt the cover's heap order.
    valid = f_lb <= f_ub
    if not valid.all():
        i = int(valid.argmin())
        raise ObjectiveError(
            f"objective returned the invalid enclosure [{f_lb.item(i)!r}, "
            f"{f_ub.item(i)!r}] on {_row_box(lb[i], ub[i])!r}"
        )
    return f_lb, f_ub


def _following(heap: list, count: int) -> list:
    """Up to count heap items after the front, in cover order, each with its
    heap index appended: a best-first walk from the root, O(count log count)."""
    n = len(heap)
    # Items are unique, so the index never takes part in a comparison.
    frontier = [heap[i] + (i,) for i in (1, 2) if i < n]
    heapq.heapify(frontier)
    out = []
    while frontier and len(out) < count:
        item = frontier[0]
        out.append(item)
        child = 2 * item[3] + 1
        if child + 1 < n:
            heapq.heapreplace(frontier, heap[child] + (child,))
            heapq.heappush(frontier, heap[child + 1] + (child + 1,))
        elif child < n:
            heapq.heapreplace(frontier, heap[child] + (child,))
        else:
            heapq.heappop(frontier)
    return out


def _split_ahead(
    f: BoxObjective,
    cover: Cover,
    front: int,
    dims: np.ndarray,
    delta: float,
    count: int,
    ahead: dict[int, tuple[int, int, float, float]],
) -> int | None:
    """Split the front row together with up to count - 1 following boxes,
    evaluate all the halves in one call and store each split row's pair in
    ahead, as (left row, right row, left lower bound, right lower bound).
    Returns the number of boxes handed to f, or None when the front cannot
    be split. A following box already split ahead, one that cannot be
    split, or one whose enclosure stops the search, is not split ahead."""
    # inf - inf is NaN, which is not <= delta, as in the search loop.
    rows = [
        row
        for key, _, row, _ in _following(cover._heap, count - 1)
        if row not in ahead and not cover._f_ub.item(row) - key <= delta
    ]
    rows = np.array([front] + rows)
    lb = cover._lb[rows]
    ub = cover._ub[rows]
    dim, mid, ok = _split_rule(lb, ub, dims)
    if not ok[0]:
        return None
    split = np.flatnonzero(ok)
    # Halves 2i and 2i + 1 are the left and the right half of box split[i].
    lb = np.repeat(lb[split], 2, axis=0)
    ub = np.repeat(ub[split], 2, axis=0)
    left = 2 * np.arange(len(split))
    ub[left, dim[split]] = mid[split]
    lb[left + 1, dim[split]] = mid[split]
    # The objective must not change the halves: the cover copies them below.
    lb.flags.writeable = ub.flags.writeable = False
    try:
        f_lb, f_ub = _evaluate(f, lb, ub)
        evaluated = len(lb)
    except Exception:
        if len(split) == 1:
            raise
        # Raise, if at all, what the front's pair alone raises, at this
        # iteration; a speculated box that fails is retried when it is due.
        evaluated = len(lb) + 2
        lb, ub, split = lb[:2], ub[:2], split[:1]
        f_lb, f_ub = _evaluate(f, lb, ub)
    new = cover._add(lb, ub, f_ub)
    keys = f_lb.tolist()
    pairs = zip(new[::2], new[1::2], keys[::2], keys[1::2])
    ahead.update(zip(rows[split].tolist(), pairs))
    return evaluated


def moore_skelboe(f: BoxObjective, b_init: IntervalBox, cfg: MsConfig) -> MsResult:
    """Minimize a box objective over b_init.

    f must be a sound, isotone inclusion function of the objective being
    minimized, batched on bound arrays: f(lb, ub) takes k boxes as two
    read-only (k, dim) float64 arrays, their lower and their upper bounds,
    one box per row, and returns the lower and the upper bounds of their
    enclosures as two (k,) float64 arrays, in the same order. It is called
    with the initial box alone, then with the halves of up to LOOKAHEAD
    front boxes per call. Any other return value, or an enclosure with a
    NaN or reversed bound, raises ObjectiveError naming the box.

    The returned enclosure contains the exact global minimum at any
    iteration count; `converged` tells whether the width criterion was met.
    """
    for d in cfg.split_dims:
        if not 0 <= d < b_init.dim:
            raise ValueError(f"split dim {d} out of range for box of dim {b_init.dim}")
        if not b_init[d].width > 0.0:
            raise ValueError(f"split dim {d} has zero initial width: {b_init[d]!r}")

    lb, ub = _bounds((b_init,), b_init.dim)
    lb.flags.writeable = ub.flags.writeable = False
    f_lb, f_ub = _evaluate(f, lb, ub)
    cover = Cover()
    cover.insert(CoverEntry(b_init, _make(f_lb.item(), f_ub.item())))
    heap, seq = cover._heap, cover._seq
    # Not np.unique: its first call in a process costs about 12 ms.
    dims = np.array(sorted(set(cfg.split_dims)))
    iterations = 0
    # Rows split ahead of their turn, each with its evaluated pair.
    ahead: dict[int, tuple[int, int, float, float]] = {}
    evaluated = 1

    while True:
        key, _, row = heap[0]
        if cover._f_ub.item(row) - key <= cfg.delta:
            converged = True
            break
        if iterations >= cfg.max_iterations:
            converged = False
            break
        # A box split ahead was splittable then, and splits the same way now.
        if row not in ahead:
            # No more splits than the iteration cap leaves are made ahead.
            count = min(LOOKAHEAD, cfg.max_iterations - iterations)
            n = _split_ahead(f, cover, row, dims, cfg.delta, count, ahead)
            if n is None:
                converged = False
                break
            evaluated += n
        left, right, left_key, right_key = ahead.pop(row)
        heapq.heapreplace(heap, (left_key, seq, left))
        heapq.heappush(heap, (right_key, seq + 1, right))
        seq += 2
        cover._free.append(row)
        iterations += 1

    cover._seq = seq
    front = cover._entry(*heap[0][::2])
    return MsResult(
        enclosure=front.enclosure,
        witness=front.box,
        iterations=iterations,
        final_cover_size=len(cover),
        converged=converged,
        evaluated=evaluated,
        cover=cover,
    )
