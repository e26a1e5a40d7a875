"""Branch-and-bound global minimization over interval boxes.

The search keeps a cover of the initial box ordered by the lower bound of
each box's objective enclosure. Each iteration takes the front box (the one
with the smallest lower bound), splits it along its widest splittable
dimension, re-evaluates the halves and puts them in its place. The front
enclosure always brackets the global minimum, so the loop may stop at any
iteration with a sound result; it stops normally once the front enclosure
is narrower than the configured tolerance.

The cover is held in rows of bound arrays: (rows, dim) box lower and upper
bounds and (rows,) enclosure lower and upper bounds, grown by doubling,
with the row of a split box reused. Rows with equal lower bounds form FIFO
runs, ordered by a heap of the distinct lower bounds, so ties cost no heap
work. `IntervalBox` and `Interval` appear only at the edges: the initial
box, the result, `Cover.entries()` and error messages.

The objective is batched on such arrays too. A split whose halves are not
yet evaluated also bisects the boxes that follow the front, all in one
numpy pass, and hands all the halves to the objective in one call; each
pair split ahead waits in rows outside the runs until its box reaches the
front. Which boxes follow it:
- when the front's run holds more than LOOKAHEAD boxes, the run's first
  TIED_SPLITS boxes, the front's included;
- otherwise the next LOOKAHEAD - 1 boxes in cover order, across runs.
Neither takes more boxes than the iteration cap leaves splits.

A batch ends before the first box that cannot be split or whose enclosure
is narrow enough to stop the search: boxes after it in cover order reach
the front only after it does, and then the search stops.

Splitting a tied run ahead is not a guess. The objective is isotone, so a
half's lower bound is at least its parent's, the run's key: every box of
the front's run is split, in FIFO order, before any other box, until the
iteration cap or a box that cannot be split. So on an isotone objective a
tied batch adds no evaluated box. Across runs it is a guess, which is why
LOOKAHEAD is small.

A tied batch is the head of the front's run, where no box waits split
ahead: boxes split ahead lead their runs, since a LOOKAHEAD batch splits a
prefix of cover order and halves join their runs at the tail, and the
front was not split ahead. When all the batch's halves tie with the run,
it leaves the cover in one step: its rows are cut off the run and their
halves chained onto the run's tail in order. That is the cover one split
per iteration would leave, since no half reaches the front before the rest
of the batch. A half below the run's key would, and an objective that is
not isotone can give one; a half above it belongs to another run. So the
search checks that every half ties, and otherwise uses the batch as a
LOOKAHEAD batch is: each box split ahead leaves the cover when it reaches
the front, its halves put in its place.

Each enclosure depends only on its own box, and the splits, insertion
order and tie-breaking are those of one split per call, so every result is
the same for any LOOKAHEAD and TIED_SPLITS, for any objective; only the
number of objective calls and of evaluated boxes changes.

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

from .interval import Bounds, Interval, IntervalBox, _bounds, _make, _row_box

__all__ = [
    "ObjectiveError", "CoverEntry", "Cover", "MsConfig", "MsResult", "moore_skelboe"
]

BoxObjective = Callable[[np.ndarray, np.ndarray], Bounds]

# Front boxes split per objective call: 32 boxes, 64 halves, per call. The
# objectives evaluate a batch with numpy calls whose cost is paid per call,
# not per box, so a wider batch is cheaper per box (see framework's module
# docstring for the measurements behind 32).
LOOKAHEAD = 32
# Front boxes split per call when the front's run holds more than LOOKAHEAD
# boxes: all of them are due before any other box (see the module
# docstring). On the identity scenario at 100k iterations, where every box
# ties, the search makes 205 objective calls instead of 3131.
TIED_SPLITS = 512


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

    Box and enclosure bounds live in rows of the arrays _lb, _ub, _f_lb and
    _f_ub. Rows whose lower bounds compare equal (0.0 and -0.0 too) form a
    FIFO run: a circular list through _next, held by its last row in
    _runs[key]. _keys is a heap of the keys of _runs. Rows below _end not in
    a run are listed in _free, to be reused first.

    _pop takes the front row and _push appends a row to its run. _retire
    leaves the cover of a _pop and two _push per row of a tied batch."""

    def __init__(self) -> None:
        self._keys: list[float] = []
        self._runs: dict[float, int] = {}
        self._next: list[int] = []
        self._free: list[int] = []
        self._end = 0
        self._lb = self._ub = np.empty((0, 0))
        self._f_lb = self._f_ub = np.empty(0)

    def __len__(self) -> int:
        return self._end - len(self._free)

    def _add(
        self, lb: np.ndarray, ub: np.ndarray, f_lb: np.ndarray, f_ub: np.ndarray
    ) -> np.ndarray:
        """Write the boxes of the (k, dim) bounds lb, ub and their enclosure
        bounds into k rows, free ones first, and return the rows."""
        k, dim = lb.shape
        cut = max(len(self._free) - k, 0)
        reused = self._free[cut:]
        del self._free[cut:]
        start, end = self._end, self._end + k - len(reused)
        if end > len(self._f_ub):
            cap = max(end, 2 * len(self._f_ub))
            old = self._lb, self._ub, self._f_lb, self._f_ub
            self._lb, self._ub = np.empty((cap, dim)), np.empty((cap, dim))
            self._f_lb, self._f_ub = np.empty(cap), np.empty(cap)
            self._next += range(len(self._next), cap)
            grown = self._lb, self._ub, self._f_lb, self._f_ub
            for new, had in zip(grown, old if start else ()):
                new[:start] = had[:start]
        self._end = end
        at = np.concatenate((np.array(reused, dtype=np.intp), np.arange(start, end)))
        self._lb[at], self._ub[at], self._f_lb[at], self._f_ub[at] = lb, ub, f_lb, f_ub
        return at

    def _push(self, row: int) -> None:
        """Append row to the run of its enclosure lower bound."""
        key = self._f_lb.item(row)
        last = self._runs.get(key)
        if last is None:
            heapq.heappush(self._keys, key)
            last = row
        self._next[row] = self._next[last]
        self._next[last] = self._runs[key] = row

    def _pop(self) -> int:
        """Take the front row off the cover, list it in _free and return it."""
        key = self._keys[0]
        last = self._runs[key]
        row = self._next[last]
        if row == last:
            del self._runs[heapq.heappop(self._keys)]
        self._next[last] = self._next[row]
        self._free.append(row)
        return row

    def _retire(self, rows: list[int], halves: np.ndarray) -> None:
        """Take rows, the first rows of the front's run in order, off the
        cover, list them in _free and chain halves, the rows of their
        halves in order, onto the run's tail, or make them the run if rows
        emptied it. Every half's lower bound must equal the run's key."""
        key = self._keys[0]
        nxt = self._next
        last = self._runs[key]
        self._free += rows
        halves = halves.tolist()
        if rows[-1] == last:
            head = halves[0]
        else:
            head = nxt[rows[-1]]
            nxt[last] = halves[0]
        for row, after in zip(halves, halves[1:] + [head]):
            nxt[row] = after
        self._runs[key] = halves[-1]

    def _entry(self, row: int) -> CoverEntry:
        enclosure = _make(self._f_lb.item(row), self._f_ub.item(row))
        return CoverEntry(_row_box(self._lb[row], self._ub[row]), enclosure)

    def insert(self, entry: CoverEntry) -> None:
        enc = entry.enclosure
        at = self._add(*_bounds(entry.box), np.array([enc.lb]), np.array([enc.ub]))
        self._push(at.item())

    def pop(self) -> CoverEntry:
        return self._entry(self._pop())

    def entries(self) -> list[CoverEntry]:
        """All entries, sorted by (lower bound, insertion order)."""
        if not self._keys:
            return []
        front = self._next[self._runs[self._keys[0]]]
        return list(map(self._entry, [front] + _following(self, len(self))))


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
        if not 0.0 < self.delta < np.inf:
            raise ValueError(
                f"ms 'delta' must be positive and finite, got {self.delta!r}"
            )
        if not self.split_dims:
            raise ValueError("split_dims must not be empty")
        if self.max_iterations < 0:
            raise ValueError(
                f"ms 'max_iterations' must be non-negative, got {self.max_iterations}"
            )
        object.__setattr__(self, "split_dims", tuple(self.split_dims))


@dataclass(frozen=True)
class MsResult:
    """Outcome of a branch-and-bound run.

    enclosure brackets the global minimum of the exact objective over the
    initial box; witness is the final front box, whose non-split components
    equal the initial box's. stop_reason tells why the run stopped: "width"
    (the front enclosure is at most delta wide), "iteration cap" or
    "unsplittable front"; converged is whether it was the width. cover is
    the final cover, left unsorted: its entries() lists it in cover order.
    evaluated counts the boxes handed to the objective, initial box and
    speculated halves included.
    """

    enclosure: Interval
    witness: IntervalBox
    iterations: int
    final_cover_size: int
    stop_reason: str
    evaluated: int
    cover: Cover = field(repr=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "width"


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
    # Also false for NaN bounds, which would corrupt the cover's order.
    valid = f_lb <= f_ub
    if not valid.all():
        i = int(valid.argmin())
        raise ObjectiveError(
            f"objective returned the invalid enclosure [{f_lb.item(i)!r}, "
            f"{f_ub.item(i)!r}] on {_row_box(lb[i], ub[i])!r}"
        )
    return f_lb, f_ub


def _run(cover: Cover, key: float, count: int) -> list[int]:
    """Up to count rows of the run of key, in cover order."""
    nxt = cover._next
    row = last = cover._runs[key]
    out: list[int] = []
    for _ in range(count):
        row = nxt[row]
        out.append(row)
        if row == last:
            break
    return out


def _following(cover: Cover, count: int) -> list[int]:
    """Up to count cover rows after the front, in cover order: the runs of
    the keys met by a best-first walk of the key heap from its root, the
    front's run first."""
    keys = cover._keys
    # Keys are distinct, so the index never takes part in a comparison.
    frontier = [(keys[0], 0)]
    out: list[int] = []
    while frontier and len(out) <= count:
        key, i = heapq.heappop(frontier)
        for child in range(2 * i + 1, min(2 * i + 3, len(keys))):
            heapq.heappush(frontier, (keys[child], child))
        out += _run(cover, key, count + 1 - len(out))
    return out[1:]


def _split_ahead(
    f: BoxObjective,
    cover: Cover,
    rows: list[int],
    dims: np.ndarray,
    delta: float,
    ahead: dict[int, list[int]],
) -> tuple[int, list[int], np.ndarray] | None:
    """Split the front, the first of the cover rows given in cover order,
    together with the others, and evaluate all the halves in one call.
    Returns the number of boxes handed to f, the rows split and the rows of
    their halves, left and right in turn; or None when the front cannot be
    split. A box already split ahead, a key of ahead, is not split ahead.
    Nor is a box that cannot be split or whose enclosure stops the search,
    or any box after it: the search stops when that box reaches the front,
    before they do."""
    # ahead is empty once the search has used every box it split ahead, as
    # before every batch on the identity scenario, whose boxes all tie: no
    # test per row then.
    rows = np.array([row for row in rows if row not in ahead] if ahead else rows)
    lb = cover._lb[rows]
    ub = cover._ub[rows]
    dim, mid, ok = _split_rule(lb, ub, dims)
    # inf - inf is NaN, which is not <= delta, as in the search loop.
    with np.errstate(invalid="ignore"):
        cut = ~ok | (cover._f_ub[rows] - cover._f_lb[rows] <= delta)
    n = int(cut.argmax()) if cut.any() else len(rows)
    if n == 0:
        return None
    # Halves 2i and 2i + 1 are the left and the right half of box i.
    lb = np.repeat(lb[:n], 2, axis=0)
    ub = np.repeat(ub[:n], 2, axis=0)
    left = 2 * np.arange(n)
    ub[left, dim[:n]] = mid[:n]
    lb[left + 1, dim[:n]] = mid[:n]
    # The objective must not change the halves: the cover copies them below.
    lb.flags.writeable = ub.flags.writeable = False
    try:
        f_lb, f_ub = _evaluate(f, lb, ub)
        evaluated = len(lb)
    except Exception:
        if n == 1:
            raise
        # Raise, if at all, what the front's pair alone raises, at this
        # iteration; a speculated box that fails is retried when it is due.
        evaluated = len(lb) + 2
        lb, ub, n = lb[:2], ub[:2], 1
        f_lb, f_ub = _evaluate(f, lb, ub)
    return evaluated, rows[:n].tolist(), cover._add(lb, ub, f_lb, f_ub)


def moore_skelboe(f: BoxObjective, b_init: IntervalBox, cfg: MsConfig) -> MsResult:
    """Minimize a box objective over b_init.

    f must be a sound, isotone inclusion function of the objective being
    minimized, batched on bound arrays: f(lb, ub) takes k boxes as two
    read-only (k, dim) float64 arrays, their lower and their upper bounds,
    one box per row, and returns the lower and the upper bounds of their
    enclosures as two (k,) float64 arrays, in the same order. It is called
    with the initial box alone, then with the halves of up to LOOKAHEAD
    front boxes per call, or of up to TIED_SPLITS when they tie. Any other
    return value, or an enclosure with a NaN or reversed bound, raises
    ObjectiveError naming the box.

    The returned enclosure contains the exact global minimum at any
    iteration count; `converged` tells whether the width criterion was met.
    """
    for d in cfg.split_dims:
        if not 0 <= d < b_init.dim:
            raise ValueError(f"split dim {d} out of range for box of dim {b_init.dim}")
        if not b_init[d].width > 0.0:
            raise ValueError(f"split dim {d} has zero initial width: {b_init[d]!r}")

    lb, ub = _bounds(b_init)
    lb.flags.writeable = ub.flags.writeable = False
    cover = Cover()
    cover._push(cover._add(lb, ub, *_evaluate(f, lb, ub)).item())
    keys, runs, nxt = cover._keys, cover._runs, cover._next
    # Not np.unique: its first call in a process costs about 12 ms.
    dims = np.array(sorted(set(cfg.split_dims)))
    iterations = 0
    # Rows split ahead of their turn, each with the rows of its halves.
    ahead: dict[int, list[int]] = {}
    evaluated = 1

    while True:
        key = keys[0]
        row = nxt[runs[key]]
        if cover._f_ub.item(row) - key <= cfg.delta:
            stop_reason = "width"
            break
        if iterations >= cfg.max_iterations:
            stop_reason = "iteration cap"
            break
        # A box split ahead was splittable then, and splits the same way now.
        if row not in ahead:
            # No more splits than the iteration cap leaves are made ahead.
            budget = cfg.max_iterations - iterations
            rows = _run(cover, key, min(TIED_SPLITS, budget))
            tied = len(rows) > LOOKAHEAD
            if not tied:
                rows = [row] + _following(cover, min(LOOKAHEAD, budget) - 1)
            split = _split_ahead(f, cover, rows, dims, cfg.delta, ahead)
            if split is None:
                stop_reason = "unsplittable front"
                break
            n, rows, halves = split
            evaluated += n
            # A tied batch whose halves all tie leaves the cover at once.
            if tied and (cover._f_lb[halves] == key).all():
                cover._retire(rows, halves)
                iterations += len(rows)
                continue
            ahead.update(zip(rows, halves.reshape(-1, 2).tolist()))
        left, right = ahead.pop(row)
        cover._pop()
        cover._push(left)
        cover._push(right)
        iterations += 1

    # Rows split ahead but never reached hold no cover box.
    cover._free += [r for pair in ahead.values() for r in pair]
    front = cover._entry(row)
    return MsResult(
        enclosure=front.enclosure,
        witness=front.box,
        iterations=iterations,
        final_cover_size=len(cover),
        stop_reason=stop_reason,
        evaluated=evaluated,
        cover=cover,
    )
