"""Branch-and-bound global minimization over interval boxes.

The search keeps a cover of the initial box ordered by the lower bound of
each box's objective enclosure. Each iteration takes the front box (the one
with the smallest lower bound), splits it along its widest splittable
dimension, re-evaluates the halves and puts them in its place. The front
enclosure always brackets the global minimum, so the loop may stop at any
iteration with a sound result; it stops normally once the front enclosure
is narrower than the configured tolerance.

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
from typing import Callable, Iterable

from .interval import Interval, IntervalBox

__all__ = [
    "CannotSplitError",
    "ObjectiveError",
    "CoverEntry",
    "Cover",
    "MsConfig",
    "MsResult",
    "select_split_dim",
    "moore_skelboe",
]

BoxObjective = Callable[[IntervalBox], Interval]
TraceCallback = Callable[[int, float, int], None]


class CannotSplitError(ValueError):
    """All allowed split dimensions of a box are degenerate."""


class ObjectiveError(RuntimeError):
    """The objective returned something other than a valid interval."""


class CoverEntry:
    """A cover box together with its objective enclosure."""

    __slots__ = ("box", "enclosure")

    def __init__(self, box: IntervalBox, enclosure: Interval) -> None:
        self.box = box
        self.enclosure = enclosure

    def __repr__(self) -> str:
        return f"CoverEntry(box={self.box!r}, enclosure={self.enclosure!r})"


class Cover:
    """Working set of cover entries, ordered by enclosure lower bound.

    Backed by a heap keyed on (lower bound, insertion sequence); equal lower
    bounds therefore pop in insertion (FIFO) order.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, CoverEntry]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def insert(self, entry: CoverEntry) -> None:
        heapq.heappush(self._heap, (entry.enclosure.lb, self._seq, entry))
        self._seq += 1

    def peek(self) -> CoverEntry:
        return self._heap[0][2]

    def pop(self) -> CoverEntry:
        return heapq.heappop(self._heap)[2]

    def replace_front(self, entry: CoverEntry) -> None:
        """pop() then insert(entry), in one heap sift."""
        heapq.heapreplace(self._heap, (entry.enclosure.lb, self._seq, entry))
        self._seq += 1

    def entries(self) -> list[CoverEntry]:
        """All entries, sorted by (lower bound, insertion order)."""
        # Sequence numbers are unique, so tuple order never reaches the entry.
        return [item[2] for item in sorted(self._heap)]


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
    front (False).
    """

    enclosure: Interval
    witness: IntervalBox
    iterations: int
    final_cover_size: int
    converged: bool
    final_cover: tuple[CoverEntry, ...] = field(repr=False, default=())


def select_split_dim(box: IntervalBox, split_dims: Iterable[int]) -> int:
    """Widest positive-width dimension among split_dims, lowest index on
    ties whatever the order of split_dims. Raises CannotSplitError when
    every candidate is degenerate."""
    best_i = -1
    best_w = -1.0
    for i in split_dims:
        w = box.components[i].width
        if w > best_w or (w == best_w and i < best_i):
            best_i, best_w = i, w
    if best_i < 0:
        raise ValueError("split_dims must be a non-empty subset of box indices")
    if best_w <= 0.0:
        raise CannotSplitError(
            f"all split dimensions of {box!r} are degenerate"
        )
    return best_i


def _evaluate(f: BoxObjective, box: IntervalBox) -> CoverEntry:
    enclosure = f(box)
    if not isinstance(enclosure, Interval):
        raise ObjectiveError(
            f"objective returned {enclosure!r} (not an Interval) on {box!r}"
        )
    # Also false for NaN bounds, which would corrupt the cover's heap order.
    if not enclosure.lb <= enclosure.ub:
        raise ObjectiveError(
            f"objective returned the invalid enclosure {enclosure!r} on {box!r}"
        )
    return CoverEntry(box, enclosure)


def moore_skelboe(
    f: BoxObjective,
    b_init: IntervalBox,
    cfg: MsConfig,
    on_iteration: TraceCallback | None = None,
) -> MsResult:
    """Minimize a box objective over b_init.

    f must be a sound, isotone inclusion function of the objective being
    minimized. The returned enclosure contains the exact global minimum at
    any iteration count; `converged` reports whether the width criterion
    was met. The optional callback receives (iteration, front lower bound,
    cover size) after each split.
    """
    for d in cfg.split_dims:
        if not 0 <= d < b_init.dim:
            raise ValueError(
                f"split dim {d} out of range for box of dim {b_init.dim}"
            )
        if b_init[d].width <= 0.0:
            raise ValueError(
                f"split dim {d} has zero initial width: {b_init[d]!r}"
            )

    cover = Cover()
    cover.insert(_evaluate(f, b_init))
    iterations = 0

    while True:
        front = cover.peek()
        if front.enclosure.width <= cfg.delta:
            converged = True
            break
        if iterations >= cfg.max_iterations:
            converged = False
            break
        try:
            dim = select_split_dim(front.box, cfg.split_dims)
        except CannotSplitError:
            converged = False
            break
        left, right = front.box.bisect(dim)
        cover.replace_front(_evaluate(f, left))
        cover.insert(_evaluate(f, right))
        iterations += 1
        if on_iteration is not None:
            on_iteration(iterations, cover.peek().enclosure.lb, len(cover))

    front = cover.peek()
    return MsResult(
        enclosure=front.enclosure,
        witness=front.box,
        iterations=iterations,
        final_cover_size=len(cover),
        converged=converged,
        final_cover=tuple(cover.entries()),
    )
