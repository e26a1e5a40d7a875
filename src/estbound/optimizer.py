"""Branch-and-bound global minimization over interval boxes.

The search keeps a cover of the initial box ordered by the lower bound of
each box's objective enclosure. Each iteration takes the front box (the one
with the smallest lower bound), splits it along its widest splittable
dimension, re-evaluates the halves and puts them in its place. The front
enclosure always brackets the global minimum, so the loop may stop at any
iteration with a sound result; it stops normally once the front enclosure
is narrower than the configured tolerance.

The objective is batched: it takes a sequence of boxes and returns one
enclosure per box, in order. A split whose halves are not yet evaluated
also bisects the next LOOKAHEAD - 1 boxes in cover order and hands all the
halves to the objective in one call, so a vectorised objective evaluates
them together; each speculated pair waits in a side table until its box
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

import gc
import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

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

BoxObjective = Callable[[Sequence[IntervalBox]], Sequence[Interval]]

# Front boxes split per objective call: 8 boxes, 16 halves, per call, which
# a vectorised objective (the network's box pass) evaluates faster per box
# than a pair.
LOOKAHEAD = 8


class CannotSplitError(ValueError):
    """No allowed split dimension of a box can be bisected."""


class ObjectiveError(RuntimeError):
    """The objective returned something other than one valid interval per
    box."""


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

    def following(self, count: int) -> list[CoverEntry]:
        """Up to count entries after the front, in cover order: a
        best-first walk of the heap from the root, O(count log count)."""
        heap = self._heap
        out: list[CoverEntry] = []
        # (heap item, heap index); items are unique, so the index never
        # takes part in a comparison.
        frontier = [(heap[i], i) for i in (1, 2) if i < len(heap)]
        heapq.heapify(frontier)
        while frontier and len(out) < count:
            item, i = heapq.heappop(frontier)
            out.append(item[2])
            for child in (2 * i + 1, 2 * i + 2):
                if child < len(heap):
                    heapq.heappush(frontier, (heap[child], child))
        return out

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

    How many splits go to the objective per call is not configured here: it
    is the module's LOOKAHEAD, and it changes no result, only the call
    count.
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


def _splittable(c: Interval) -> bool:
    # Whether IntervalBox.bisect's midpoint lies strictly inside c. It does
    # not when c is degenerate or one ulp wide; then one half equals c.
    return c.lb < 0.5 * (c.lb + c.ub) < c.ub


def select_split_dim(box: IntervalBox, split_dims: Iterable[int]) -> int:
    """Widest splittable dimension among split_dims, lowest index on ties
    whatever the order of split_dims. A dimension is splittable when both
    halves of its bisection are narrower than the box. Raises
    CannotSplitError when no candidate is splittable."""
    comps = box.components
    best_i = -1
    best_w = -1.0
    for i in split_dims:
        w = comps[i].width
        if w > best_w or (w == best_w and i < best_i):
            best_i, best_w = i, w
    if best_i < 0:
        raise ValueError("split_dims must be a non-empty subset of box indices")
    if _splittable(comps[best_i]):
        return best_i
    splittable = [i for i in split_dims if _splittable(comps[i])]
    if not splittable:
        raise CannotSplitError(f"no split dimension of {box!r} can be bisected")
    return select_split_dim(box, splittable)


def _evaluate(
    f: BoxObjective, boxes: tuple[IntervalBox, ...]
) -> list[CoverEntry]:
    enclosures = f(boxes)
    try:
        count = len(enclosures)
    except TypeError:
        count = None
    if count != len(boxes):
        raise ObjectiveError(
            f"objective returned {enclosures!r} for {len(boxes)} boxes, "
            "not one enclosure per box"
        )
    entries = []
    for box, enclosure in zip(boxes, enclosures):
        if not isinstance(enclosure, Interval):
            raise ObjectiveError(
                f"objective returned {enclosure!r} (not an Interval) on {box!r}"
            )
        # Also false for NaN bounds, which would corrupt the cover's heap order.
        if not enclosure.lb <= enclosure.ub:
            raise ObjectiveError(
                f"objective returned the invalid enclosure {enclosure!r} on {box!r}"
            )
        entries.append(CoverEntry(box, enclosure))
    return entries


def _split_ahead(
    f: BoxObjective,
    cover: Cover,
    halves: tuple[IntervalBox, IntervalBox],
    cfg: MsConfig,
    count: int,
    ahead: dict[CoverEntry, list[CoverEntry]],
) -> tuple[list[CoverEntry], int]:
    """Evaluate the front's halves together with those of up to count - 1
    following boxes, storing each following box's pair in ahead. Returns
    the front's evaluated pair and the number of boxes handed to f."""
    boxes = list(halves)
    speculated = []
    for entry in cover.following(count - 1):
        # A box already evaluated, or one that stops the search when it
        # reaches the front, is not split ahead.
        if entry in ahead or entry.enclosure.width <= cfg.delta:
            continue
        try:
            dim = select_split_dim(entry.box, cfg.split_dims)
        except CannotSplitError:
            continue
        speculated.append(entry)
        boxes += entry.box.bisect(dim)
    try:
        entries = _evaluate(f, tuple(boxes))
    except Exception:
        if not speculated:
            raise
        # Raise, if at all, what the front's pair alone raises, at this
        # iteration; a speculated box that fails is retried when it is due.
        return _evaluate(f, halves), len(boxes) + 2
    for i, entry in enumerate(speculated, 1):
        ahead[entry] = entries[2 * i : 2 * i + 2]
    return entries[:2], len(boxes)


def moore_skelboe(f: BoxObjective, b_init: IntervalBox, cfg: MsConfig) -> MsResult:
    """Minimize a box objective over b_init.

    f must be a sound, isotone inclusion function of the objective being
    minimized, batched: f(boxes) takes a sequence of boxes and returns a
    sequence holding one enclosure per box, in the same order. It is called
    with the initial box alone, then with the halves of up to LOOKAHEAD
    front boxes per call.

    The returned enclosure contains the exact global minimum at any
    iteration count; `converged` reports whether the width criterion was
    met.

    The search runs with Python's cyclic garbage collector paused, process
    wide, and restores its state on the way out, also on an exception: the
    cover only grows and holds no reference cycles, so each collection
    pass would walk all of it and free nothing. Reference counting still
    frees whatever the search drops; any cyclic garbage the objective makes
    is collected after the search.

    Before it re-enables the collector, the search moves every object in
    the collector's younger generations to the oldest one (gc.freeze, then
    gc.unfreeze), so the first young collection after it does not walk the
    whole cover. This moves every young object of the process, not only the
    cover, and a full collection still walks them later. It is skipped if
    the process holds frozen objects, which gc.unfreeze would release.
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

    enabled = gc.isenabled()
    gc.disable()
    try:
        return _search(f, b_init, cfg)
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def _search(f: BoxObjective, b_init: IntervalBox, cfg: MsConfig) -> MsResult:
    cover = Cover()
    cover.insert(_evaluate(f, (b_init,))[0])
    iterations = 0
    # The evaluated halves of cover entries split ahead of their turn, and
    # the boxes handed to f.
    ahead: dict[CoverEntry, list[CoverEntry]] = {}
    evaluated = 1

    while True:
        front = cover.peek()
        if front.enclosure.width <= cfg.delta:
            converged = True
            break
        if iterations >= cfg.max_iterations:
            converged = False
            break
        # A box split ahead was splittable then, and splits the same way now.
        pair = ahead.pop(front, None)
        if pair is None:
            try:
                dim = select_split_dim(front.box, cfg.split_dims)
            except CannotSplitError:
                converged = False
                break
            # No more splits than the iteration cap leaves are made ahead.
            count = min(LOOKAHEAD, cfg.max_iterations - iterations)
            pair, n = _split_ahead(f, cover, front.box.bisect(dim), cfg, count, ahead)
            evaluated += n
        left, right = pair
        cover.replace_front(left)
        cover.insert(right)
        iterations += 1

    front = cover.peek()
    return MsResult(
        enclosure=front.enclosure,
        witness=front.box,
        iterations=iterations,
        final_cover_size=len(cover),
        converged=converged,
        evaluated=evaluated,
        cover=cover,
    )
