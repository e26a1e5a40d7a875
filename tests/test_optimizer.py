import dataclasses
import gc
import heapq
import math
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from estbound import optimizer
from estbound.interval import Interval, IntervalBox, _make, iadd, isqr, isub
from estbound.optimizer import (
    Cover,
    CoverEntry,
    MsConfig,
    ObjectiveError,
    moore_skelboe,
)
from estbound.pipeline import load_scenario, run_validate
from conftest import SCENARIO_DIR, bounds_of

ONE = Interval(1.0, 1.0)
MINUS_TWO = Interval(-2.0, -2.0)
TWO = Interval(2.0, 2.0)


def square(box):
    return isqr(box[0])


def paraboloid(box):
    return iadd(isqr(isub(box[0], ONE)), isqr(isub(box[1], MINUS_TWO)))


def quartic(box):
    return isqr(isub(isqr(box[0]), TWO))


def boxes_of(lb, ub):
    """The boxes whose bounds are the rows of lb and ub."""
    return [
        IntervalBox.from_bounds(zip(lows, highs))
        for lows, highs in zip(lb.tolist(), ub.tolist())
    ]


def per_box(f):
    """The objective moore_skelboe takes, from a one-box one: the README's
    adapter."""
    return lambda lb, ub: np.array(
        [(v.lb, v.ub) for v in map(f, boxes_of(lb, ub))]
    ).T


def bits(box):
    return [(c.lb.hex(), c.ub.hex()) for c in box]


class CannotSplitError(ValueError):
    """No allowed split dimension of a box can be bisected."""


def _splittable(c):
    # Whether c's midpoint lies strictly inside it, which IntervalBox.bisect
    # requires. It does not when c is degenerate or one ulp wide, nor when
    # lb + ub overflows.
    return c.lb < 0.5 * (c.lb + c.ub) < c.ub


def select_split_dim(box, split_dims):
    """The search's split rule, one box at a time: the scalar reference
    the array rule (optimizer._split_rule) is checked against.

    Widest splittable dimension among split_dims, lowest index on ties
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


def hex_entry(e):
    return bits(e.box), bits([e.enclosure])


def same(a, b):
    """Whether two cover entries hold the same box and enclosure, bit for
    bit."""
    return hex_entry(a) == hex_entry(b)


class TestCover:
    def make_entry(self, lb, tag=0.0):
        # tag tells entries with equal enclosures apart.
        return CoverEntry(
            IntervalBox.from_bounds([(tag, tag + 1)]), Interval(lb, lb + 1)
        )

    def test_insert_keeps_order(self):
        c = Cover()
        for lb in (1.0, 3.0):
            c.insert(self.make_entry(lb))
        c.insert(self.make_entry(2.0))
        assert [e.enclosure.lb for e in c.entries()] == [1.0, 2.0, 3.0]

    def test_fifo_tie_break(self):
        c = Cover()
        first = self.make_entry(1.0, tag=0.0)
        third = self.make_entry(3.0, tag=1.0)
        c.insert(first)
        c.insert(third)
        dup = self.make_entry(1.0, tag=2.0)
        c.insert(dup)
        entries = c.entries()
        assert same(entries[0], first)
        assert same(entries[1], dup)
        assert same(entries[2], third)
        assert same(c.pop(), first)
        assert same(c.pop(), dup)

    def test_insert_into_empty(self):
        c = Cover()
        e = self.make_entry(5.0)
        c.insert(e)
        assert len(c) == 1 and same(c.pop(), e) and len(c) == 0

    def test_sorted_invariant_random_sweep(self):
        rng = random.Random(3)
        c = Cover()
        for _ in range(200):
            c.insert(self.make_entry(rng.uniform(-10, 10)))
            lbs = [e.enclosure.lb for e in c.entries()]
            assert all(a <= b for a, b in zip(lbs, lbs[1:]))

    def test_entries_keep_insertion_order_within_ties(self):
        rng = random.Random(5)
        c = Cover()
        inserted = [
            self.make_entry(rng.choice((-1.0, 0.0, 2.5)), tag=float(i))
            for i in range(600)
        ]
        for e in inserted:
            c.insert(e)
        expected = sorted(inserted, key=lambda e: e.enclosure.lb)  # stable
        assert [bits(e.box) for e in c.entries()] == [bits(e.box) for e in expected]

    def test_popped_rows_are_reused(self):
        # Pops and inserts interleaved: the rows of popped boxes take new
        # ones, and the cover still lists exactly what is left, in order,
        # bit for bit (-0.0 included).
        rng = random.Random(9)
        c = Cover()
        kept = []
        peak = 0
        for i in range(300):
            if kept and rng.random() < 0.4:
                assert same(c.pop(), kept.pop(0))
            else:
                lb = rng.choice((-0.0, 0.0, 1.0, rng.uniform(-3, 3)))
                e = CoverEntry(
                    IntervalBox.from_bounds([(-0.0, float(i)), (lb, 7.0)]),
                    Interval(lb, 2.0 * abs(lb) + 1.0),
                )
                c.insert(e)
                kept.append(e)
                # Stable: the entries inserted first come first on ties.
                kept.sort(key=lambda e: e.enclosure.lb)
                peak = max(peak, len(kept))
        assert c._end == peak < 200
        assert len(c) == len(kept)
        assert all(map(same, c.entries(), kept))


class TupleHeapCover(Cover):
    """The reference cover order: one heap of (enclosure lower bound,
    insertion sequence, row) tuples, as the cover kept it before runs.
    Rows, bound arrays and entries are Cover's own."""

    def __init__(self):
        super().__init__()
        self.heap = []
        self.seq = 0

    def __len__(self):
        return len(self.heap)

    def _push(self, row):
        heapq.heappush(self.heap, (self._f_lb.item(row), self.seq, row))
        self.seq += 1

    def _pop(self):
        row = heapq.heappop(self.heap)[2]
        self._free.append(row)
        return row

    def rows(self):
        """All rows, in cover order."""
        return [row for _, _, row in sorted(self.heap)]

    def entries(self):
        return list(map(self._entry, self.rows()))


def tuple_heap_search(f, b_init, cfg):
    """moore_skelboe with its cover ordered by the reference tuple heap and
    the boxes split ahead read off the sorted heap: (converged, iterations,
    evaluated, witness, cover)."""
    lb, ub = bounds_of([b_init], b_init.dim)
    lb.flags.writeable = ub.flags.writeable = False
    cover = TupleHeapCover()
    cover._push(*cover._add(lb, ub, *optimizer._evaluate(f, lb, ub)).tolist())
    dims = np.array(sorted(set(cfg.split_dims)))
    ahead = {}
    iterations, evaluated = 0, 1
    while True:
        key, _, row = cover.heap[0]
        if cover._f_ub.item(row) - key <= cfg.delta:
            converged = True
            break
        converged = False
        if iterations >= cfg.max_iterations:
            break
        if row not in ahead:
            budget = cfg.max_iterations - iterations
            order = cover.rows()
            # The front's run: the rows whose lower bound equals the front's.
            run = [r for r in order if cover._f_lb[r] == key]
            if len(run) > optimizer.LOOKAHEAD:
                rows = run[: min(optimizer.TIED_SPLITS, budget)]
            else:
                rows = order[: min(optimizer.LOOKAHEAD, budget)]
            split = optimizer._split_ahead(f, cover, rows, dims, cfg.delta, ahead)
            if split is None:
                break
            n, rows, halves = split
            evaluated += n
            ahead.update(zip(rows, halves.reshape(-1, 2).tolist()))
        left, right = ahead.pop(row)
        cover._pop()
        cover._push(left)
        cover._push(right)
        iterations += 1
    return converged, iterations, evaluated, cover._entry(row).box, cover


def non_isotone(lb, ub):
    """Enclosures whose lower bound rises as boxes shrink, but with a wave
    in the box's midpoint, so a half may get a lower bound below its
    parent's. The lower bounds are multiples of 1/8, 0.0 of either sign,
    or -inf for the widest boxes, so boxes tie within and across runs."""
    mid = 0.5 * (lb + ub)
    width = (ub - lb)[:, :2].max(axis=1)
    wave = 0.3 * np.sin(7.0 * mid[:, 0] + 3.0 * mid[:, 1])
    level = np.floor(8.0 * (wave - 0.15 * np.log2(width)))
    zero = np.copysign(0.0, np.floor(30.0 * mid[:, 0]) % 2.0 - 0.5)
    f_lb = np.where(level == 0.0, zero, level / 8.0)
    f_lb[width > 1.5] = -math.inf
    return f_lb, f_lb + width


def one_box(f):
    """The one-box form of the array objective f, for reference_search."""

    def g(box):
        f_lb, f_ub = f(*bounds_of([box], box.dim))
        return Interval(f_lb.item(), f_ub.item())

    return g


# TIED_SPLITS values the batched search is checked at, beside each
# LOOKAHEAD: with TIED_SPLITS at most LOOKAHEAD, no tied run is split beyond
# LOOKAHEAD, and LOOKAHEAD = TIED_SPLITS = 1 is one split per call.
TIED_CAPS = (1, 7, 512)


# Lower bounds the runs must tell apart or merge: ties, zeros of both
# signs, infinities and one-ulp neighbours.
COVER_KEYS = st.one_of(
    st.sampled_from(
        [
            0.0,
            -0.0,
            1.0,
            math.nextafter(1.0, math.inf),
            math.nextafter(1.0, -math.inf),
            -2.5,
            5e-324,
            -5e-324,
            math.inf,
            -math.inf,
        ]
    ),
    st.floats(allow_nan=False),
)


class TestRunsAgainstTheTupleHeap:
    @staticmethod
    def entry(key, tag):
        return CoverEntry(
            IntervalBox.from_bounds([(tag, tag + 1.0)]), Interval(key, key + 1.0)
        )

    @given(
        st.lists(
            st.one_of(COVER_KEYS, st.just("pop"), st.just("entries")), max_size=150
        )
    )
    @example([0.0, -0.0, 0.0, "pop", -0.0, "entries", "pop", "pop", "pop"])
    @example([1.0, math.inf, -math.inf, math.inf, "pop", -math.inf, "entries"])
    def test_insert_pop_and_entries(self, ops):
        cover, ref = Cover(), TupleHeapCover()
        for tag, op in enumerate(ops):
            if op == "pop":
                if len(ref):
                    assert hex_entry(cover.pop()) == hex_entry(ref.pop())
            elif op == "entries":
                assert list(map(hex_entry, cover.entries())) == list(
                    map(hex_entry, ref.entries())
                )
            else:
                cover.insert(self.entry(op, float(tag)))
                ref.insert(self.entry(op, float(tag)))
            assert len(cover) == len(ref)
        assert list(map(hex_entry, cover.entries())) == list(
            map(hex_entry, ref.entries())
        )

    def test_following_crosses_runs(self):
        rng = random.Random(11)
        cover, ref = Cover(), TupleHeapCover()
        keys = (-1.0, -0.0, 0.0, 0.5, math.nextafter(0.5, 1.0), 2.0, math.inf)
        for tag in range(400):
            key = rng.choice(keys)
            cover.insert(self.entry(key, float(tag)))
            ref.insert(self.entry(key, float(tag)))
            if tag % 3 == 2:
                assert hex_entry(cover.pop()) == hex_entry(ref.pop())
        order = ref.rows()
        assert len(order) == len(cover) > 260
        for count in (0, 1, 5, 40, 150, 260, len(order) - 1, len(order) + 10):
            assert optimizer._following(cover, count) == order[1 : count + 1]

    @pytest.mark.parametrize("lookahead", [1, 5, 32])
    def test_search_with_a_non_isotone_objective(self, monkeypatch, lookahead):
        monkeypatch.setattr(optimizer, "LOOKAHEAD", lookahead)
        b_init = IntervalBox.from_bounds([(0, 1), (0, 2), (-0.5, 0.5)])
        cfg = MsConfig(delta=1e-3, split_dims=(0, 1), max_iterations=700)
        # The plain loop, one split per call.
        _, plain_witness, plain_iterations, plain_converged, plain = reference_search(
            one_box(non_isotone), b_init, cfg
        )
        for tied in TIED_CAPS:
            monkeypatch.setattr(optimizer, "TIED_SPLITS", tied)
            converged, iterations, evaluated, witness, ref = tuple_heap_search(
                non_isotone, b_init, cfg
            )
            seen = []

            def f(lb, ub):
                seen.append((lb, ub, non_isotone(lb, ub)[0]))
                return non_isotone(lb, ub)

            res = moore_skelboe(f, b_init, cfg)
            entries = res.cover.entries()
            assert list(map(hex_entry, entries)) == list(map(hex_entry, ref.entries()))
            assert (res.converged, res.iterations) == (converged, iterations)
            assert res.evaluated == evaluated
            assert bits(res.witness) == bits(witness)
            assert res.final_cover_size == len(entries) == len(ref)
            assert (converged, iterations) == (plain_converged, plain_iterations)
            assert bits(witness) == bits(plain_witness)
            assert list(map(hex_entry, entries)) == [
                hex_entry(CoverEntry(*pair)) for pair in plain
            ]
            # Runs longer than LOOKAHEAD occur, so the tie rule is exercised.
            sizes = [len(lb) for lb, _, _ in seen]
            assert max(sizes) > 2 * lookahead or tied <= lookahead
        # The case is what it claims: some box has a lower bound below that
        # of a box holding it, zeros of both signs and -inf occur, and the
        # final cover holds ties in more than one run.
        lb, ub, keys = (np.concatenate(a) for a in zip(*seen))
        inside = (lb[:, None] >= lb[None]).all(2) & (ub[:, None] <= ub[None]).all(2)
        assert (inside & (keys[:, None] < keys[None])).any()
        assert {k.hex() for k in keys.tolist()} >= {"0x0.0p+0", "-0x0.0p+0", "-inf"}
        final = [e.enclosure.lb for e in entries]
        assert 1 < len(set(final)) < len(final)

    def test_memory_per_box_within_the_tuple_heap(self):
        # Distinct keys are the worst case for runs: one key and one run
        # per box. The Python-heap bytes the cover adds per box, beyond the
        # box and enclosure-upper-bound arrays it kept before runs, are at
        # most what a heap of (lower bound, sequence, row) tuples takes.
        n = 4000
        keys = np.random.default_rng(0).permutation(n) * 0.5 - 7.0
        lb, ub = np.zeros((n, 2)), np.ones((n, 2))

        def traced(build):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = build()
                gc.collect()
                return out, tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        def tuple_heap():
            heap = []
            for seq, (key, row) in enumerate(zip(keys.tolist(), range(n))):
                heapq.heappush(heap, (key, seq, row))
            return heap

        def runs():
            cover = Cover()
            for row in cover._add(lb, ub, keys, keys + 1.0).tolist():
                cover._push(row)
            return cover

        heap, heap_bytes = traced(tuple_heap)
        cover, cover_bytes = traced(runs)
        assert len(cover._keys) == len(heap) == n
        kept_before = cover._lb.nbytes + cover._ub.nbytes + cover._f_ub.nbytes
        assert (cover_bytes - kept_before) / n <= heap_bytes / n


class TestSelectSplitDim:
    def test_widest_among_allowed(self):
        b = IntervalBox.from_bounds([(0, 4), (0, 2), (-0.2, 0.2)])
        assert select_split_dim(b, (0, 1)) == 0

    def test_tie_goes_low(self):
        b = IntervalBox.from_bounds([(0, 2), (0, 2)])
        assert select_split_dim(b, (0, 1)) == 0

    def test_all_degenerate(self):
        b = IntervalBox.from_bounds([(1, 1), (2, 2), (0, 5)])
        with pytest.raises(CannotSplitError):
            select_split_dim(b, (0, 1))

    def test_tie_break(self):
        b = IntervalBox.from_bounds([(0, 1), (0, 3), (0, 3)])
        assert select_split_dim(b, {0, 1, 2}) == 1

    def test_tie_break_ignores_dims_order(self):
        b = IntervalBox.from_bounds([(0, 3), (0, 1), (0, 3), (0, 3)])
        assert select_split_dim(b, [3, 2, 1]) == 2
        assert select_split_dim(b, (3, 0, 3, 2)) == 0

    def test_restricted(self):
        b = IntervalBox.from_bounds([(0, 1), (0, 9)])
        assert select_split_dim(b, {0}) == 0

    def test_one_ulp_component_cannot_be_split(self):
        # Its midpoint rounds to an endpoint: one half would equal the box.
        b = IntervalBox.from_bounds([(1.0, ulps_above(1.0, 1)), (2, 2)])
        with pytest.raises(CannotSplitError):
            select_split_dim(b, (0, 1))

    def test_widest_splittable_wins(self):
        # [1e16, 1e16 + 2] is one ulp wide and the widest candidate.
        b = IntervalBox.from_bounds([(0, 1), (1e16, 1e16 + 2), (5, 6), (0, 0.5)])
        assert b[1].width == 2.0
        assert select_split_dim(b, (3, 2, 1, 0)) == 0
        assert select_split_dim(b, (1, 3)) == 3

    def test_empty_dims_rejected(self):
        b = IntervalBox.from_bounds([(0, 1)])
        with pytest.raises(ValueError):
            select_split_dim(b, set())


# Components the split rule must tell apart: ties, zero width, one ulp,
# sums that overflow, signed zeros and infinite bounds.
SPLIT_COMPONENTS = st.one_of(
    st.sampled_from(
        [
            (0.0, 2.0),
            (-1.0, 1.0),
            (3.0, 5.0),
            (-0.0, 0.0),
            (2.0, 2.0),
            (1.0, math.nextafter(1.0, math.inf)),
            (1e16, 1e16 + 2),
            (1e308, 1.5e308),
            (-1.7e308, -1e308),
            (-1e308, 1e308),
            (-math.inf, 0.0),
            (0.0, math.inf),
            (5e-324, 1e-323),
        ]
    ),
    st.tuples(
        st.floats(-1e3, 1e3, allow_subnormal=True), st.floats(0.0, 4.0)
    ).map(lambda p: (p[0], p[0] + p[1])),
)


def array_rule(boxes, split_dims):
    """optimizer._split_rule on a batch of boxes, as select_split_dim
    answers for each: the dim, or None for unsplittable."""
    lb, ub = bounds_of(boxes, boxes[0].dim)
    dims = np.array(sorted(set(split_dims)))
    dim, mid, ok = optimizer._split_rule(lb, ub, dims)
    return [d if o else None for d, o in zip(dim.tolist(), ok.tolist())], mid


def scalar_rule(box, split_dims):
    try:
        return select_split_dim(box, split_dims)
    except CannotSplitError:
        return None


class TestArraySplitRule:
    @given(
        st.lists(
            st.lists(SPLIT_COMPONENTS, min_size=4, max_size=4), min_size=1, max_size=6
        ),
        st.lists(st.integers(0, 3), min_size=1, max_size=6),
    )
    @example([[(0.0, 2.0)] * 4], [3, 1, 1, 2])
    @example([[(1e308, 1.5e308), (0.0, 1.0), (2.0, 2.0), (-0.0, 0.0)]], [0, 2, 3])
    def test_same_dim_as_the_scalar_rule(self, rows, split_dims):
        # Unsorted split_dims with repeats; the whole batch in one pass.
        boxes = [IntervalBox.from_bounds(row) for row in rows]
        dims, mid = array_rule(boxes, split_dims)
        assert dims == [scalar_rule(box, split_dims) for box in boxes]
        for box, d, m in zip(boxes, dims, mid.tolist()):
            if d is not None:
                left, right = box.bisect(d)
                assert m.hex() == left[d].ub.hex() == right[d].lb.hex()

    def test_cases_of_the_scalar_tests(self):
        cases = [
            ([(0, 4), (0, 2), (-0.2, 0.2)], (0, 1), 0),
            ([(0, 2), (0, 2)], (0, 1), 0),
            ([(1, 1), (2, 2), (0, 5)], (0, 1), None),
            ([(0, 1), (0, 3), (0, 3)], {0, 1, 2}, 1),
            ([(0, 3), (0, 1), (0, 3), (0, 3)], [3, 2, 1], 2),
            ([(0, 3), (0, 1), (0, 3), (0, 3)], (3, 0, 3, 2), 0),
            ([(1.0, math.nextafter(1.0, 2.0)), (2, 2)], (0, 1), None),
            ([(0, 1), (1e16, 1e16 + 2), (5, 6), (0, 0.5)], (3, 2, 1, 0), 0),
            ([(0, 1), (1e16, 1e16 + 2), (5, 6), (0, 0.5)], (1, 3), 3),
            ([(1e308, 1.6e308), (0, 1)], (0, 1), 1),
        ]
        for bounds, split_dims, expected in cases:
            box = IntervalBox.from_bounds(bounds)
            assert scalar_rule(box, split_dims) == expected
            assert array_rule([box], sorted(split_dims))[0] == [expected]


class TestConfig:
    def test_bad_delta(self):
        for delta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(
                ValueError, match="^ms 'delta' must be positive and finite, got"
            ):
                MsConfig(delta=delta, split_dims=(0,))
        with pytest.raises(
            ValueError, match="^ms 'max_iterations' must be non-negative, got -5$"
        ):
            MsConfig(delta=1.0, split_dims=(0,), max_iterations=-5)

    def test_empty_split_dims(self):
        with pytest.raises(ValueError):
            MsConfig(delta=1.0, split_dims=())

    def test_degenerate_initial_split_dim(self):
        cfg = MsConfig(delta=1e-3, split_dims=(0,))
        with pytest.raises(ValueError, match="zero initial width"):
            moore_skelboe(per_box(square), IntervalBox.from_bounds([(2, 2)]), cfg)

    def test_split_dim_out_of_range(self):
        cfg = MsConfig(delta=1e-3, split_dims=(1,))
        with pytest.raises(ValueError, match="out of range"):
            moore_skelboe(per_box(square), IntervalBox.from_bounds([(0, 1)]), cfg)


class TestMooreSkelboe:
    def test_square_on_asymmetric_interval(self):
        res = moore_skelboe(
            per_box(square),
            IntervalBox.from_bounds([(-5, 4)]),
            MsConfig(delta=1e-9, split_dims=(0,)),
        )
        assert res.converged
        assert res.enclosure.lb <= 0.0 <= res.enclosure.ub
        assert res.enclosure.width <= 1e-9
        # witness contains or abuts the minimizer 0
        w = res.witness[0]
        assert w.lb <= 1e-4 and w.ub >= -1e-4

    def test_shifted_paraboloid(self):
        res = moore_skelboe(
            per_box(paraboloid),
            IntervalBox.from_bounds([(-5, 5), (-5, 5)]),
            MsConfig(delta=1e-9, split_dims=(0, 1)),
        )
        assert res.converged
        assert res.enclosure.lb <= 0.0 <= res.enclosure.ub
        assert res.enclosure.width <= 1e-9
        mx, my = res.witness.midpoint()
        assert abs(mx - 1.0) <= 1e-3 and abs(my + 2.0) <= 1e-3

    def test_quartic_minimizer_at_sqrt2(self):
        # independent oracle: dense scan of the point objective
        ts = np.linspace(0.0, 2.0, 10**6)
        vals = (ts * ts - 2.0) ** 2
        scan_min = float(vals.min())
        scan_arg = float(ts[int(vals.argmin())])
        assert abs(scan_arg - math.sqrt(2)) <= 1e-5

        res = moore_skelboe(
            per_box(quartic),
            IntervalBox.from_bounds([(0, 2)]),
            MsConfig(delta=1e-9, split_dims=(0,)),
        )
        assert res.converged
        assert res.enclosure.lb <= 0.0 <= res.enclosure.ub
        assert res.enclosure.lb <= scan_min
        w = res.witness[0]
        dist = max(w.lb - math.sqrt(2), math.sqrt(2) - w.ub, 0.0)
        assert dist <= 1e-4

    def test_lower_bound_sound_at_every_iteration(self):
        rng = random.Random(11)
        points = [rng.uniform(-5, 4) for _ in range(1000)]
        exact_min_sample = min(p * p for p in points)

        def run(cap):
            return moore_skelboe(
                per_box(square),
                IntervalBox.from_bounds([(-5, 4)]),
                MsConfig(delta=1e-9, split_dims=(0,), max_iterations=cap),
            )

        # Runs are deterministic, so the run capped at k splits ends on the
        # front that the uncapped run has after its split k.
        res = run(1_000_000)
        front_lbs = []
        for cap in range(1, res.iterations + 1):
            capped = run(cap)
            assert capped.iterations == cap
            assert capped.final_cover_size == cap + 1  # nothing is ever discarded
            front_lbs.append(capped.enclosure.lb)
        assert len(front_lbs) == res.iterations
        assert all(lb <= exact_min_sample for lb in front_lbs)

    def test_delta_wider_than_range_stops_immediately(self):
        res = moore_skelboe(
            per_box(square),
            IntervalBox.from_bounds([(-5, 4)]),
            MsConfig(delta=100.0, split_dims=(0,)),
        )
        assert res.converged and res.iterations == 0
        assert res.final_cover_size == 1

    def test_iteration_cap_keeps_sound_enclosure(self):
        res = moore_skelboe(
            per_box(square),
            IntervalBox.from_bounds([(-5, 4)]),
            MsConfig(delta=1e-12, split_dims=(0,), max_iterations=5),
        )
        assert not res.converged
        assert res.iterations == 5
        assert res.enclosure.lb <= 0.0 <= res.enclosure.ub

    def test_non_split_dims_bit_identical(self):
        b = IntervalBox.from_bounds([(-5, 5), (-5, 5), (-0.3, 0.3)])

        def f(box):
            return iadd(paraboloid(box), isqr(box[2]))

        res = moore_skelboe(per_box(f), b, MsConfig(delta=1e-6, split_dims=(0, 1)))
        assert bits(res.witness[2:]) == bits(b[2:])
        for entry in res.cover.entries():
            assert bits(entry.box[2:]) == bits(b[2:])

    def test_determinism(self):
        def run():
            return moore_skelboe(
                per_box(paraboloid),
                IntervalBox.from_bounds([(-5, 5), (-5, 5)]),
                MsConfig(delta=1e-9, split_dims=(0, 1)),
            )

        a, b = run(), run()
        assert a.enclosure == b.enclosure
        assert a.witness == b.witness
        assert a.iterations == b.iterations
        assert a.final_cover_size == b.final_cover_size

    def test_invalid_objective_aborts_with_diagnostic(self):
        # Not two (k,) float64 arrays: lists, one array, integer or
        # (k, 1) arrays, an Interval.
        bad_objectives = [
            lambda lb, ub: (lb[:, 0].tolist(), ub[:, 0].tolist()),
            lambda lb, ub: lb[:, 0],
            lambda lb, ub: (lb[:, 0].astype(int), ub[:, 0].astype(int)),
            lambda lb, ub: (lb, ub),
            lambda lb, ub: Interval(0.0, 1.0),
            lambda lb, ub: None,
        ]
        for bad in bad_objectives:
            with pytest.raises(ObjectiveError, match="one enclosure per box") as info:
                moore_skelboe(
                    bad,
                    IntervalBox.from_bounds([(0, 1)]),
                    MsConfig(delta=1e-3, split_dims=(0,)),
                )
            assert "Box([0.0, 1.0])" in str(info.value)

    def test_nan_enclosure_aborts_with_diagnostic(self):
        # Unchecked construction, as a faulty model could build it.
        def nan_objective(box):
            return _make(math.nan, math.nan)

        with pytest.raises(ObjectiveError, match="invalid enclosure") as info:
            moore_skelboe(
                per_box(nan_objective),
                IntervalBox.from_bounds([(0, 1)]),
                MsConfig(delta=1e-3, split_dims=(0,)),
            )
        assert str(info.value).endswith("on Box([0.0, 1.0])")

    @pytest.mark.parametrize("at", [0, 1])
    def test_reversed_enclosure_aborts_with_diagnostic(self, at):
        # The first call has the initial box, the second the halves of the
        # first split; the right half gets a reversed enclosure there.
        calls = []

        def reversed_once(lb, ub):
            f_lb, f_ub = per_box(square)(lb, ub)
            if len(calls) == at:
                f_lb, f_ub = f_lb.copy(), f_ub.copy()
                f_lb[-1], f_ub[-1] = 2.0, 1.0
            calls.append(len(lb))
            return f_lb, f_ub

        with pytest.raises(ObjectiveError) as info:
            moore_skelboe(
                reversed_once,
                IntervalBox.from_bounds([(-5, 4)]),
                MsConfig(delta=1e-3, split_dims=(0,)),
            )
        box = ["Box([-5.0, 4.0])", "Box([-0.5, 4.0])"][at]
        assert str(info.value) == (
            f"objective returned the invalid enclosure [2.0, 1.0] on {box}"
        )

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_enclosure_count_aborts_with_diagnostic(self, extra):
        # The initial box comes alone, the halves of the first split
        # together; the answer to the halves is one enclosure short or long.
        calls = []

        def miscounting(lb, ub):
            calls.append(len(lb))
            f_lb, f_ub = per_box(square)(lb, ub)
            if len(calls) == 2:
                if extra < 0:
                    return f_lb[:-1], f_ub[:-1]
                return np.append(f_lb, f_lb[:1]), np.append(f_ub, f_ub[:1])
            return f_lb, f_ub

        with pytest.raises(ObjectiveError, match="one enclosure per box") as info:
            moore_skelboe(
                miscounting,
                IntervalBox.from_bounds([(-5, 4)]),
                MsConfig(delta=1e-3, split_dims=(0,)),
            )
        assert calls == [1, 2]
        assert "for 2 boxes, the first Box([-5.0, -0.5])" in str(info.value)

    def test_unbatched_enclosure_aborts_with_diagnostic(self):
        with pytest.raises(ObjectiveError, match="one enclosure per box"):
            moore_skelboe(
                lambda lb, ub: square(boxes_of(lb, ub)[0]),
                IntervalBox.from_bounds([(-5, 4)]),
                MsConfig(delta=1e-3, split_dims=(0,)),
            )

    def test_final_cover_is_sorted_and_complete(self):
        res = moore_skelboe(
            per_box(square),
            IntervalBox.from_bounds([(-5, 4)]),
            MsConfig(delta=1e-6, split_dims=(0,)),
        )
        cover = res.cover.entries()
        lbs = [e.enclosure.lb for e in cover]
        assert lbs == sorted(lbs)
        assert len(cover) == res.final_cover_size
        # the split-dim projections tile the initial interval
        pieces = sorted((e.box[0].lb, e.box[0].ub) for e in cover)
        assert pieces[0][0] == -5.0 and pieces[-1][1] == 4.0
        for (_, ub), (lb2, _) in zip(pieces, pieces[1:]):
            assert ub == lb2

    def test_equal_lower_bounds_split_and_report_in_insertion_order(self):
        # Every box has the same enclosure, so the front is always the oldest
        # box: the search is a breadth-first bisection, and the final cover
        # lists the boxes in the order they were made.
        b_init = IntervalBox.from_bounds([(0, 1), (0, 4)])
        res = moore_skelboe(
            per_box(lambda box: Interval(0.0, 1.0)),
            b_init,
            MsConfig(delta=0.5, split_dims=(1, 0), max_iterations=400),
        )
        queue = deque([b_init])
        for _ in range(400):
            front = queue.popleft()
            widest = max(range(front.dim), key=lambda i: (front[i].width, -i))
            queue.extend(front.bisect(widest))
        assert not res.converged
        assert [e.box for e in res.cover.entries()] == list(queue)
        assert res.witness == queue[0]


def reference_search(f, b_init, cfg):
    """The plain Moore-Skelboe loop, one split per call of the one-box
    objective f: (enclosure, witness, iterations, converged, cover), the
    cover as (box, enclosure) pairs in cover order."""
    heap = [(f(b_init).lb, 0, b_init, f(b_init))]
    seq = 1
    iterations = 0
    while True:
        _, _, box, enclosure = heap[0]
        if enclosure.width <= cfg.delta:
            converged = True
            break
        if iterations >= cfg.max_iterations:
            converged = False
            break
        try:
            dim = select_split_dim(box, cfg.split_dims)
        except CannotSplitError:
            converged = False
            break
        left, right = box.bisect(dim)
        fl, fr = f(left), f(right)
        heapq.heapreplace(heap, (fl.lb, seq, left, fl))
        heapq.heappush(heap, (fr.lb, seq + 1, right, fr))
        seq += 2
        iterations += 1
    _, _, box, enclosure = heap[0]
    cover = [(b, e) for _, _, b, e in sorted(heap, key=lambda item: item[:2])]
    return enclosure, box, iterations, converged, cover


def recording(f):
    """The array form of the one-box objective f, and the list of every
    batch of boxes it is handed."""
    batches = []

    def batched(lb, ub):
        batches.append(boxes_of(lb, ub))
        return per_box(f)(lb, ub)

    return batched, batches


def ulps_above(x, n):
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


def leftmost_lowest(box):
    # The leftmost box has the lowest bound, so the front shrinks to the
    # left end 1.0. There [1, 1 + ulp] has the midpoint 1.0 (the sum
    # 2 + ulp lies halfway between two floats and rounds to even, 2.0), so
    # it cannot be split.
    return Interval(box[0].lb, box[0].lb + 2.0)


def rightmost_lowest(box):
    # The rightmost box has the lowest bound, so the front shrinks to the
    # right end 1 + 37 ulp. There [1 + 36 ulp, 1 + 37 ulp] has the midpoint
    # 1 + 36 ulp (rounded to even), so bisecting it would give a right half
    # equal to the box, the front again.
    return Interval(-box[0].ub, 2.0 - box[0].lb)


# (objective, initial box, search config), covering each stop
# rule: width, iteration cap (0, 1 and more) and unsplittable front.
LOOKAHEAD_CASES = {
    "fifo_ties": (
        lambda box: Interval(0.0, 1.0),
        IntervalBox.from_bounds([(0, 1), (0, 4)]),
        dict(delta=0.5, split_dims=(1, 0), max_iterations=150),
    ),
    "unsplittable_front": (
        leftmost_lowest,
        IntervalBox.from_bounds([(1.0, ulps_above(1.0, 37))]),
        dict(delta=1e-3, split_dims=(0,)),
    ),
    "one_ulp_front": (
        rightmost_lowest,
        IntervalBox.from_bounds([(1.0, ulps_above(1.0, 37))]),
        dict(delta=1e-3, split_dims=(0,), max_iterations=1000),
    ),
    "delta_stop_square": (
        square,
        IntervalBox.from_bounds([(-5, 4)]),
        dict(delta=1e-6, split_dims=(0,)),
    ),
    "delta_stop_paraboloid": (
        paraboloid,
        IntervalBox.from_bounds([(-5, 5), (-5, 5)]),
        dict(delta=1e-4, split_dims=(0, 1)),
    ),
    "cap_quartic": (
        quartic,
        IntervalBox.from_bounds([(0, 2), (-1, 3)]),
        dict(delta=1e-12, split_dims=(0, 1), max_iterations=300),
    ),
    "cap_0": (
        paraboloid,
        IntervalBox.from_bounds([(-5, 5), (-5, 5)]),
        dict(delta=1e-9, split_dims=(0, 1), max_iterations=0),
    ),
    "cap_1": (
        paraboloid,
        IntervalBox.from_bounds([(-5, 5), (-5, 5)]),
        dict(delta=1e-9, split_dims=(0, 1), max_iterations=1),
    ),
}


class TestLookahead:
    @pytest.mark.parametrize("case", sorted(LOOKAHEAD_CASES))
    @pytest.mark.parametrize("lookahead", [1, 2, 8, 32])
    def test_same_result_as_the_plain_loop(self, monkeypatch, case, lookahead):
        f, b_init, kwargs = LOOKAHEAD_CASES[case]
        enclosure, witness, iterations, converged, cover = reference_search(
            f, b_init, MsConfig(**kwargs)
        )
        monkeypatch.setattr(optimizer, "LOOKAHEAD", lookahead)
        for tied in (lookahead, *TIED_CAPS):
            monkeypatch.setattr(optimizer, "TIED_SPLITS", tied)
            batched, batches = recording(f)
            res = moore_skelboe(batched, b_init, MsConfig(**kwargs))
            assert res.enclosure == enclosure
            assert res.witness == witness
            assert res.iterations == iterations
            assert res.converged == converged
            assert [(e.box, e.enclosure) for e in res.cover.entries()] == cover
            assert res.final_cover_size == len(cover)
            assert res.evaluated == sum(len(batch) for batch in batches)
            if lookahead == tied == 1:
                assert [len(batch) for batch in batches] == [1] + [2] * iterations
            # Each batch holds the halves of at most lookahead splits, or
            # of at most tied splits of one run.
            most = max(lookahead, tied)
            assert all(len(batch) <= 2 * most for batch in batches[1:])

    def test_cases_reach_their_stop_rule(self):
        stops = {}
        for case, (f, b_init, kwargs) in LOOKAHEAD_CASES.items():
            cfg = MsConfig(**kwargs)
            _, witness, iterations, converged, _ = reference_search(f, b_init, cfg)
            if converged:
                stops[case] = "width"
            elif iterations == cfg.max_iterations:
                stops[case] = "cap"
            else:
                with pytest.raises(CannotSplitError):
                    select_split_dim(witness, cfg.split_dims)
                stops[case] = "unsplittable"
        assert stops == {
            "fifo_ties": "cap",
            "unsplittable_front": "unsplittable",
            "one_ulp_front": "unsplittable",
            "delta_stop_square": "width",
            "delta_stop_paraboloid": "width",
            "cap_quartic": "cap",
            "cap_0": "cap",
            "cap_1": "cap",
        }
        # The search says why it stopped.
        reasons = {
            "width": "width",
            "cap": "iteration cap",
            "unsplittable": "unsplittable front",
        }
        for case, (f, b_init, kwargs) in LOOKAHEAD_CASES.items():
            res = moore_skelboe(per_box(f), b_init, MsConfig(**kwargs))
            assert res.stop_reason == reasons[stops[case]]
            assert res.converged == (res.stop_reason == "width")

    @pytest.mark.parametrize("case", sorted(LOOKAHEAD_CASES))
    def test_each_box_is_evaluated_at_most_once(self, monkeypatch, case):
        f, b_init, kwargs = LOOKAHEAD_CASES[case]
        monkeypatch.setattr(optimizer, "LOOKAHEAD", 8)
        batched, batches = recording(f)
        res = moore_skelboe(batched, b_init, MsConfig(**kwargs))
        # Not split twice either: no box has the bounds of another.
        boxes = [box for batch in batches for box in batch]
        bounds = [tuple((c.lb, c.ub) for c in box) for box in boxes]
        assert len(bounds) == len(set(bounds)) == res.evaluated

    def test_splits_ahead_in_batches(self, monkeypatch):
        # Breadth-first ties: every box after the front is due in order, so
        # every speculated pair is used and the calls shrink over fourfold.
        f, b_init, kwargs = LOOKAHEAD_CASES["fifo_ties"]
        monkeypatch.setattr(optimizer, "LOOKAHEAD", 8)
        batched, batches = recording(f)
        res = moore_skelboe(batched, b_init, MsConfig(**kwargs))
        assert res.evaluated == 1 + 2 * res.iterations
        assert len(batches) < 1 + res.iterations // 4

    @pytest.mark.parametrize("lookahead, tied", [(1, 16), (2, 16), (8, 64), (32, 512)])
    def test_tied_run_is_split_in_batches_up_to_the_cap(
        self, monkeypatch, lookahead, tied
    ):
        # Every box ties, so the front's run is the whole cover, and every
        # box split ahead is used. A batch splits the whole cover, up to
        # TIED_SPLITS boxes and the splits the iteration cap leaves.
        f, b_init, kwargs = LOOKAHEAD_CASES["fifo_ties"]
        monkeypatch.setattr(optimizer, "LOOKAHEAD", lookahead)
        monkeypatch.setattr(optimizer, "TIED_SPLITS", tied)
        batched, batches = recording(f)
        res = moore_skelboe(batched, b_init, MsConfig(**kwargs))
        assert res.evaluated == 1 + 2 * res.iterations
        expected, done = [1], 0
        while done < res.iterations:
            k = min(tied, 1 + done, res.iterations - done)
            expected.append(2 * k)
            done += k
        assert [len(batch) for batch in batches] == expected
        # The calls shrink with the cap: the cover doubles until it holds
        # TIED_SPLITS boxes, then each call splits that many.
        assert len(batches) <= 2 + math.log2(tied) + res.iterations / tied

    @pytest.mark.parametrize("lookahead", [1, 4, 32])
    def test_distinct_keys_split_up_to_lookahead(self, monkeypatch, lookahead):
        # Wider boxes first, then the leftmost: the search is breadth first,
        # as on ties, but no two boxes share a lower bound. So every run
        # holds one box, and no batch holds more than LOOKAHEAD splits.
        def wide_then_left(box):
            return Interval(1e-3 * box[0].lb - box[0].width, 100.0)

        b_init = IntervalBox.from_bounds([(0, 8)])
        cfg = MsConfig(delta=1e-6, split_dims=(0,), max_iterations=400)
        _, witness, iterations, converged, cover = reference_search(
            wide_then_left, b_init, cfg
        )
        monkeypatch.setattr(optimizer, "LOOKAHEAD", lookahead)
        batched, batches = recording(wide_then_left)
        res = moore_skelboe(batched, b_init, cfg)
        assert (res.iterations, res.converged, res.witness) == (
            iterations, converged, witness
        )
        assert [(e.box, e.enclosure) for e in res.cover.entries()] == cover
        keys = [e.enclosure.lb for e in res.cover.entries()]
        assert len(set(keys)) == len(keys) == 401
        assert res.evaluated == 1 + 2 * res.iterations
        assert max(map(len, batches)) == 2 * lookahead

    @pytest.mark.parametrize("lookahead", [2, 8])
    def test_batch_ends_before_a_box_that_stops_the_search(
        self, monkeypatch, lookahead
    ):
        # Every box ties, so the search is breadth first, and only boxes at
        # the left end get narrower enclosures. The first of them narrow
        # enough stops the search when it reaches the front, so the boxes
        # made after it are never split: no batch splits them ahead.
        def narrow_at_left_end(box):
            return Interval(0.0, box[0].width if box[0].lb == 0.0 else 1.0)

        b_init = IntervalBox.from_bounds([(0, 8)])
        cfg = MsConfig(delta=0.5, split_dims=(0,))
        _, witness, iterations, converged, cover = reference_search(
            narrow_at_left_end, b_init, cfg
        )
        assert (converged, iterations, witness[0]) == (True, 15, Interval(0.0, 0.5))
        monkeypatch.setattr(optimizer, "LOOKAHEAD", lookahead)
        for tied in TIED_CAPS:
            monkeypatch.setattr(optimizer, "TIED_SPLITS", tied)
            batched, batches = recording(narrow_at_left_end)
            res = moore_skelboe(batched, b_init, cfg)
            assert (res.stop_reason, res.iterations, res.witness) == (
                "width", iterations, witness
            )
            assert [(e.box, e.enclosure) for e in res.cover.entries()] == cover
            assert res.evaluated == 1 + 2 * iterations

    @pytest.mark.parametrize("stop", ["unsplittable", "narrow"])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_split_ahead_ends_before_the_first_box_that_stops(self, stop, at):
        # Four rows in cover order. The one at `at` cannot be split, or is
        # narrow enough to stop the search; the rows after it are wide and
        # splittable, but the search stops before it reaches them.
        cover = Cover()
        lb = np.array([[0.0], [2.0], [4.0], [6.0]])
        ub = lb + 1.0
        f_ub = np.ones(4)
        if stop == "unsplittable":
            lb[at], ub[at] = 1.0, math.nextafter(1.0, 2.0)
        else:
            f_ub[at] = 0.25
        rows = cover._add(lb, ub, np.zeros(4), f_ub).tolist()
        batched, batches = recording(lambda box: Interval(0.0, 1.0))
        split = optimizer._split_ahead(batched, cover, rows, np.array([0]), 0.5, {})
        if at == 0:
            assert (split, batches) == (None, [])
            return
        n, done, halves = split
        assert n == 2 * at
        assert [len(batch) for batch in batches] == [2 * at]
        assert done == rows[:at]
        # The halves are new rows holding the boxes handed to f, in order.
        assert not set(halves.tolist()) & set(rows)
        halves_bounds = [(box[0].lb, box[0].ub) for box in batches[0]]
        assert halves_bounds == [
            (lo, lo + 0.5) for i in range(at) for lo in (2.0 * i, 2.0 * i + 0.5)
        ]
        assert list(zip(cover._lb[halves, 0], cover._ub[halves, 0])) == halves_bounds

    def test_no_split_ahead_past_the_cap(self, monkeypatch):
        f, b_init, kwargs = LOOKAHEAD_CASES["fifo_ties"]
        monkeypatch.setattr(optimizer, "LOOKAHEAD", 8)
        for cap in range(0, 12):
            batched, batches = recording(f)
            cfg = MsConfig(**dict(kwargs, max_iterations=cap))
            res = moore_skelboe(batched, b_init, cfg)
            assert res.iterations == cap
            assert res.evaluated == 1 + 2 * cap


def below_four(lb, ub):
    # Boxes left of 4 tie on 0.0, the others on 1.0.
    return np.where(lb[:, 0] >= 4.0, 1.0, 0.0), np.full(len(lb), 2.0)


def narrow_at_four(lb, ub):
    # Every box ties, and the boxes starting at 4 get narrower enclosures:
    # [4, 4.5] is narrow enough to stop the search at delta 0.5.
    width = (ub - lb)[:, 0]
    return np.zeros(len(lb)), np.where(lb[:, 0] == 4.0, np.minimum(width, 1.0), 1.0)


def zero_by_depth(sign):
    # Every box ties on a zero whose sign flips from one bisection depth to
    # the next. The halves of the initial box [0, 8] get the sign of sign,
    # and so does the key of the run they start, which lasts.
    def f(lb, ub):
        depth = np.log2((ub - lb)[:, 0])
        return np.copysign(0.0, sign * (0.5 - depth % 2.0)), np.ones(len(lb))

    return f


# (array objective, initial box, search config, LOOKAHEAD, whether it is
# isotone, what a batch of the case looks like in batch_log's records).
RETIRE_CASES = {
    # Each run of equal widths is split whole; every half goes to the run
    # of the next width, which the batch starts. Halves above the key are
    # pushed one split at a time.
    "run_emptied_into_a_new_run": (
        lambda lb, ub: (-(ub - lb)[:, 0], np.ones(len(lb))),
        IntervalBox.from_bounds([(0, 8)]),
        dict(delta=1e-3, split_dims=(0,), max_iterations=300),
        1,
        True,
        lambda b: b["tied"] and not b["ahead"] and b["emptied"]
        and b["halves"] == {"above"} and not b["retired"],
    ),
    # Every box ties: a batch of a whole run of 2, 4, ... boxes leaves
    # their halves as the run.
    "run_emptied_into_its_halves": (
        lambda lb, ub: (np.zeros(len(lb)), np.ones(len(lb))),
        IntervalBox.from_bounds([(0, 8)]),
        dict(delta=1e-3, split_dims=(0,), max_iterations=300),
        1,
        True,
        lambda b: b["retired"] and b["emptied"] and b["halves"] == {"at"},
    ),
    "mixed_halves": (
        lambda lb, ub: (np.floor(4.0 * lb[:, 0]) / 4.0, np.full(len(lb), 10.0)),
        IntervalBox.from_bounds([(0, 1), (0, 1)]),
        dict(delta=1e-3, split_dims=(0, 1), max_iterations=400),
        1,
        True,
        lambda b: b["tied"] and not b["ahead"] and b["halves"] == {"at", "above"}
        and not b["retired"],
    ),
    "halves_at_minus_zero_on_a_plus_zero_run": (
        zero_by_depth(1.0),
        IntervalBox.from_bounds([(0, 8)]),
        dict(delta=1e-3, split_dims=(0,), max_iterations=300),
        1,
        True,
        lambda b: b["retired"] and b["key"] == "0x0.0p+0" and b["zeros"] == {"-"},
    ),
    "halves_at_plus_zero_on_a_minus_zero_run": (
        zero_by_depth(-1.0),
        IntervalBox.from_bounds([(0, 8)]),
        dict(delta=1e-3, split_dims=(0,), max_iterations=300),
        1,
        True,
        lambda b: b["retired"] and b["key"] == "-0x0.0p+0" and b["zeros"] == {"+"},
    ),
    # Runs of 1, 2, 4, ... 64 boxes: 63 splits, then 37 of the run of 64.
    "cut_by_the_iteration_cap": (
        lambda lb, ub: (np.zeros(len(lb)), np.ones(len(lb))),
        IntervalBox.from_bounds([(0, 8)]),
        dict(delta=0.5, split_dims=(0,), max_iterations=100),
        1,
        True,
        lambda b: b["retired"] and not b["emptied"] and b["rows"] == 37,
    ),
    # [4, 4.5] is the ninth box of the run of 16 boxes 0.5 wide.
    "cut_by_a_narrow_box": (
        narrow_at_four,
        IntervalBox.from_bounds([(0, 8)]),
        dict(delta=0.5, split_dims=(0,)),
        1,
        True,
        lambda b: b["retired"] and not b["emptied"] and b["rows"] == 8,
    ),
    # [4, 8] is split ahead with [0, 4] and never reached: ahead holds it
    # when the run of 0.0 outgrows LOOKAHEAD. It heads the run of 1.0, so
    # the batch from the run of 0.0 is retired all the same.
    "entered_with_rows_ahead": (
        below_four,
        IntervalBox.from_bounds([(0, 8)]),
        dict(delta=1e-3, split_dims=(0,), max_iterations=200),
        4,
        True,
        lambda b: b["tied"] and b["ahead"] and b["retired"],
    ),
    "a_half_below_the_key": (
        non_isotone,
        IntervalBox.from_bounds([(0, 1), (0, 2), (-0.5, 0.5)]),
        dict(delta=1e-3, split_dims=(0, 1), max_iterations=700),
        1,
        False,
        lambda b: b["tied"] and not b["ahead"] and "below" in b["halves"]
        and not b["retired"],
    ),
}


def batch_log(monkeypatch):
    """Records each batch the search splits: whether it was split from the
    front's run alone (more than LOOKAHEAD rows), whether rows were split
    ahead before it, the rows split, whether they took the last row of the
    front's run, the run's key, the signs of the zero lower bounds among
    the halves, how the halves' lower bounds compare to the key, and
    whether the cover retired the batch in one step."""
    log = []
    split_ahead, retire = optimizer._split_ahead, Cover._retire

    def split_spy(f, cover, rows, dims, delta, ahead):
        tied, had_ahead = len(rows) > optimizer.LOOKAHEAD, bool(ahead)
        key = cover._keys[0]
        last = cover._runs[key]
        split = split_ahead(f, cover, rows, dims, delta, ahead)
        if split is not None:
            _, done, halves = split
            keys = cover._f_lb[halves]
            log.append(
                {
                    "tied": tied,
                    "ahead": had_ahead,
                    "rows": len(done),
                    "emptied": last in done,
                    "key": key.hex(),
                    "zeros": set(np.where(np.signbit(keys[keys == 0.0]), "-", "+")),
                    "halves": {
                        name
                        for name, hit in (
                            ("below", keys < key),
                            ("at", keys == key),
                            ("above", keys > key),
                        )
                        if hit.any()
                    },
                    "retired": False,
                }
            )
        return split

    def retire_spy(cover, rows, halves):
        log[-1]["retired"] = True
        retire(cover, rows, halves)

    monkeypatch.setattr(optimizer, "_split_ahead", split_spy)
    monkeypatch.setattr(Cover, "_retire", retire_spy)
    return log


class TestTiedRetire:
    """A batch split from the front's run alone leaves the cover in one
    step (Cover._retire) when every half's lower bound equals the run's
    key, whether or not boxes of other runs wait split ahead. Each case is checked against
    the same search at TIED_SPLITS = 1, which splits no batch from a run
    alone, and against tuple_heap_search, which uses the same batches one
    split at a time."""

    @pytest.mark.parametrize("case", sorted(RETIRE_CASES))
    def test_same_search_as_one_split_at_a_time(self, monkeypatch, case):
        f, b_init, kwargs, lookahead, isotone, wanted = RETIRE_CASES[case]
        cfg = MsConfig(**kwargs)
        monkeypatch.setattr(optimizer, "LOOKAHEAD", lookahead)
        monkeypatch.setattr(optimizer, "TIED_SPLITS", 1)
        plain = moore_skelboe(f, b_init, cfg)
        monkeypatch.setattr(optimizer, "TIED_SPLITS", 512)
        _, iterations, evaluated, witness, ref = tuple_heap_search(f, b_init, cfg)
        log = batch_log(monkeypatch)
        res = moore_skelboe(f, b_init, cfg)
        entries = list(map(hex_entry, res.cover.entries()))
        assert entries == list(map(hex_entry, plain.cover.entries()))
        assert entries == list(map(hex_entry, ref.entries()))
        assert res.final_cover_size == len(entries)
        assert res.stop_reason == plain.stop_reason
        assert res.iterations == plain.iterations == iterations
        assert bits(res.witness) == bits(plain.witness) == bits(witness)
        assert res.evaluated == evaluated
        if isotone:
            # Every box of a tied batch is split before the search stops.
            assert res.evaluated == plain.evaluated
        assert any(map(wanted, log))


def identity_enclosure(box):
    return Interval(box[0].lb, box[0].ub)


def nan_enclosure(box):
    return _make(math.nan, math.nan)


def raise_value_error(box):
    raise ValueError(f"the objective cannot evaluate {box!r}")


class TestSpeculativeFailures:
    """An objective that fails on the halves of [4, 8] only. The front
    splits ahead the boxes that follow it, [4, 8] among them."""

    @staticmethod
    def failing_on_right(fail, base):
        calls = []

        def f(lb, ub):
            calls.append(len(lb))
            return per_box(
                lambda b: fail(b) if b[0].lb >= 4.0 and b[0].width < 4.0 else base(b)
            )(lb, ub)

        return f, calls

    @pytest.mark.parametrize("fail", [nan_enclosure, raise_value_error])
    @pytest.mark.parametrize("lookahead", [2, 8])
    def test_failure_ahead_of_time_does_not_abort(self, monkeypatch, fail, lookahead):
        # The lowest box is always the leftmost one: [4, 8] never reaches
        # the front, and the run stops on the width of [0, delta].
        b_init = IntervalBox.from_bounds([(0, 8)])
        cfg = MsConfig(delta=1e-2, split_dims=(0,))
        expected = reference_search(identity_enclosure, b_init, cfg)
        monkeypatch.setattr(optimizer, "LOOKAHEAD", lookahead)
        f, calls = self.failing_on_right(fail, identity_enclosure)
        res = moore_skelboe(f, b_init, cfg)
        assert expected[3] and res.converged
        assert res.enclosure == expected[0] and res.witness == expected[1]
        assert res.iterations == expected[2]
        assert [(e.box, e.enclosure) for e in res.cover.entries()] == expected[4]
        # The failed batch was retried with the front's halves alone.
        assert 2 in calls and max(calls) > 2
        assert res.evaluated == sum(calls)

    @pytest.mark.parametrize(
        "fail, error", [(nan_enclosure, ObjectiveError), (raise_value_error, ValueError)]
    )
    @pytest.mark.parametrize("lookahead", [2, 8])
    def test_failure_when_due_raises_the_plain_error(
        self, monkeypatch, fail, error, lookahead
    ):
        # Equal enclosures split breadth first: [4, 8] is due at the third
        # split, after a failed attempt to split it ahead at the second.
        b_init = IntervalBox.from_bounds([(0, 8)])
        cfg = MsConfig(delta=1e-2, split_dims=(0,))
        tie = lambda box: Interval(0.0, 1.0)  # noqa: E731
        monkeypatch.setattr(optimizer, "LOOKAHEAD", 1)
        monkeypatch.setattr(optimizer, "TIED_SPLITS", 1)
        plain, plain_calls = self.failing_on_right(fail, tie)
        with pytest.raises(error) as expected:
            moore_skelboe(plain, b_init, cfg)
        # Plain, one split per call: the initial box, the splits of [0, 8]
        # and [0, 4], then [4, 8]'s failing pair. Ahead: the initial box
        # and [0, 8]'s pair (nothing follows it yet), [0, 4]'s batch with
        # [4, 8]'s halves retried as [0, 4]'s pair alone, then [4, 8]'s
        # batch with the halves of the up to two boxes behind it, retried
        # alone. Every box ties, so a batch holds up to the larger of
        # LOOKAHEAD and TIED_SPLITS boxes.
        assert plain_calls == [1, 2, 2, 2]
        monkeypatch.setattr(optimizer, "LOOKAHEAD", lookahead)
        for tied in (1, lookahead, 512):
            monkeypatch.setattr(optimizer, "TIED_SPLITS", tied)
            f, calls = self.failing_on_right(fail, tie)
            with pytest.raises(error) as got:
                moore_skelboe(f, b_init, cfg)
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)
            assert "Box([4.0, 6.0])" in str(got.value)
            most = max(lookahead, tied)
            assert calls == [1, 2, 2 * min(most, 2), 2, 2 * min(most, 3), 2]


@pytest.fixture
def collector():
    """Puts the cyclic garbage collector back as it was after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """moore_skelboe leaves the cyclic garbage collector alone: it does not
    pause it, and the collector is in the caller's state throughout. (A
    pause no longer paid once the cover held no Python object per box.)"""

    @staticmethod
    def objective(raise_at=None):
        states = []

        def f(lb, ub):
            if len(states) == raise_at:
                raise ValueError("the objective failed")
            states.append(gc.isenabled())
            return per_box(square)(lb, ub)

        return f, states

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("lookahead", [1, 8])
    def test_state_restored_on_return(self, monkeypatch, collector, enabled, lookahead):
        monkeypatch.setattr(optimizer, "LOOKAHEAD", lookahead)
        (gc.enable if enabled else gc.disable)()
        f, states = self.objective()
        cfg = MsConfig(delta=1e-6, split_dims=(0,))
        res = moore_skelboe(f, IntervalBox.from_bounds([(-5, 4)]), cfg)
        assert res.converged and len(states) > 10
        assert gc.isenabled() is enabled
        assert states == [enabled] * len(states)

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("raise_at", [0, 5])
    def test_state_restored_on_raise(self, collector, enabled, raise_at):
        (gc.enable if enabled else gc.disable)()
        f, states = self.objective(raise_at)
        cfg = MsConfig(delta=1e-6, split_dims=(0,))
        with pytest.raises(ValueError, match="the objective failed"):
            moore_skelboe(f, IntervalBox.from_bounds([(-5, 4)]), cfg)
        assert len(states) == raise_at
        assert gc.isenabled() is enabled
        assert states == [enabled] * raise_at

    @pytest.mark.parametrize(
        "name", ["constant", "identity", "trilat_gd", "trilat_mlp"]
    )
    def test_validation_leaves_no_cyclic_garbage(self, collector, name):
        # Reference counting alone frees a run that makes no reference
        # cycles. The collector stays off for the whole run here, so a
        # cycle made anywhere in it, the final cover included, is still
        # there to be found once the report is dropped.
        scenario = load_scenario(SCENARIO_DIR / f"{name}.scn")
        if name == "trilat_gd":
            scenario = dataclasses.replace(scenario, max_iterations=200)
        gc.disable()
        gc.collect()
        report = run_validate(scenario)
        assert report.iterations > 0
        del report
        assert gc.collect() == 0
