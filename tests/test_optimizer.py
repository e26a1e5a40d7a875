import dataclasses
import gc
import heapq
import math
import random
from collections import deque

import numpy as np
import pytest

from estbound import optimizer
from estbound.interval import Interval, IntervalBox, iadd, imul, isqr, isub
from estbound.optimizer import (
    CannotSplitError,
    Cover,
    CoverEntry,
    MsConfig,
    ObjectiveError,
    moore_skelboe,
    select_split_dim,
)
from estbound.pipeline import load_scenario, run_validate
from conftest import SCENARIO_DIR

ONE = Interval.point(1.0)
MINUS_TWO = Interval.point(-2.0)
TWO = Interval.point(2.0)


def square(box):
    return isqr(box[0])


def paraboloid(box):
    return iadd(isqr(isub(box[0], ONE)), isqr(isub(box[1], MINUS_TWO)))


def quartic(box):
    return isqr(isub(isqr(box[0]), TWO))


def per_box(f):
    """The batched objective moore_skelboe takes, from a one-box one."""
    return lambda boxes: [f(box) for box in boxes]


class TestCover:
    def make_entry(self, lb):
        return CoverEntry(IntervalBox.from_bounds([(0, 1)]), Interval(lb, lb + 1))

    def test_insert_keeps_order(self):
        c = Cover()
        for lb in (1.0, 3.0):
            c.insert(self.make_entry(lb))
        c.insert(self.make_entry(2.0))
        assert [e.enclosure.lb for e in c.entries()] == [1.0, 2.0, 3.0]

    def test_fifo_tie_break(self):
        c = Cover()
        first = self.make_entry(1.0)
        third = self.make_entry(3.0)
        c.insert(first)
        c.insert(third)
        dup = self.make_entry(1.0)
        c.insert(dup)
        entries = c.entries()
        assert entries[0] is first
        assert entries[1] is dup
        assert entries[2] is third
        assert c.pop() is first
        assert c.pop() is dup

    def test_insert_into_empty(self):
        c = Cover()
        e = self.make_entry(5.0)
        c.insert(e)
        assert len(c) == 1 and c.peek() is e

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
        inserted = [self.make_entry(rng.choice((-1.0, 0.0, 2.5))) for _ in range(600)]
        for e in inserted:
            c.insert(e)
        expected = sorted(inserted, key=lambda e: e.enclosure.lb)  # stable
        assert [id(e) for e in c.entries()] == [id(e) for e in expected]

    def test_replace_front_is_pop_then_insert(self):
        rng = random.Random(9)
        a, b = Cover(), Cover()
        for _ in range(50):
            e = self.make_entry(rng.choice((0.0, 1.0, rng.uniform(-3, 3))))
            a.insert(e)
            b.insert(e)
        for _ in range(300):
            e = self.make_entry(rng.choice((0.0, 1.0, rng.uniform(-3, 3))))
            a.pop()
            a.insert(e)
            b.replace_front(e)
            assert a.peek() is b.peek()
        assert [id(e) for e in a.entries()] == [id(e) for e in b.entries()]


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


class TestConfig:
    def test_bad_delta(self):
        with pytest.raises(ValueError):
            MsConfig(delta=0.0, split_dims=(0,))

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
        assert res.witness[2] is b[2]
        for entry in res.cover.entries():
            assert entry.box[2] is b[2]

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
        def bad(box):
            return (box[0].lb, box[0].ub)

        with pytest.raises(ObjectiveError, match="not an Interval"):
            moore_skelboe(
                per_box(bad),
                IntervalBox.from_bounds([(0, 1)]),
                MsConfig(delta=1e-3, split_dims=(0,)),
            )

    def test_nan_enclosure_aborts_with_diagnostic(self):
        # 0 * inf is NaN, so this product has NaN bounds.
        def nan_objective(box):
            return imul(Interval(0.0, 0.0), Interval(-math.inf, math.inf))

        assert math.isnan(nan_objective(None).lb)
        with pytest.raises(ObjectiveError, match="invalid enclosure"):
            moore_skelboe(
                per_box(nan_objective),
                IntervalBox.from_bounds([(0, 1)]),
                MsConfig(delta=1e-3, split_dims=(0,)),
            )

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_enclosure_count_aborts_with_diagnostic(self, extra):
        # The initial box comes alone, the halves of the first split
        # together; the answer to the halves is one enclosure short or long.
        calls = []

        def miscounting(boxes):
            calls.append(len(boxes))
            out = [square(box) for box in boxes]
            if len(calls) == 2:
                return out[:-1] if extra < 0 else out + out[:1]
            return out

        with pytest.raises(ObjectiveError, match="one enclosure per box"):
            moore_skelboe(
                miscounting,
                IntervalBox.from_bounds([(-5, 4)]),
                MsConfig(delta=1e-3, split_dims=(0,)),
            )
        assert calls == [1, 2]

    def test_unbatched_enclosure_aborts_with_diagnostic(self):
        with pytest.raises(ObjectiveError, match="one enclosure per box"):
            moore_skelboe(
                lambda boxes: square(boxes[0]),
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
    """The batched form of the one-box objective f, and the list of every
    batch it is handed."""
    batches = []

    def batched(boxes):
        batches.append(list(boxes))
        return [f(box) for box in boxes]

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
    @pytest.mark.parametrize("lookahead", [1, 2, 8])
    def test_same_result_as_the_plain_loop(self, monkeypatch, case, lookahead):
        f, b_init, kwargs = LOOKAHEAD_CASES[case]
        enclosure, witness, iterations, converged, cover = reference_search(
            f, b_init, MsConfig(**kwargs)
        )
        monkeypatch.setattr(optimizer, "LOOKAHEAD", lookahead)
        batched, batches = recording(f)
        res = moore_skelboe(batched, b_init, MsConfig(**kwargs))
        assert res.enclosure == enclosure
        assert res.witness == witness
        assert res.iterations == iterations
        assert res.converged == converged
        assert [(e.box, e.enclosure) for e in res.cover.entries()] == cover
        assert res.final_cover_size == len(cover)
        assert res.evaluated == sum(len(batch) for batch in batches)
        if lookahead == 1:
            assert [len(batch) for batch in batches] == [1] + [2] * iterations
        # Each batch holds the halves of at most lookahead splits.
        assert all(len(batch) <= 2 * lookahead for batch in batches[1:])

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

    @pytest.mark.parametrize("case", sorted(LOOKAHEAD_CASES))
    def test_each_box_is_evaluated_at_most_once(self, monkeypatch, case):
        f, b_init, kwargs = LOOKAHEAD_CASES[case]
        monkeypatch.setattr(optimizer, "LOOKAHEAD", 8)
        batched, batches = recording(f)
        res = moore_skelboe(batched, b_init, MsConfig(**kwargs))
        seen = [id(box) for batch in batches for box in batch]
        assert len(seen) == len(set(seen)) == res.evaluated
        # Not split twice either: no box has the bounds of another.
        boxes = [box for batch in batches for box in batch]
        bounds = [tuple((c.lb, c.ub) for c in box) for box in boxes]
        assert len(bounds) == len(set(bounds))

    def test_splits_ahead_in_batches(self, monkeypatch):
        # Breadth-first ties: every box after the front is due in order, so
        # every speculated pair is used and the calls shrink over fourfold.
        f, b_init, kwargs = LOOKAHEAD_CASES["fifo_ties"]
        monkeypatch.setattr(optimizer, "LOOKAHEAD", 8)
        batched, batches = recording(f)
        res = moore_skelboe(batched, b_init, MsConfig(**kwargs))
        assert res.evaluated == 1 + 2 * res.iterations
        assert len(batches) < 1 + res.iterations // 4

    def test_no_split_ahead_past_the_cap(self, monkeypatch):
        f, b_init, kwargs = LOOKAHEAD_CASES["fifo_ties"]
        monkeypatch.setattr(optimizer, "LOOKAHEAD", 8)
        for cap in range(0, 12):
            batched, batches = recording(f)
            cfg = MsConfig(**dict(kwargs, max_iterations=cap))
            res = moore_skelboe(batched, b_init, cfg)
            assert res.iterations == cap
            assert res.evaluated == 1 + 2 * cap


def identity_enclosure(box):
    return Interval(box[0].lb, box[0].ub)


def nan_enclosure(box):
    # 0 * inf is NaN, so this product has NaN bounds.
    return imul(Interval(0.0, 0.0), Interval(-math.inf, math.inf))


def raise_value_error(box):
    raise ValueError(f"the objective cannot evaluate {box!r}")


class TestSpeculativeFailures:
    """An objective that fails on the halves of [4, 8] only. The front
    splits ahead the boxes that follow it, [4, 8] among them."""

    @staticmethod
    def failing_on_right(fail, base):
        calls = []

        def f(boxes):
            calls.append(len(boxes))
            return [
                fail(b) if b[0].lb >= 4.0 and b[0].width < 4.0 else base(b)
                for b in boxes
            ]

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
        plain, plain_calls = self.failing_on_right(fail, tie)
        with pytest.raises(error) as expected:
            moore_skelboe(plain, b_init, cfg)
        monkeypatch.setattr(optimizer, "LOOKAHEAD", lookahead)
        f, calls = self.failing_on_right(fail, tie)
        with pytest.raises(error) as got:
            moore_skelboe(f, b_init, cfg)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        assert "Box([4.0, 6.0])" in str(got.value)
        # Plain, one split per call: the initial box, the splits of [0, 8]
        # and [0, 4], then [4, 8]'s failing pair. Ahead: the initial box
        # and [0, 8]'s pair (nothing follows it yet), [0, 4]'s batch with
        # [4, 8]'s halves retried as [0, 4]'s pair alone, then [4, 8]'s
        # batch with the halves of the up to two boxes behind it, retried
        # alone.
        assert plain_calls == [1, 2, 2, 2]
        assert calls == [1, 2, 4, 2, 2 * min(lookahead, 3), 2]


@pytest.fixture
def collector():
    """Puts the cyclic garbage collector back as it was after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """moore_skelboe pauses the cyclic garbage collector while it searches
    and leaves it as it found it."""

    @staticmethod
    def objective(raise_at=None):
        states = []

        def f(boxes):
            if len(states) == raise_at:
                raise ValueError("the objective failed")
            states.append(gc.isenabled())
            return [square(box) for box in boxes]

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
        assert not any(states)

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
        assert not any(states)

    def test_cover_handed_to_oldest_generation(self, collector):
        # Otherwise the first young collection after the search walks the
        # whole cover. A huge threshold keeps any collection from moving
        # the cover before it is looked at.
        threshold = gc.get_threshold()
        gc.set_threshold(10**9)
        try:
            gc.enable()
            f, _ = self.objective()
            cfg = MsConfig(delta=1e-6, split_dims=(0,))
            res = moore_skelboe(f, IntervalBox.from_bounds([(-5, 4)]), cfg)
            young = {id(o) for o in gc.get_objects(generation=0)}
        finally:
            gc.set_threshold(*threshold)
        entries = res.cover.entries()
        assert len(entries) > 10 and all(map(gc.is_tracked, entries))
        assert young.isdisjoint(map(id, entries))

    def test_frozen_objects_stay_frozen(self, collector):
        # gc.unfreeze would release what the caller froze, so the hand-off
        # to the oldest generation is skipped then.
        gc.enable()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            f, _ = self.objective()
            cfg = MsConfig(delta=1e-6, split_dims=(0,))
            moore_skelboe(f, IntervalBox.from_bounds([(-5, 4)]), cfg)
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    @pytest.mark.parametrize(
        "name", ["constant", "identity", "trilat_gd", "trilat_mlp"]
    )
    def test_validation_leaves_no_cyclic_garbage(self, collector, name):
        # The pause frees nothing late only if the search makes no reference
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
