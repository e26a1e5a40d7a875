import math
import random
from collections import deque

import numpy as np
import pytest

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

ONE = Interval.point(1.0)
MINUS_TWO = Interval.point(-2.0)
TWO = Interval.point(2.0)


def square(box):
    return isqr(box[0])


def paraboloid(box):
    return iadd(isqr(isub(box[0], ONE)), isqr(isub(box[1], MINUS_TWO)))


def quartic(box):
    return isqr(isub(isqr(box[0]), TWO))


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
            moore_skelboe(square, IntervalBox.from_bounds([(2, 2)]), cfg)

    def test_split_dim_out_of_range(self):
        cfg = MsConfig(delta=1e-3, split_dims=(1,))
        with pytest.raises(ValueError, match="out of range"):
            moore_skelboe(square, IntervalBox.from_bounds([(0, 1)]), cfg)


class TestMooreSkelboe:
    def test_square_on_asymmetric_interval(self):
        res = moore_skelboe(
            square,
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
            paraboloid,
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
            quartic,
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
        front_lbs = []

        def trace(iteration, front_lb, cover_size):
            front_lbs.append(front_lb)
            assert cover_size == iteration + 1  # nothing is ever discarded

        res = moore_skelboe(
            square,
            IntervalBox.from_bounds([(-5, 4)]),
            MsConfig(delta=1e-9, split_dims=(0,)),
            on_iteration=trace,
        )
        assert len(front_lbs) == res.iterations
        assert all(lb <= exact_min_sample for lb in front_lbs)

    def test_delta_wider_than_range_stops_immediately(self):
        res = moore_skelboe(
            square,
            IntervalBox.from_bounds([(-5, 4)]),
            MsConfig(delta=100.0, split_dims=(0,)),
        )
        assert res.converged and res.iterations == 0
        assert res.final_cover_size == 1

    def test_iteration_cap_keeps_sound_enclosure(self):
        res = moore_skelboe(
            square,
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

        res = moore_skelboe(f, b, MsConfig(delta=1e-6, split_dims=(0, 1)))
        assert res.witness[2] is b[2]
        for entry in res.final_cover:
            assert entry.box[2] is b[2]

    def test_determinism(self):
        def run():
            return moore_skelboe(
                paraboloid,
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
                bad,
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
                nan_objective,
                IntervalBox.from_bounds([(0, 1)]),
                MsConfig(delta=1e-3, split_dims=(0,)),
            )

    def test_final_cover_is_sorted_and_complete(self):
        res = moore_skelboe(
            square,
            IntervalBox.from_bounds([(-5, 4)]),
            MsConfig(delta=1e-6, split_dims=(0,)),
        )
        lbs = [e.enclosure.lb for e in res.final_cover]
        assert lbs == sorted(lbs)
        assert len(res.final_cover) == res.final_cover_size
        # the split-dim projections tile the initial interval
        pieces = sorted((e.box[0].lb, e.box[0].ub) for e in res.final_cover)
        assert pieces[0][0] == -5.0 and pieces[-1][1] == 4.0
        for (_, ub), (lb2, _) in zip(pieces, pieces[1:]):
            assert ub == lb2

    def test_equal_lower_bounds_split_and_report_in_insertion_order(self):
        # Every box has the same enclosure, so the front is always the oldest
        # box: the search is a breadth-first bisection, and the final cover
        # lists the boxes in the order they were made.
        b_init = IntervalBox.from_bounds([(0, 1), (0, 4)])
        res = moore_skelboe(
            lambda box: Interval(0.0, 1.0),
            b_init,
            MsConfig(delta=0.5, split_dims=(1, 0), max_iterations=400),
        )
        queue = deque([b_init])
        for _ in range(400):
            front = queue.popleft()
            widest = max(range(front.dim), key=lambda i: (front[i].width, -i))
            queue.extend(front.bisect(widest))
        assert not res.converged
        assert [e.box for e in res.final_cover] == list(queue)
        assert res.witness == queue[0]
