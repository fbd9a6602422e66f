import math
import pickle
import re

import numpy as np
import pytest

from ctmkit import (
    ConstantBettor,
    PiecewiseDensity,
    ShrunkAlternativeBettor,
)
from ctmkit.betting import grid_index, linear_from_log


class TestPiecewiseDensity:
    @pytest.mark.parametrize(
        "heights", [(1.0,), (2.0, 0.0), (1.5, 1.5, 0.0)]
    )
    def test_integral_is_one(self, heights):
        d = PiecewiseDensity(heights)
        assert math.fsum(d.array.tolist()) / d.n == pytest.approx(1.0, abs=1e-15)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="integrate"):
            PiecewiseDensity((1.5, 0.6))

    def test_height_cap_enforced(self):
        with pytest.raises(ValueError, match="height"):
            PiecewiseDensity((2.5, -0.5))

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseDensity((-0.5, 2.5))

    def test_uniform_constructor(self):
        for n in (1, 2, 5):
            d = PiecewiseDensity.uniform(n)
            assert d.heights == (1.0,) * n

    def test_evaluate_first_interval(self):
        assert PiecewiseDensity((2.0, 0.0)).evaluate(0.25) == 2.0

    def test_evaluate_boundary_belongs_right(self):
        assert PiecewiseDensity((2.0, 0.0)).evaluate(0.5) == 0.0

    def test_evaluate_last_interval_closed(self):
        assert PiecewiseDensity((0.0, 0.0, 3.0)).evaluate(1.0) == 3.0

    def test_evaluate_out_of_range(self):
        d = PiecewiseDensity.uniform(2)
        for p in (-0.1, 1.1):
            with pytest.raises(ValueError):
                d.evaluate(p)

    def test_evaluate_consistent_with_integral(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            raw = rng.random(n)
            heights = tuple(raw * n / raw.sum())
            d = PiecewiseDensity(heights)
            # exact: evaluating at interval midpoints recovers the heights
            riemann = math.fsum(d.evaluate((i + 0.5) / n) for i in range(n)) / n
            assert riemann == math.fsum(d.array.tolist()) / d.n

    def test_accepts_arrays_and_stores_them_read_only(self):
        raw = np.array([2.0, 0.0])
        d = PiecewiseDensity(raw)
        raw[0] = 5.0  # the density keeps its own copy
        assert d == PiecewiseDensity((2.0, 0.0))
        assert hash(d) == hash(PiecewiseDensity([2.0, 0.0]))
        assert d.array.dtype == np.float64 and not d.array.flags.writeable
        with pytest.raises(ValueError):
            d.array[0] = 1.0
        copy = pickle.loads(pickle.dumps(d))
        assert copy == d and not copy.array.flags.writeable

    def test_heights_are_a_tuple_of_floats(self):
        d = PiecewiseDensity(np.array([1, 2, 0]))
        assert d.heights == (1.0, 2.0, 0.0)
        assert type(d.heights) is tuple
        assert all(type(h) is float for h in d.heights)
        assert repr(d) == "PiecewiseDensity(heights=(1.0, 2.0, 0.0))"

    @pytest.mark.parametrize("heights,message", [
        ((1.0, math.nan), "height 1 must be finite and nonnegative, got nan"),
        ((0.5, math.inf), "height 1 must be finite and nonnegative, got inf"),
        ((-0.5, 2.5), "height 0 must be finite and nonnegative, got -0.5"),
        ((2.5, -0.5), "height 0 exceeds the grid bound 2: 2.5"),
        ((1.5, 0.6), "density must integrate to 1, got 1.05"),
        ((), "density needs at least one grid interval"),
    ])
    def test_error_messages(self, heights, message):
        for given in (heights, np.array(heights, dtype=float)):
            with pytest.raises(ValueError) as err:
                PiecewiseDensity(given)
            assert str(err.value) == message

    def test_evaluate_grid_point_reads_the_cell_it_starts(self):
        # (15/22) * 22 rounds below 15, so int(p * n) would read cell 14
        heights = np.arange(1.0, 23.0)
        d = PiecewiseDensity(heights * 22 / heights.sum())
        assert d.evaluate(15 / 22) == d.array[15]
        for n in range(1, 200):
            d = PiecewiseDensity(np.arange(1.0, n + 1) * 2 / (n + 1))
            assert [d.evaluate(i / n) for i in range(n + 1)] == d.array.tolist() + [d.array[-1]]

    @pytest.mark.parametrize("n", [1, 2, 7, 22, 23, 199])
    def test_grid_index_is_the_float_boundary_rule(self, n):
        # the largest i with i/n <= p, on grid points and one float either side
        for i in range(n + 1):
            for p in (math.nextafter(i / n, -1.0), i / n, math.nextafter(i / n, 2.0)):
                if 0.0 <= p <= 1.0:
                    assert grid_index(p, n) == max(j for j in range(n + 1) if j / n <= p)

    def test_evaluate_returns_a_python_float(self):
        d = PiecewiseDensity(np.array([0.5, 1.5]))
        for p in (0.0, 0.5, 1.0):
            assert type(d.evaluate(p)) is float


class TestLinearFromLog:
    def test_values(self):
        assert linear_from_log(-math.inf) == 0.0
        assert linear_from_log(0.0) == 1.0
        assert linear_from_log(math.log(2.5)) == math.exp(math.log(2.5))
        # finite up to the clamp, +inf past it, though exp overflows only near 709.78
        assert linear_from_log(709.0) == math.exp(709.0)
        assert linear_from_log(709.2) == math.inf
        assert linear_from_log(math.inf) == math.inf


class TestConstantBettor:
    def test_unit_density_and_wealth(self):
        b = ConstantBettor()
        for p in (0.1, 0.9, 0.5):
            d = b.next_density()
            assert all(h == 1.0 for h in d.heights)
            assert b.update(p) == 1.0
        assert b.wealth == 1.0
        assert b.log_wealth == 0.0


class TestShrunkAlternativeBettor:
    def test_uniform_family_keeps_wealth_one(self):
        b = ShrunkAlternativeBettor({})
        for p in (0.2, 0.8, 0.5, 0.99):
            b.next_density()
            b.update(p)
        assert b.wealth == 1.0

    def test_even_step_doubling(self):
        # density 2 on [0, 1/2) and 0 above at each even step
        family = {n: (2.0,) * (n // 2) + (0.0,) * (n - n // 2) for n in (2, 4, 6)}
        b = ShrunkAlternativeBettor(family)
        wealth = []
        for n in range(1, 7):
            b.next_density()
            b.update(0.1)
            wealth.append(b.wealth)
        # wealth is materialized from the log accumulator, hence approx
        assert wealth == pytest.approx([1.0, 2.0, 2.0, 4.0, 4.0, 8.0], rel=1e-12)

    def test_non_normalized_family_rejected_with_step(self):
        with pytest.raises(ValueError, match="step 3"):
            ShrunkAlternativeBettor({3: (1.0, 1.0, 2.0)})

    @pytest.mark.parametrize("step", [1.7, True, "1.0", None])
    def test_step_keys_are_not_truncated(self, step):
        # int() would read 1.7 and True as step 1
        message = f"^step index must be an integer, got {re.escape(repr(step))}$"
        with pytest.raises(ValueError, match=message):
            ShrunkAlternativeBettor({step: (2.0, 0.0)})

    def test_integer_valued_step_keys_are_read(self):
        family = ShrunkAlternativeBettor({"2": (2.0, 0.0), 3.0: (1.0,)}).family
        assert family == {2: PiecewiseDensity((2.0, 0.0)), 3: PiecewiseDensity((1.0,))}
        assert {type(step) for step in family} == {int}

    def test_sequence_family(self):
        b = ShrunkAlternativeBettor({1: (1.0,), 2: (2.0, 0.0)})
        b.next_density()
        b.update(0.9)
        d2 = b.next_density()
        assert d2.heights == (2.0, 0.0)
        assert b.update(0.9) == 0.0
        assert b.wealth == 0.0
        assert b.log_wealth == -math.inf

    def test_density_cached_until_update(self):
        b = ShrunkAlternativeBettor({})
        assert b.next_density() is b.next_density()

    def test_update_factor_matches_density(self):
        rng = np.random.default_rng(8)
        b = ShrunkAlternativeBettor({})
        for _ in range(5):
            d = b.next_density()
            p = float(rng.random())
            assert b.update(p) == d.evaluate(p)
