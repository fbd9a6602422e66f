import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from ctmkit import (
    BayesKellyBettor,
    DistanceToMeanMeasure,
    IdentityMeasure,
    PointMassModel,
    cell_tree,
    cell_volume_closure,
    changepoint_model,
    evariable_expectation,
    expected_log_wealth,
    iid_model,
    markov_model,
    pushforward_kl,
    run_eprocess,
    sample_betting_family,
)

from helpers import random_table


def _weights(hset):
    """Candidate prefix -> weight."""
    return {tuple(int(z) for z in row): float(w) for row, w in zip(hset.prefixes, hset.weights)}


class TestCellTree:
    def test_single_step(self):
        cells = cell_tree(iid_model([0.5, 0.5]), IdentityMeasure(), 1)
        assert len(cells) == 1
        cell = cells[0]
        assert cell.volume == 1.0
        assert cell.q_mass == pytest.approx(1.0, abs=1e-12)
        assert cell.bk_heights == (1.0,)

    def test_two_step_volumes(self):
        for model in (iid_model([0.5, 0.5]), changepoint_model(0.5, 0.9, 0.2)):
            cells = cell_tree(model, IdentityMeasure(), 2)
            assert len(cells) == 2
            assert [c.volume for c in cells] == [0.5, 0.5]

    def test_three_step_closure(self):
        cells = cell_tree(markov_model(0.1, 0.1), IdentityMeasure(), 3)
        assert len(cells) == 6
        assert all(c.volume == pytest.approx(1 / 6, abs=1e-16) for c in cells)
        assert math.fsum(c.q_mass for c in cells) == pytest.approx(1.0, abs=1e-10)
        assert cell_volume_closure(cells)

    def test_volume_closure_exact_rational(self):
        cells = cell_tree(changepoint_model(0.5, 0.9, 0.2), IdentityMeasure(), 5)
        total = sum(Fraction(1, math.factorial(5)) for _ in cells)
        assert total == 1

    def test_horizon_guard(self):
        with pytest.raises(ValueError):
            cell_tree(iid_model([0.5, 0.5]), IdentityMeasure(), 9)
        with pytest.raises(ValueError):
            cell_tree(iid_model([0.5, 0.5]), IdentityMeasure(), 0)

    @pytest.mark.parametrize("horizon", [2.9, True])
    def test_horizon_is_not_truncated(self, horizon):
        # read by the integer rule: 2.9 is not the horizon-2 tree, a bool is no count
        shown = re.escape(repr(horizon))
        with pytest.raises(ValueError, match=rf"^horizon must be an integer, got {shown}$"):
            cell_tree(iid_model([0.5, 0.5]), IdentityMeasure(), horizon)

    def test_integral_float_horizon_is_read(self):
        model = changepoint_model(0.5, 0.9, 0.2)
        assert cell_tree(model, IdentityMeasure(), 3.0) == cell_tree(model, IdentityMeasure(), 3)

    def test_cells_sorted_by_interval_path(self):
        cells = cell_tree(markov_model(0.3, 0.2), IdentityMeasure(), 4)
        paths = [c.intervals for c in cells]
        assert paths == sorted(paths)


class TestPushforwardKl:
    def test_null_alternative_gives_zero(self):
        cells = cell_tree(iid_model([0.5, 0.5]), IdentityMeasure(), 4)
        assert pushforward_kl(cells) == pytest.approx(0.0, abs=1e-12)
        # Bayes-Kelly never bets: every height is 1
        for cell in cells:
            assert cell.bk_heights == pytest.approx([1.0] * 4, abs=1e-12)

    def test_point_mass_log_two(self):
        cells = cell_tree(PointMassModel([1, 0], alphabet_size=2), IdentityMeasure(), 2)
        assert pushforward_kl(cells) == pytest.approx(math.log(2), abs=1e-14)

    def test_nonnegative_on_random_models(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            model = random_table(int(rng.integers(2, 4)),
                                 depth=int(rng.integers(1, 3)), rng=rng)
            cells = cell_tree(model, IdentityMeasure(), 3)
            assert pushforward_kl(cells) >= -1e-15


class TestExpectedLogWealth:
    def test_trivial_heights_zero(self):
        cells = cell_tree(markov_model(0.1, 0.1), IdentityMeasure(), 3)
        flat = [[1.0] * len(c.intervals) for c in cells]
        assert expected_log_wealth(cells, flat) == 0.0

    def test_bayes_kelly_attains_kl(self):
        cells = cell_tree(changepoint_model(0.5, 0.9, 0.2), IdentityMeasure(), 5)
        value = expected_log_wealth(cells, [c.bk_heights for c in cells])
        assert value == pytest.approx(pushforward_kl(cells), abs=1e-9)

    def test_rivals_never_beat_bayes_kelly(self):
        cells = cell_tree(markov_model(0.1, 0.1), IdentityMeasure(), 3)
        best = expected_log_wealth(cells, [c.bk_heights for c in cells])
        rng = np.random.default_rng(42)
        for _ in range(100):
            family = sample_betting_family(cells, rng)
            assert expected_log_wealth(cells, family) <= best + 1e-12

    def test_zero_factor_on_charged_cell_signals_minus_inf(self):
        cells = cell_tree(markov_model(0.1, 0.1), IdentityMeasure(), 2)
        family = [[1.0, 0.0] for _ in cells]
        assert expected_log_wealth(cells, family) == -math.inf

    def test_length_mismatch_rejected(self):
        cells = cell_tree(markov_model(0.1, 0.1), IdentityMeasure(), 2)
        with pytest.raises(ValueError):
            expected_log_wealth(cells, [[1.0]] * (len(cells) - 1))

    def test_matches_per_factor_loop(self):
        # the loop that tests each factor before taking its log, the
        # oracle's earlier form: same bits, also on signed zeros, NaN and inf
        def loop(cells, family):
            terms = []
            for cell, factors in zip(cells, family):
                if cell.q_mass <= 0.0:
                    continue
                logs = []
                for f in factors:
                    if f <= 0.0:
                        return -math.inf
                    logs.append(math.log(f))
                terms.append(cell.q_mass * math.fsum(logs))
            return math.fsum(terms)

        cells = cell_tree(changepoint_model(0.5, 0.9, 0.2), IdentityMeasure(), 4)
        rng = np.random.default_rng(44)
        families = [[c.bk_heights for c in cells]]
        families += [sample_betting_family(cells, rng) for _ in range(20)]
        for special in (0.0, -0.0, -1.0, math.nan, math.inf):
            for at in (0, len(cells) // 2, len(cells) - 1):
                family = [list(factors) for factors in families[0]]
                family[at][-1] = special
                families.append(family)
        for family in families:
            got, want = expected_log_wealth(cells, family), loop(cells, family)
            assert got == want or (math.isnan(got) and math.isnan(want))


class TestSampledFamilies:
    def test_families_are_filtration_adapted_densities(self):
        cells = cell_tree(changepoint_model(0.5, 0.9, 0.2), IdentityMeasure(), 4)
        rng = np.random.default_rng(43)
        family = sample_betting_family(cells, rng)
        by_history = {}
        for cell, factors in zip(cells, family):
            assert len(factors) == 4
            for n in range(1, 5):
                key = cell.intervals[: n - 1]
                by_history.setdefault((n, key), {})[cell.intervals[n - 1]] = factors[n - 1]
        for (n, _), heights in by_history.items():
            # one height per interval, normalized to integrate to 1
            assert set(heights) == set(range(n))
            assert math.fsum(heights.values()) / n == pytest.approx(1.0, abs=1e-12)


def _one_dirichlet_per_node(cells, rng):
    """sample_betting_family as it was before the batched draw, kept verbatim
    as the bit-for-bit reference: one dirichlet call per history node."""
    node_heights: dict = {}
    out = []
    for cell in cells:
        factors = []
        for n in range(1, len(cell.intervals) + 1):
            history = cell.intervals[: n - 1]
            heights = node_heights.get(history)
            if heights is None:
                heights = rng.dirichlet(np.ones(n)) * n
                node_heights[history] = heights
            factors.append(float(heights[cell.intervals[n - 1]]))
        out.append(tuple(factors))
    return out


@pytest.fixture(scope="module")
def cell_lists():
    models = (markov_model(0.1, 0.1), changepoint_model(0.5, 0.9, 0.2),
              PointMassModel([1, 0, 1], alphabet_size=2))
    lists = [[]]
    for horizon in range(1, 8):
        for model in models:
            for measure in (IdentityMeasure(), DistanceToMeanMeasure()):
                lists.append(cell_tree(model, measure, horizon))
    # shuffled, first-visit order is no longer depth-first order
    for horizon in (4, 6):
        shuffled = list(cell_tree(markov_model(0.1, 0.1), IdentityMeasure(), horizon))
        random.Random(horizon).shuffle(shuffled)
        lists.append(shuffled)
    return lists


class TestSamplerBitIdentity:
    def test_matches_one_dirichlet_per_node(self, cell_lists):
        assert any(c.q_mass == 0.0 for cells in cell_lists for c in cells)
        for seed in range(20):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for cells in cell_lists:
                got = sample_betting_family(cells, got_rng)
                assert got == _one_dirichlet_per_node(cells, want_rng)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_empty_cell_list_draws_nothing(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert sample_betting_family([], rng) == []
        assert rng.bit_generator.state == state


class TestEVariableExpectation:
    def test_constant_statistic(self):
        for theta in (0.0, 0.3, 1.0):
            assert evariable_expectation(lambda bits: 1.0, theta, 6) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_fair_bet_on_first_bit(self):
        got = evariable_expectation(lambda bits: 2.0 * bits[0], 0.5, 4)
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_eprocess_statistic_is_evariable(self):
        model = iid_model([0.5, 0.5])

        def statistic(bits):
            return run_eprocess(bits, model)[-1].value

        got = evariable_expectation(statistic, 0.5, 10)
        assert got <= 1.0 + 1e-12

    def test_guards(self):
        with pytest.raises(ValueError):
            evariable_expectation(lambda bits: 1.0, 0.5, 21)
        with pytest.raises(ValueError):
            evariable_expectation(lambda bits: 1.0, 1.5, 3)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_n_is_not_truncated(self, n):
        shown = re.escape(repr(n))
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {shown}$"):
            evariable_expectation(lambda bits: 1.0, 0.5, n)

    def test_integral_float_n_is_read(self):
        assert evariable_expectation(lambda bits: 2.0 * bits[0], 0.5, 3.0) == 1.0


class TestEngineAgreement:
    def test_heights_and_weights_along_every_cell(self):
        model = changepoint_model(0.5, 0.9, 0.2)
        measure = IdentityMeasure()
        cells = cell_tree(model, measure, 4, keep_weights=True)
        for cell in cells:
            bettor = BayesKellyBettor(model, measure)
            for n, (idx, height) in enumerate(zip(cell.intervals, cell.bk_heights), 1):
                mid = (idx + 0.5) / n
                assert bettor.next_density().evaluate(mid) == pytest.approx(
                    height, abs=1e-12
                )
                bettor.update(mid)
            engine = _weights(bettor.hypothesis_set)
            assert set(engine) == set(cell.final_weights)
            for prefix, weight in cell.final_weights.items():
                assert engine[prefix] == pytest.approx(weight, abs=1e-12)

    def test_factor_products_telescope_to_cell_mass(self):
        model = markov_model(0.1, 0.1)
        cells = cell_tree(model, IdentityMeasure(), 4)
        for cell in cells:
            assert math.prod(cell.bk_heights) == pytest.approx(
                math.factorial(4) * cell.q_mass, rel=1e-10, abs=1e-12
            )
