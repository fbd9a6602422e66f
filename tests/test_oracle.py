import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from ctmkit import (
    CellPath,
    DistanceToMeanMeasure,
    IdentityMeasure,
    PointMassModel,
    cell_tree,
    changepoint_model,
    evariable_expectation,
    expected_log_wealth,
    iid_model,
    markov_model,
    node_plan,
    pushforward_kl,
    run_eprocess,
    sample_betting_family,
)

from helpers import random_table


def _cell_volume_closure(cells) -> bool:
    """Exact check that the cell volumes tile the cube: N! cells of 1/N! each."""
    if not cells:
        return False
    horizon = len(cells[0].intervals)
    fact = math.factorial(horizon)
    if len(cells) != fact:
        return False
    expected = 1.0 / fact
    if any(c.volume != expected for c in cells):
        return False
    return Fraction(1, fact) * len(cells) == 1


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
        assert _cell_volume_closure(cells)

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
        plan = node_plan(cells)
        for _ in range(100):
            heights = sample_betting_family(plan, rng)
            assert expected_log_wealth(cells, heights, plan) <= best + 1e-12

    def test_zero_factor_on_charged_cell_signals_minus_inf(self):
        cells = cell_tree(markov_model(0.1, 0.1), IdentityMeasure(), 2)
        family = [[1.0, 0.0] for _ in cells]
        assert expected_log_wealth(cells, family) == -math.inf

    def test_length_mismatch_rejected(self):
        cells = cell_tree(markov_model(0.1, 0.1), IdentityMeasure(), 2)
        with pytest.raises(ValueError):
            expected_log_wealth(cells, [[1.0]] * (len(cells) - 1))

    def test_matches_per_factor_loop(self):
        cells = cell_tree(changepoint_model(0.5, 0.9, 0.2), IdentityMeasure(), 4)
        rng = np.random.default_rng(44)
        plan = node_plan(cells)
        families = [[c.bk_heights for c in cells]]
        families += [_cell_factors(plan, sample_betting_family(plan, rng)) for _ in range(20)]
        for special in (0.0, -0.0, -1.0, math.nan, math.inf):
            for at in (0, len(cells) // 2, len(cells) - 1):
                family = [list(factors) for factors in families[0]]
                family[at][-1] = special
                families.append(family)
        for family in families:
            _assert_same(expected_log_wealth(cells, family), _per_factor_loop(cells, family))

    def test_node_form_matches_per_factor_loop(self, cell_lists):
        # a rival scored from its node heights, each logged once, against the
        # reference loop over the same rival drawn one dirichlet per node
        for seed, cells in enumerate(cell_lists):
            plan = node_plan(cells)
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                heights = sample_betting_family(plan, got_rng)
                want = _per_factor_loop(cells, _one_dirichlet_per_node(cells, want_rng))
                assert expected_log_wealth(cells, heights, plan) == want
                assert expected_log_wealth(cells, _cell_factors(plan, heights)) == want

    def test_node_form_special_heights(self, cell_lists):
        # NaN and inf node heights take the one-pass sum, nonpositive ones the
        # per-cell loop; both give the reference loop's bits, also where only
        # zero-mass cells meet the height
        for seed, cells in enumerate(cell_lists):
            plan = node_plan(cells)
            drawn = sample_betting_family(plan, np.random.default_rng(seed))
            for special in (0.0, -0.0, -1.0, math.nan, math.inf):
                for at in {0, len(drawn) // 2, len(drawn) - 1} & set(range(len(drawn))):
                    heights = list(drawn)
                    heights[at] = special
                    got = expected_log_wealth(cells, heights, plan)
                    _assert_same(got, _per_factor_loop(cells, _cell_factors(plan, heights)))

    def test_nan_mass_cell_counts_in_both_forms(self):
        cells = cell_tree(markov_model(0.1, 0.1), IdentityMeasure(), 3)
        cells[2] = dataclasses.replace(cells[2], q_mass=math.nan)
        plan = node_plan(cells)
        heights = sample_betting_family(plan, np.random.default_rng(49))
        assert math.isnan(expected_log_wealth(cells, heights, plan))
        assert math.isnan(_per_factor_loop(cells, _cell_factors(plan, heights)))

    def test_zero_node_height_is_minus_inf_only_on_a_charged_cell(self):
        # the point mass 1, 0 charges one of the two horizon-2 cells
        cells = cell_tree(PointMassModel([1, 0], alphabet_size=2), IdentityMeasure(), 2)
        assert sorted(c.q_mass for c in cells) == [0.0, 1.0]
        plan = node_plan(cells)
        heights = sample_betting_family(plan, np.random.default_rng(46))
        charged = [c.q_mass > 0.0 for c in cells]
        for slot in range(len(heights)):
            zeroed = list(heights)
            zeroed[slot] = 0.0
            met = [slot in plan.getters[c](range(len(heights))) for c in range(len(cells))]
            got = expected_log_wealth(cells, zeroed, plan)
            if any(m and q for m, q in zip(met, charged)):
                assert got == -math.inf
            else:
                assert got == expected_log_wealth(cells, heights, plan) > -math.inf

    def test_horizon_one_factors_are_tuples(self):
        cells = cell_tree(markov_model(0.1, 0.1), IdentityMeasure(), 1)
        plan = node_plan(cells)
        heights = sample_betting_family(plan, np.random.default_rng(47))
        assert heights == [1.0]
        assert _cell_factors(plan, heights) == [(1.0,)]
        assert expected_log_wealth(cells, heights, plan) == 0.0

    def test_empty_cell_list_scores_zero(self):
        assert expected_log_wealth([], [], node_plan([])) == 0.0
        assert expected_log_wealth([], []) == 0.0

    def test_plan_of_other_cells_rejected(self):
        cells = cell_tree(markov_model(0.1, 0.1), IdentityMeasure(), 3)
        plan = node_plan(cells[:-1])
        heights = sample_betting_family(plan, np.random.default_rng(48))
        with pytest.raises(ValueError, match="node plan"):
            expected_log_wealth(cells, heights, plan)


class TestSampledFamilies:
    def test_families_are_filtration_adapted_densities(self):
        cells = cell_tree(changepoint_model(0.5, 0.9, 0.2), IdentityMeasure(), 4)
        rng = np.random.default_rng(43)
        plan = node_plan(cells)
        family = _cell_factors(plan, sample_betting_family(plan, rng))
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


def _per_factor_loop(cells, family):
    """The loop that tests each factor before taking its log, an earlier form
    of expected_log_wealth kept as the bit-for-bit reference: same bits, also
    on signed zeros, NaN and inf."""
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


def _assert_same(got, want):
    assert got == want or (math.isnan(got) and math.isnan(want))


def _cell_factors(plan, heights):
    """A rival's factors per cell, read from its flat node heights."""
    return [get(heights) for get in plan.getters]


def _cell_tree_before_memo(model, measure, horizon, keep_weights=False):
    """cell_tree as it was before its per-call memo, kept verbatim as the
    bit-for-bit reference: every node refolds and re-scores its prefixes."""
    m = model.alphabet_size
    volume = 1.0 / math.factorial(horizon)
    cells: list = []

    def rank_counts(scores):
        last = scores[-1]
        below = 0
        upto = 0
        for s in scores:
            if s < last:
                below += 1
            if s <= last:
                upto += 1
        return below, upto

    def walk(candidates: dict, n: int, ipath: tuple, hpath: tuple) -> None:
        if n > horizon:
            q_mass = math.fsum(candidates.values())
            cells.append(
                CellPath(
                    intervals=ipath,
                    volume=volume,
                    q_mass=q_mass,
                    bk_heights=hpath,
                    final_weights=dict(candidates) if keep_weights else None,
                )
            )
            return
        extended: dict = {}
        for prefix, weight in candidates.items():
            probs = model.conditional(prefix)
            for z in range(m):
                wz = weight * float(probs[z])
                if wz > 0.0:
                    extended[prefix + (z,)] = wz
        stats = {}
        for prefix in extended:
            scores = [float(s) for s in measure.scores(np.asarray(prefix, dtype=float))]
            stats[prefix] = rank_counts(scores)
        total = math.fsum(extended.values())
        for interval in range(n):
            if total > 0.0:
                survivors = {}
                for prefix, weight in extended.items():
                    below, upto = stats[prefix]
                    if below <= interval < upto:
                        survivors[prefix] = weight / (upto - below)
                height = n * math.fsum(survivors.values()) / total
            else:
                survivors = {}
                height = 1.0
            walk(survivors, n + 1, ipath + (interval,), hpath + (height,))

    walk({(): 1.0}, 1, (), ())
    return cells


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


_TREE_MODELS = (markov_model(0.1, 0.1), changepoint_model(0.5, 0.9, 0.2),
                PointMassModel([1, 0, 1], alphabet_size=2))


@pytest.fixture(scope="module")
def cell_lists():
    models = _TREE_MODELS
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
        plans = [node_plan(cells) for cells in cell_lists]
        for seed in range(20):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for cells, plan in zip(cell_lists, plans):
                got = _cell_factors(plan, sample_betting_family(plan, got_rng))
                assert got == _one_dirichlet_per_node(cells, want_rng)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_empty_cell_list_draws_nothing(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert sample_betting_family(node_plan([]), rng) == []
        assert rng.bit_generator.state == state

    def test_one_height_per_interval_of_each_node(self, cell_lists):
        # every slot of the flat list is read by some cell, and a cell's
        # factor at depth d is a slot of a node facing d + 1 intervals
        for cells in cell_lists:
            plan = node_plan(cells)
            slots = range(int(plan.sizes.sum()))
            read = {i for get in plan.getters for i in get(slots)}
            assert read == set(slots)
            owner = np.repeat(plan.sizes, plan.sizes)
            for get in plan.getters:
                assert [int(owner[i]) for i in get(slots)] == list(range(1, len(get(slots)) + 1))


class TestCellTreeBitIdentity:
    @pytest.mark.parametrize("horizon", range(1, 8))
    def test_matches_walk_before_memo(self, horizon):
        for model in _TREE_MODELS:
            for measure in (IdentityMeasure(), DistanceToMeanMeasure()):
                got = cell_tree(model, measure, horizon)
                assert got == _cell_tree_before_memo(model, measure, horizon, keep_weights=True)


class TestEVariableExpectation:
    def test_constant_statistic(self):
        got = evariable_expectation(lambda bits: 1.0, [0.0, 0.3, 1.0], 6)
        assert got == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)

    def test_fair_bet_on_first_bit(self):
        [got] = evariable_expectation(lambda bits: 2.0 * bits[0], [0.5], 4)
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_eprocess_statistic_is_evariable(self):
        model = iid_model([0.5, 0.5])

        def statistic(bits):
            return run_eprocess(bits, model)[-1].value

        [got] = evariable_expectation(statistic, [0.5], 10)
        assert got <= 1.0 + 1e-12

    def test_guards(self):
        with pytest.raises(ValueError):
            evariable_expectation(lambda bits: 1.0, [0.5], 21)
        with pytest.raises(ValueError):
            evariable_expectation(lambda bits: 1.0, [1.5], 3)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_n_is_not_truncated(self, n):
        shown = re.escape(repr(n))
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {shown}$"):
            evariable_expectation(lambda bits: 1.0, [0.5], n)

    def test_integral_float_n_is_read(self):
        assert evariable_expectation(lambda bits: 2.0 * bits[0], [0.5], 3.0) == [1.0]

    def test_matches_probability_per_string(self):
        # the form before the grid: one enumeration per theta, each string's
        # probability computed from its own count of ones, bit for bit
        def statistic(bits):
            return (1.7 * sum(bits) + bits[0]) / (1.0 + bits[-1])

        thetas = [i / 10.0 for i in range(11)]
        for n in range(1, 12):
            got = evariable_expectation(statistic, thetas, n)
            assert got == [_per_string(statistic, theta, n) for theta in thetas]

    def test_zero_probability_strings_are_masked(self):
        # at theta 0 and 1 only one string has probability > 0; the statistic
        # is inf or NaN on every other string, and neither reaches the sum
        def statistic(bits):
            if 0 < sum(bits) < len(bits):
                return math.inf if bits[0] else math.nan
            return 3.0 if bits[0] else 0.25

        for n in (1, 2, 5):
            got = evariable_expectation(statistic, [0.0, 1.0, 0], n)
            assert got == [0.25, 3.0, 0.25]
            assert got == [_per_string(statistic, theta, n) for theta in (0.0, 1.0, 0)]

    def test_repeated_and_unordered_thetas(self):
        def statistic(bits):
            return math.exp(sum(bits) - 1.3 * bits[-1])

        thetas = [0.7, 0.2, 0.7, 1.0, 0.0, 0.2, 0.45]
        got = evariable_expectation(statistic, thetas, 7)
        assert got == [_per_string(statistic, theta, 7) for theta in thetas]
        assert got[0] == got[2] and got[1] == got[5]

    def test_one_statistic_call_per_string(self):
        calls = []

        def statistic(bits):
            calls.append(bits)
            return 1.0

        evariable_expectation(statistic, [i / 10.0 for i in range(11)], 6)
        assert sorted(calls) == list(itertools.product((0, 1), repeat=6))

    def test_empty_theta_list_calls_nothing(self):
        def statistic(bits):
            raise AssertionError("statistic called")

        assert evariable_expectation(statistic, [], 5) == []

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5, math.inf])
    def test_bad_theta_refused_before_any_call(self, bad):
        def statistic(bits):
            raise AssertionError("statistic called")

        with pytest.raises(ValueError, match=r"^theta must lie in \[0, 1\]"):
            evariable_expectation(statistic, [0.5, bad], 4)


def _per_string(statistic, theta, n):
    """evariable_expectation for one theta as it was before the grid form,
    kept as the bit-for-bit reference: each string's probability computed
    from its own count of ones."""
    terms = []
    for bits in itertools.product((0, 1), repeat=n):
        ones = sum(bits)
        prob = theta**ones * (1.0 - theta) ** (n - ones)
        if prob > 0.0:
            terms.append(prob * float(statistic(bits)))
    return math.fsum(terms)


class TestEngineAgreement:
    def test_factor_products_telescope_to_cell_mass(self):
        model = markov_model(0.1, 0.1)
        cells = cell_tree(model, IdentityMeasure(), 4)
        for cell in cells:
            assert math.prod(cell.bk_heights) == pytest.approx(
                math.factorial(4) * cell.q_mass, rel=1e-10, abs=1e-12
            )
