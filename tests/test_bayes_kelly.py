import itertools
import math

import numpy as np
import pytest

from ctmkit import bayes_kelly
from ctmkit import (
    AlternativeModel,
    BayesKellyBettor,
    CollapsedBayesKellyBettor,
    DistanceToMeanMeasure,
    HiddenStateModel,
    HypothesisSet,
    IdentityMeasure,
    PointMassModel,
    TableModel,
    bayes_kelly_bettor,
    changepoint_model,
    extend,
    iid_model,
    markov_model,
    tie_counts,
)


def _ternary_hidden_state():
    """Two hidden states over three symbols: a sticky regime switch."""
    T = np.empty((2, 3, 2))
    T[0] = np.outer([0.6, 0.3, 0.1], [0.9, 0.1])
    T[1] = np.outer([0.1, 0.2, 0.7], [0.2, 0.8])
    return HiddenStateModel([0.5, 0.5], T)


def _weights(hset):
    """Candidate prefix -> weight."""
    return {tuple(int(z) for z in row): float(w) for row, w in zip(hset.prefixes, hset.weights)}


def _second_step(model, p1=0.5):
    """Explicit bettor on ``model`` after settling step 1 at ``p1``: its
    step-2 candidates are the model's length-2 prefixes."""
    b = BayesKellyBettor(model, IdentityMeasure())
    b.update(p1)
    return b


class _FixedRowModel(AlternativeModel):
    """Binary model whose every conditional is the given row, unchecked."""

    def __init__(self, row):
        super().__init__(2)
        self.row = np.asarray(row, dtype=float)

    def conditional(self, prefix):
        return self.row


class TestHypothesisSet:
    def test_root(self):
        root = HypothesisSet.root()
        assert root.step == 0
        assert len(root) == 1
        assert root.total_weight == 1.0


class TestExtend:
    def test_deterministic_law_drops_zero_children(self):
        ext = extend(HypothesisSet.root(), iid_model([0.0, 1.0]))
        assert _weights(ext) == {(1,): 1.0}

    def test_one_step_law(self):
        ext = extend(HypothesisSet.root(), iid_model([0.7, 0.3]))
        assert _weights(ext) == pytest.approx({(0,): 0.7, (1,): 0.3}, abs=1e-15)

    def test_symmetric_markov_products(self):
        model = markov_model(0.1, 0.1)
        two = extend(extend(HypothesisSet.root(), model), model)
        want = {(0, 0): 0.45, (0, 1): 0.05, (1, 0): 0.05, (1, 1): 0.45}
        assert _weights(two) == pytest.approx(want, abs=1e-15)

    def test_empty_set_rejected(self):
        empty = HypothesisSet(step=1, prefixes=np.zeros((0, 1), dtype=np.int16),
                              weights=np.zeros(0))
        with pytest.raises(ValueError):
            extend(empty, iid_model([0.5, 0.5]))

    @pytest.mark.parametrize("row", [[-0.5, 1.5], [np.nan, 1.0], [np.inf, 1.0],
                                     [0.5, 0.25, 0.25]])
    def test_bad_model_output_rejected(self, row):
        # wrong width, negative, NaN or infinite conditionals
        with pytest.raises(ValueError, match="conditional batch"):
            extend(HypothesisSet.root(), _FixedRowModel(row))
        with pytest.raises(ValueError, match="conditional batch"):
            BayesKellyBettor(_FixedRowModel(row), IdentityMeasure()).next_density()


class TestPredictiveDensity:
    def test_first_step_uniform_for_any_model(self):
        for model in (iid_model([0.5, 0.5]), changepoint_model(0.5, 0.9, 0.2),
                      TableModel.random(3, depth=2, rng=np.random.default_rng(0))):
            d = BayesKellyBettor(model, IdentityMeasure()).next_density()
            assert d.heights == (1.0,)

    def test_fully_tied_candidate(self):
        # step-2 candidate set {(1, 1): 1.0}
        d = _second_step(PointMassModel([1, 1])).next_density()
        assert d.heights == (1.0, 1.0)

    def test_untied_candidate(self):
        # step-2 candidate set {(1, 0): 1.0}
        d = _second_step(PointMassModel([1, 0])).next_density()
        assert d.heights == (2.0, 0.0)


class TestCondition:
    def test_incompatible_candidate_removed(self):
        b = _second_step(PointMassModel([1, 0]))  # p_2 interval [0, 1/2]
        b.update(0.7)
        assert len(b.hypothesis_set) == 0

    def test_unit_tie_count_keeps_weight(self):
        # step-2 set {(0, 1): 0.4, (1, 0): 0.6}; (0, 1) has p_2 interval [1/2, 1]
        model = TableModel(2, [[0.4, 0.6], [0.0, 1.0], [1.0, 0.0]], depth=2)
        b = _second_step(model)
        b.update(0.2)
        assert _weights(b.hypothesis_set) == {(1, 0): 0.6}

    def test_tie_rule_reweights(self):
        # step-2 set {(1, 1): 0.5, (1, 0): 0.5}: k = 2 and k = 1
        model = TableModel(2, [[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]], depth=2)
        b = _second_step(model)
        b.update(0.3)
        got = _weights(b.hypothesis_set)
        assert got[(1, 1)] == pytest.approx(0.25, abs=1e-15)
        assert got[(1, 0)] == pytest.approx(0.5, abs=1e-15)


def _brute_posterior(model, measure, ps):
    """All prefixes compatible with the realized p-path, weighted by
    Q(prefix) times the product of 1/k over steps."""
    out = {}
    n = len(ps)
    for prefix in itertools.product(range(model.alphabet_size), repeat=n):
        log_q = model.sequence_log_probability(prefix)
        if log_q == -math.inf:
            continue
        weight = math.exp(log_q)
        alive = True
        for j in range(1, n + 1):
            window = np.asarray(prefix[:j], dtype=float)
            n_star, n_upper = tie_counts(measure.scores(window))
            if not n_star <= ps[j - 1] * j <= n_upper:
                alive = False
                break
            weight /= n_upper - n_star
        if alive:
            out[prefix] = weight
    return out


class TestBayesKellyBettor:
    def test_first_factor_is_one(self):
        b = BayesKellyBettor(iid_model([0.5, 0.5]), IdentityMeasure())
        b.next_density()
        assert b.update(0.37) == 1.0
        assert b.steps_taken == 1
        assert b.wealth == 1.0
        assert b.log_wealth == 0.0

    def test_each_step_extends_through_the_module_function(self, monkeypatch):
        # the benchmark's traced replay counts candidates by patching
        # bayes_kelly.extend, so the explicit engine must call it from there
        sizes = []

        def recorded(hset, model, original=bayes_kelly.extend):
            out = original(hset, model)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(bayes_kelly, "extend", recorded)
        b = BayesKellyBettor(markov_model(0.1, 0.1), IdentityMeasure())
        for p in (0.3, 0.8, 0.1):  # (1, 0) misses p_2 = 0.8
            b.update(p)
        assert sizes == [2, 4, 6]

    @pytest.mark.parametrize("engine, model", [
        (BayesKellyBettor, PointMassModel([1, 0], alphabet_size=2)),
        (BayesKellyBettor, markov_model(1.0, 1.0, 1.0)),
        (CollapsedBayesKellyBettor, markov_model(1.0, 1.0, 1.0)),
    ], ids=["explicit-pointmass", "explicit-markov", "collapsed-markov"])
    def test_zero_density_is_absorbing_with_unit_factors(self, engine, model):
        # every model here starts 1, 0 with probability one
        b = engine(model, IdentityMeasure())
        assert b.next_density().heights == (1.0,)
        assert b.update(0.3) == 1.0
        assert b.next_density().heights == (2.0, 0.0)
        assert b.update(0.8) == 0.0  # outside the candidate interval
        assert b.dead
        assert b.wealth == 0.0
        for p in (0.1, 0.9):
            d = b.next_density()
            assert d.heights == (1.0,) * d.n
            assert b.update(p) == 1.0
            assert b.wealth == 0.0
        assert b.log_wealth == -math.inf

    def test_posterior_matches_brute_force(self):
        rng = np.random.default_rng(13)
        model = TableModel.random(3, depth=2, rng=rng)
        measure = DistanceToMeanMeasure()
        for _ in range(10):
            b = BayesKellyBettor(model, measure)
            ps = []
            for n in range(1, 5):
                b.next_density()
                p = float(rng.random())
                ps.append(p)
                b.update(p)
            want = _brute_posterior(model, measure, ps)
            got = _weights(b.hypothesis_set)
            assert set(got) == set(want)
            for key, value in want.items():
                assert got[key] == pytest.approx(value, abs=1e-12)


class TestCollapse:
    @pytest.mark.parametrize("model_factory, seed", [
        (lambda: changepoint_model(0.5, 0.9, 0.2), 21),
        (lambda: markov_model(0.1, 0.1), 21),
        (lambda: changepoint_model(0.5, 0.9, 0.2), 22),
        (lambda: markov_model(0.1, 0.1), 23),
    ])
    def test_collapsed_matches_full_horizon_8(self, model_factory, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            model = model_factory()
            full = BayesKellyBettor(model, IdentityMeasure())
            fast = CollapsedBayesKellyBettor(model, IdentityMeasure())
            for n in range(1, 9):
                hf = full.next_density().heights
                hc = fast.next_density().heights
                assert hf == pytest.approx(hc, abs=1e-12)
                p = float(rng.random())
                assert full.update(p) == pytest.approx(fast.update(p), abs=1e-12)
                # log wealth is log n! plus the log of the posterior mass
                assert full.log_wealth == pytest.approx(fast.log_wealth, abs=1e-12)

    def test_refuses_non_identity_measure(self):
        with pytest.raises(TypeError):
            CollapsedBayesKellyBettor(changepoint_model(0.5, 0.9, 0.2), DistanceToMeanMeasure())

    def test_refuses_non_binary_model(self):
        with pytest.raises(TypeError):
            CollapsedBayesKellyBettor(iid_model([0.2, 0.3, 0.5]), IdentityMeasure())
        with pytest.raises(TypeError):
            CollapsedBayesKellyBettor(_ternary_hidden_state(), IdentityMeasure())

    def test_factory_auto_selection(self):
        binary = changepoint_model(0.5, 0.9, 0.2)
        assert isinstance(
            bayes_kelly_bettor(binary, IdentityMeasure()), CollapsedBayesKellyBettor
        )
        assert isinstance(
            bayes_kelly_bettor(binary, DistanceToMeanMeasure()), BayesKellyBettor
        )
        for ternary in (iid_model([0.2, 0.3, 0.5]), _ternary_hidden_state()):
            assert isinstance(bayes_kelly_bettor(ternary, IdentityMeasure()), BayesKellyBettor)


class TestDensityLaw:
    def test_density_invariants_random_scenarios(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            model = TableModel.random(m, depth=int(rng.integers(1, 4)), rng=rng)
            measure = DistanceToMeanMeasure() if rng.random() < 0.5 else IdentityMeasure()
            b = BayesKellyBettor(model, measure)
            for n in range(1, int(rng.integers(2, 8))):
                d = b.next_density()
                assert math.fsum(d.heights) / d.n == pytest.approx(1.0, abs=1e-12)
                assert min(d.heights) >= 0.0
                assert max(d.heights) <= d.n * (1.0 + 1e-12)
                b.update(float(rng.random()))
