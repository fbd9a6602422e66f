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
)

from helpers import (RANDOM_HIDDEN, grid_pvalues, prefix_weights, random_binary_hidden_state,
                     random_table)


def _ternary_hidden_state():
    """Two hidden states over three symbols: a sticky regime switch."""
    T = np.empty((2, 3, 2))
    T[0] = np.outer([0.6, 0.3, 0.1], [0.9, 0.1])
    T[1] = np.outer([0.1, 0.2, 0.7], [0.2, 0.8])
    return HiddenStateModel([0.5, 0.5], T)


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

    def start(self):
        return None

    def advance(self, state, z):
        return None

    def probs(self, state):
        return self.row


class TestHypothesisSet:
    def test_root(self):
        root = HypothesisSet.root()
        assert root.step == 0
        assert len(root) == 1
        assert root.weights.sum() == 1.0


class TestExtend:
    def test_deterministic_law_drops_zero_children(self):
        ext = extend(HypothesisSet.root(), iid_model([0.0, 1.0]))
        assert prefix_weights(ext) == {(1,): 1.0}

    def test_one_step_law(self):
        ext = extend(HypothesisSet.root(), iid_model([0.7, 0.3]))
        assert prefix_weights(ext) == pytest.approx({(0,): 0.7, (1,): 0.3}, abs=1e-15)

    def test_symmetric_markov_products(self):
        model = markov_model(0.1, 0.1)
        two = extend(extend(HypothesisSet.root(), model), model)
        want = {(0, 0): 0.45, (0, 1): 0.05, (1, 0): 0.05, (1, 1): 0.45}
        assert prefix_weights(two) == pytest.approx(want, abs=1e-15)

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
                      random_table(3, depth=2, rng=np.random.default_rng(0))):
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
        assert prefix_weights(b.hypothesis_set) == {(1, 0): 0.6}

    def test_tie_rule_reweights(self):
        # step-2 set {(1, 1): 0.5, (1, 0): 0.5}: k = 2 and k = 1
        model = TableModel(2, [[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]], depth=2)
        b = _second_step(model)
        b.update(0.3)
        got = prefix_weights(b.hypothesis_set)
        assert got[(1, 1)] == pytest.approx(0.25, abs=1e-15)
        assert got[(1, 0)] == pytest.approx(0.5, abs=1e-15)


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

class TestCollapse:
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
            model = random_table(m, depth=int(rng.integers(1, 4)), rng=rng)
            measure = DistanceToMeanMeasure() if rng.random() < 0.5 else IdentityMeasure()
            b = BayesKellyBettor(model, measure)
            for n in range(1, int(rng.integers(2, 8))):
                d = b.next_density()
                assert math.fsum(d.heights) / d.n == pytest.approx(1.0, abs=1e-12)
                assert min(d.heights) >= 0.0
                assert max(d.heights) <= d.n * (1.0 + 1e-12)
                b.update(float(rng.random()))


def _ref_collapsed_steps(model, ps):
    """The collapsed engine's step as it stood before its step tables, kept
    verbatim (``_predict``, ``_condition``, the clipping in ``_bet`` and the
    old ``p * n`` tests) as the bit-level reference; one (heights, factor,
    log wealth) per p-value.  Valid for p-values off the grid points i/n,
    where the old tests agree with the closed-interval rule."""
    T = model.transition
    W = model.initial[None, :].astype(float).copy()
    dead = False
    log_wealth = 0.0
    out = []
    for n, p in enumerate(ps, start=1):
        if dead:
            heights = np.ones(1)
        else:
            ext = np.zeros((n + 1, 2, W.shape[1]))
            ext[:n, 0, :] = W @ T[:, 0, :]
            ext[1:, 1, :] = W @ T[:, 1, :]
            g = ext.sum(axis=2)
            total = float(g.sum())
            c = np.arange(n + 1)
            k = np.stack([n - c, c], axis=1)
            n_star = np.stack([np.zeros(n + 1, dtype=np.int64), n - c], axis=1)
            n_upper = n_star + k
            ksafe = np.maximum(k, 1)
            v = np.where(g > 0.0, g * n / (ksafe * total), 0.0)
            diff = np.bincount(n_star.ravel(), weights=v.ravel(), minlength=n + 1) - np.bincount(
                n_upper.ravel(), weights=v.ravel(), minlength=n + 1
            )
            heights = np.maximum(np.cumsum(diff)[:n], 0.0)
        factor = float(heights[min(int(p * heights.size), heights.size - 1)])
        if not dead:
            pn = p * n
            alive = (n_star <= pn) & (pn <= n_upper)
            fac = np.where(alive & (g > 0.0), 1.0 / ksafe, 0.0)
            new_W = (ext * fac[:, :, None]).sum(axis=1)
            mass = float(new_W.sum())
            W = new_W / mass if mass > 0.0 else new_W[:0]
            dead = mass <= 0.0
        log_wealth = -math.inf if factor == 0.0 else log_wealth + math.log(factor)
        out.append((heights, factor, log_wealth))
    return out


_SHIPPED_BINARY = {
    "changepoint": lambda: changepoint_model(0.5, 0.9, 0.2),
    "changepoint-slow": lambda: changepoint_model(0.3, 0.8, 0.05),
    "markov": lambda: markov_model(0.1, 0.1),
    "markov-init": lambda: markov_model(0.1, 0.1, 0.5),
    "iid": lambda: iid_model([0.7, 0.3]),
}


class TestCollapsedBits:
    """The collapsed engine emits the same bits as its frozen reference."""

    def _check(self, model, horizon, seed):
        ps = np.random.default_rng(seed).random(horizon).tolist()
        bettor = CollapsedBayesKellyBettor(model, IdentityMeasure())
        for (heights, factor, log_wealth), p in zip(_ref_collapsed_steps(model, ps), ps):
            assert np.array_equal(bettor.next_density().array, heights)
            assert bettor.update(p) == factor
            assert bettor.log_wealth == log_wealth

    @pytest.mark.parametrize("name", sorted(_SHIPPED_BINARY))
    def test_shipped_models(self, name):
        self._check(_SHIPPED_BINARY[name](), 200, 5)

    @pytest.mark.parametrize("hidden, seed", RANDOM_HIDDEN)
    def test_random_hidden_state_models(self, hidden, seed):
        rng = np.random.default_rng([hidden, seed])
        self._check(random_binary_hidden_state(rng, hidden), int(rng.integers(20, 201)), seed)


class TestGridPValues:
    """p-values exactly on a grid point, as constant:0 and constant:1 give."""

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_realized_candidate_survives_explicit(self, tau):
        # tau 0 puts p = 15/22 at step 22, where (15/22)*22 rounds below 15;
        # tau 1 puts p = 14/25 at step 25, where (14/25)*25 rounds above 14
        rng = np.random.default_rng(3)
        data = [0] * 15 + [1] * 7 if tau == 0.0 else [1] * 11 + [0] * 14
        data += rng.integers(0, 2, 8).tolist()
        model = PointMassModel(data, alphabet_size=2)
        bettor = BayesKellyBettor(model, IdentityMeasure())
        for n, p in enumerate(grid_pvalues(data, tau), start=1):
            factor = bettor.update(p)
            assert prefix_weights(bettor.hypothesis_set).keys() == {tuple(data[:n])}, f"step {n}"
            # tau 0 puts p on the first cell the candidate covers; tau 1 on the
            # boundary right after its last one, which belongs to the next cell
            assert factor > 0.0 or tau == 1.0
        assert not bettor.dead

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_realized_candidate_survives_collapsed(self, tau):
        # a hidden-state chain that emits ``data`` and nothing else: the
        # realized window is the only candidate, so pruning it is death
        rng = np.random.default_rng(4)
        data = [0] * 15 + [1] * 7 if tau == 0.0 else [1] * 11 + [0] * 14
        data += rng.integers(0, 2, 8).tolist()
        size = len(data) + 1
        T = np.zeros((size, 2, size))
        T[np.arange(len(data)), data, np.arange(1, size)] = 1.0
        T[-1, 0, -1] = 1.0
        initial = np.eye(size)[0]
        bettor = CollapsedBayesKellyBettor(HiddenStateModel(initial, T), IdentityMeasure())
        explicit = BayesKellyBettor(PointMassModel(data, alphabet_size=2), IdentityMeasure())
        for n, p in enumerate(grid_pvalues(data, tau), start=1):
            assert bettor.update(p) == pytest.approx(explicit.update(p), rel=1e-12)
            assert not bettor.dead, f"step {n}"
        assert bettor.log_wealth == pytest.approx(explicit.log_wealth, rel=1e-12)
