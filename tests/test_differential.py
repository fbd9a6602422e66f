"""One seeded differential checker for every pair of Bayes-Kelly engines.

One comparison (``gap``) checks two runs of bets within ``TOL`` = 1e-12,
and one rule (``cell_of``, as the engines settle) maps a p-path to its
oracle cell.  It checks the oracle against the explicit and the collapsed
engine on every cell at horizon <= 6, explicit against collapsed at
horizons 6 to 10, and each engine against metamorphic twins of random
models, which reach many hidden states without the oracle.  Beside it,
``TestCarriedStates`` checks the explicit engine against a twin that
refolds each candidate's whole prefix: bit for bit on the shipped models,
within 1e-12 on random ones (a gemm step may round unlike a gemv one).
"""

import functools
import math
from collections import namedtuple

import numpy as np
import pytest

from ctmkit import (
    AlternativeModel,
    BayesKellyBettor,
    CollapsedBayesKellyBettor,
    ConstantBettor,
    DistanceToMeanMeasure,
    HiddenStateModel,
    HypothesisSet,
    IdentityMeasure,
    PointMassModel,
    bayes_kelly,
    bayes_kelly_bettor,
    cell_tree,
    changepoint_model,
    ctm_run,
    iid_model,
    markov_model,
)
from ctmkit.betting import grid_index
from ctmkit.harness import substream

from helpers import (RANDOM_HIDDEN, grid_pvalues, prefix_weights, random_binary_hidden_state,
                     random_hidden_state, random_table, state_after)

TOL = 1e-12
MEASURES = {"identity": IdentityMeasure, "distmean": DistanceToMeanMeasure}

# one settled step; a reference that does not fix a field holds None there
Bet = namedtuple("Bet", "heights factor log_wealth dead")


def bets(bettor, ps) -> list:
    """The bets of ``bettor`` fed the p-values ``ps``: each step's density,
    then the factor its p pays, then the wealth and ``dead`` after it."""
    return [Bet(bettor.next_density().array, bettor.update(p), bettor.log_wealth, bettor.dead)
            for p in ps]


def gap(got, want) -> float:
    """Largest gap between two runs of bets over the fields ``want`` fixes, inf
    where lengths, grid sizes or ``dead`` differ; two -inf log wealths agree."""
    if len(got) != len(want):
        return math.inf
    worst = [0.0]
    for g, w in zip(got, want):
        if (w.dead is not None and g.dead != w.dead) or (
                w.heights is not None and len(g.heights) != len(w.heights)):
            return math.inf
        if w.heights is not None:
            worst.append(np.abs(g.heights - w.heights).max())
        for a, b in ((g.factor, w.factor), (g.log_wealth, w.log_wealth)):
            worst.append(0.0 if a == b else abs(a - b))
    return float(np.max(worst))


def engines(model, measure) -> list:
    """The explicit engine, and the collapsed one where ``bayes_kelly_bettor`` picks it."""
    collapses = type(bayes_kelly_bettor(model, measure)) is CollapsedBayesKellyBettor
    return [BayesKellyBettor] + [CollapsedBayesKellyBettor] * collapses


def cell_of(ps) -> tuple:
    """The oracle cell a p-path falls in: each p's grid interval, as
    ``grid_index`` gives it, with p = 1 in the last one."""
    return tuple(min(grid_index(p, n), n - 1) for n, p in enumerate(ps, start=1))


def midpoints(cells) -> list:
    """One p-path per cell: the midpoint of each of its grid intervals."""
    return [[(i + 0.5) / n for n, i in enumerate(c.intervals, start=1)] for c in cells]


def oracle_gaps(engine, model, measure, cells, paths) -> tuple:
    """Largest bet gap (factor and log wealth) and largest leaf-posterior gap
    of ``engine`` fed each of ``paths``, against the cell the path falls in.
    Only the explicit engine has a posterior over prefixes to compare."""
    by_cell = {c.intervals: c for c in cells}
    bet_gaps, weight_gaps = [0.0], [0.0]
    for ps in paths:
        cell, bettor = by_cell[cell_of(ps)], engine(model, measure)
        log_wealth = np.cumsum([math.log(h) if h > 0.0 else -math.inf for h in cell.bk_heights])
        bet_gaps.append(gap(bets(bettor, ps), [Bet(None, h, w, None) for h, w in zip(
            cell.bk_heights, log_wealth)]))
        if engine is BayesKellyBettor:
            got, want = prefix_weights(bettor.hypothesis_set), cell.final_weights
            weight_gaps.append(max((abs(got[k] - w) for k, w in want.items()), default=0.0)
                               if got.keys() == want.keys() else math.inf)
    return float(np.max(bet_gaps)), float(np.max(weight_gaps))


# name: (seed, model drawn from default_rng(seed), measure, horizon); the
# same generator then draws the case's uniform p-paths
ORACLE_CASES = {
    "changepoint": (0, lambda rng: changepoint_model(0.5, 0.9, 0.2), "identity", 5),
    "markov": (1, lambda rng: markov_model(0.1, 0.1), "identity", 5),
    "changepoint-distmean": (2, lambda rng: changepoint_model(0.3, 0.8, 0.05), "distmean", 5),
    "table3-distmean": (123, lambda rng: random_table(3, depth=3, rng=rng), "distmean", 4),
    "table3-depth2-distmean": (13, lambda rng: random_table(3, depth=2, rng=rng), "distmean", 4),
    "iid-ternary": (3, lambda rng: iid_model([0.2, 0.3, 0.5]), "identity", 4),
    **{f"random-{hidden}": ([hidden, 0], lambda rng, h=hidden: random_binary_hidden_state(rng, h),
                            "identity", 5) for hidden in (1, 2, 3, 7, 8)},
    **{f"ternary-{hidden}-{measure}": ([3, hidden], lambda rng, h=hidden: random_hidden_state(
        rng, h, 3), measure, 4) for hidden in (2, 3) for measure in MEASURES},
}


@functools.cache
def _oracle_case(name):
    """The case's model, measure, cells, and 60 uniform p-paths."""
    seed, make, measure, horizon = ORACLE_CASES[name]
    rng = np.random.default_rng(seed)
    model, measure = make(rng), MEASURES[measure]()
    cells = cell_tree(model, measure, horizon)
    return model, measure, cells, rng.random((60, horizon)).tolist()


class TestOracle:
    @pytest.mark.parametrize("name, engine", [
        pytest.param(name, engine, id=f"{name}-{engine.__name__}")
        for name in ORACLE_CASES for engine in engines(*_oracle_case(name)[:2])])
    def test_engine_matches_every_cell(self, name, engine):
        model, measure, cells, uniform = _oracle_case(name)
        bet_gap, weight_gap = oracle_gaps(engine, model, measure, cells, midpoints(cells) + uniform)
        assert bet_gap <= TOL and weight_gap <= TOL


BINARY = {
    "changepoint": (changepoint_model(0.5, 0.9, 0.2), 0),
    "markov": (markov_model(0.1, 0.1), 0),
    **{f"random-{hidden}-{seed}": (random_binary_hidden_state(
        np.random.default_rng([hidden, seed]), hidden), seed) for hidden, seed in RANDOM_HIDDEN},
}


def _paths(name) -> list:
    """Horizon-8 uniform p-paths, five per seed, then grid-point p-values (tau
    0 and 1) of data drawn at horizons 6 and 10 from ``default_rng([7, seed])``."""
    model, seed = BINARY[name]
    seeds = {"changepoint": (21, 22), "markov": (21, 23)}.get(name, (21,))
    paths = [ps for s in seeds for ps in np.random.default_rng(s).random((5, 8))]
    if name in ("changepoint", "markov"):  # ten each from one generator, changepoint's first
        paths += list(np.random.default_rng(707).random((2, 10, 8))[int(name == "markov")])
    for tau in (0.0, 1.0):
        rng = np.random.default_rng([7, seed])
        paths += [grid_pvalues(model.sample(horizon, rng), tau) for horizon in (6, 10)]
    return paths


def _engine_gap(model, ps) -> float:
    """Largest gap of the collapsed engine from the explicit one on ``model``."""
    return gap(bets(CollapsedBayesKellyBettor(model, IdentityMeasure()), ps),
               bets(BayesKellyBettor(model, IdentityMeasure()), ps))


def _permuted(model, rng):
    perm = rng.permutation(model.initial.size)
    return HiddenStateModel(model.initial[perm], model.transition[perm][:, :, perm])


def _split(model, rng):
    """Hidden state j split into two copies (the new state H) that share its
    initial mass and its incoming transitions, each with its outgoing ones."""
    H = model.initial.size
    j, share = int(rng.integers(H)), rng.uniform(0.2, 0.8)
    copies, weight = np.append(np.arange(H), j), np.ones(H + 1)
    weight[[j, H]] = share, 1.0 - share
    return HiddenStateModel(model.initial[copies] * weight,
                            model.transition[copies][:, :, copies] * weight)


def _self_mixture(model, rng):
    """The block-diagonal mixture of the model with itself."""
    w = rng.uniform(0.2, 0.8)
    return HiddenStateModel(np.concatenate([w * model.initial, (1.0 - w) * model.initial]),
                            np.kron(np.eye(2)[:, None, :], model.transition))


RELATIONS = {"permuted": _permuted, "split": _split, "self-mixture": _self_mixture}


class TestExplicitAgainstCollapsed:
    @pytest.mark.parametrize("name", BINARY)
    def test_uniform_and_grid_pvalues(self, name):
        assert max(_engine_gap(BINARY[name][0], ps) for ps in _paths(name)) <= TOL

    def test_streams_of_seed_77(self):
        # an instance bayes_kelly_bettor collapses, on the data and tie-breaking
        # streams of simulate --seed 77 --horizon 10 --reps 3 --dgp alt
        model, measure = changepoint_model(0.5, 0.9, 0.2), IdentityMeasure()
        for rep in range(3):
            data = model.sample(10, substream(77, 0, rep, 0))
            taus = substream(77, 0, rep, 1).random(10)
            collapsed = bayes_kelly_bettor(model, measure)
            assert type(collapsed) is CollapsedBayesKellyBettor
            fast = ctm_run(data, measure, collapsed, taus, 10)
            full = ctm_run(data, measure, BayesKellyBettor(model, measure), taus, 10)
            assert len(full) == 10 and [s[:3] for s in full] == [s[:3] for s in fast]
            assert _engine_gap(model, [s.p for s in full]) <= TOL

    @pytest.mark.parametrize("relation", RELATIONS)
    @pytest.mark.parametrize("hidden, seed", RANDOM_HIDDEN)
    def test_metamorphic_relations(self, hidden, seed, relation):
        rng = np.random.default_rng([hidden, seed, 1])
        model = BINARY[f"random-{hidden}-{seed}"][0]
        ps, twin = rng.random(8), RELATIONS[relation](model, rng)
        for engine in (BayesKellyBettor, CollapsedBayesKellyBettor):
            assert gap(bets(engine(twin, IdentityMeasure()), ps),
                       bets(engine(model, IdentityMeasure()), ps)) <= TOL


class _SuccessionModel(AlternativeModel):
    """Laplace's rule of succession over m symbols, a custom model whose
    forward state is the prefix, batched by the default row loops."""

    def start(self):
        return ()

    def advance(self, state, z):
        return state + (int(z),)

    def probs(self, state):
        counts = np.bincount(np.asarray(state, dtype=np.int64), minlength=self.alphabet_size)
        return (counts + 1.0) / (len(state) + self.alphabet_size)


def _folded_extend(hset, model):
    """``extend`` without carried states: each candidate's conditional comes
    from ``advance`` folded over its whole prefix."""
    probs = np.stack([model.probs(state_after(model, row.tolist())) for row in hset.prefixes])
    child_w = (hset.weights[:, None] * probs).ravel()
    keep = child_w > 0.0
    parent, syms = np.divmod(np.flatnonzero(keep), model.alphabet_size)
    prefixes = np.concatenate(
        [hset.prefixes[parent], syms[:, None].astype(hset.prefixes.dtype)], axis=1)
    return HypothesisSet(hset.step + 1, prefixes, child_w[keep], np.zeros(parent.size))


def _check(model, measure_name, seed, horizon, tol, monkeypatch):
    rng = np.random.default_rng(seed)
    measure = MEASURES[measure_name]()
    data = model.sample(horizon, rng)
    ps = [s.p for s in ctm_run(data, measure, ConstantBettor(), rng.random(horizon), horizon)]

    carried = []

    def recorded(hset, model, original=bayes_kelly.extend):
        out = original(hset, model)
        carried.append(out)
        return out

    monkeypatch.setattr(bayes_kelly, "extend", recorded)
    got = bets(BayesKellyBettor(model, measure), ps)
    monkeypatch.setattr(bayes_kelly, "extend", _folded_extend)
    want = bets(BayesKellyBettor(model, measure), ps)
    monkeypatch.undo()

    assert carried and all(len(ext.states) == len(ext) for ext in carried)
    for ext in carried:
        for row, state in zip(ext.prefixes.tolist(), ext.states):
            folded = state_after(model, row)
            if isinstance(folded, np.ndarray):
                assert np.abs(np.asarray(state) - folded).max() <= tol
            else:
                assert state == folded
    assert len(got) == horizon and gap(got, want) <= tol


_TABLES = np.random.default_rng(7)
SHIPPED = {
    "changepoint": (changepoint_model(0.3, 0.8, 0.05), 10),
    "markov": (markov_model(0.1, 0.1), 10),
    "markov_frozen": (markov_model(0.0, 0.0, 1.0), 10),
    "iid_ternary": (iid_model([0.2, 0.3, 0.5]), 6),
    "table_binary": (random_table(2, depth=4, rng=_TABLES), 9),
    "table_ternary": (random_table(3, depth=3, rng=_TABLES), 6),
    "pointmass": (PointMassModel([1, 0, 1, 1, 0], alphabet_size=2), 12),
    "succession": (_SuccessionModel(3), 6),
}


class TestCarriedStates:
    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_models_bit_for_bit(self, name, measure, monkeypatch):
        model, horizon = SHIPPED[name]
        for seed in range(3):
            _check(model, measure, seed, horizon, 0.0, monkeypatch)

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("hidden", [1, 2, 3, 4])
    def test_random_hidden_state_models(self, hidden, m, measure, monkeypatch):
        rng = np.random.default_rng(1000 * hidden + 10 * m + len(measure))
        for seed in range(3):
            model = random_hidden_state(rng, hidden, m)
            _check(model, measure, seed, 9 if m == 2 else 6, 1e-12, monkeypatch)

    @pytest.mark.parametrize("name", ["changepoint", "table_binary", "succession"])
    def test_one_batched_step_per_bet(self, name):
        model, horizon = SHIPPED[name]
        calls = {"probs_batch": [], "advance_batch": []}
        for method, seen in calls.items():
            def counted(*args, _original=getattr(model, method), _seen=seen):
                _seen.append(len(args[-1]))
                return _original(*args)
            setattr(model, method, counted)
        try:
            measure = DistanceToMeanMeasure()
            rng = np.random.default_rng(5)
            data = model.sample(horizon, rng)
            steps = ctm_run(data, measure, ConstantBettor(), rng.random(horizon), horizon)
            bettor = BayesKellyBettor(model, measure)
            for step in steps:
                bettor.next_density()
                before = len(bettor.hypothesis_set)
                bettor.update(step.p)
                assert len(calls["probs_batch"]) == len(calls["advance_batch"]) == bettor.steps_taken
                # the step read each candidate's conditional once
                assert calls["probs_batch"][-1] == before
        finally:
            for method in calls:
                del model.__dict__[method]
