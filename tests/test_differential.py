"""Seeded differential checks of the engines against slower references.

The explicit Bayes-Kelly bettor carries each candidate's forward state from
the step that made it.  The reference below forgets those states: it folds
``model.state_after`` over every candidate's whole prefix at every step.
Both must emit the same heights and factors, bit for bit on the shipped
models and within 1e-12 on random hidden-state models, where a batched
(gemm) step may round differently from a scalar (gemv) one.  The explicit
bettor is in turn the reference for the collapsed one, on an instance both
accept.
"""

import math

import numpy as np
import pytest

from ctmkit import (
    AlternativeModel,
    BayesKellyBettor,
    CollapsedBayesKellyBettor,
    ConstantBettor,
    DistanceToMeanMeasure,
    HypothesisSet,
    IdentityMeasure,
    PointMassModel,
    bayes_kelly,
    bayes_kelly_bettor,
    changepoint_model,
    ctm_run,
    iid_model,
    markov_model,
)
from ctmkit.harness import substream

from helpers import random_hidden_state, random_table

MEASURES = {"identity": IdentityMeasure, "distmean": DistanceToMeanMeasure}


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
    from ``state_after`` folded over its whole prefix."""
    probs = np.stack([model.probs(model.state_after(row.tolist())) for row in hset.prefixes])
    child_w = (hset.weights[:, None] * probs).ravel()
    keep = child_w > 0.0
    parent, syms = np.divmod(np.flatnonzero(keep), model.alphabet_size)
    prefixes = np.concatenate(
        [hset.prefixes[parent], syms[:, None].astype(hset.prefixes.dtype)], axis=1)
    return HypothesisSet(hset.step + 1, prefixes, child_w[keep], np.zeros(parent.size))


def _run(model, measure, ps):
    """Heights and factor of every step of an explicit bettor fed ``ps``."""
    bettor = BayesKellyBettor(model, measure)
    out = []
    for p in ps:
        heights = bettor.next_density().heights
        out.append((heights, bettor.update(p)))
    return out


def _same_state(got, want, tol):
    if isinstance(want, np.ndarray):
        return np.abs(np.asarray(got) - want).max() <= tol
    return got == want


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
    got = _run(model, measure, ps)
    monkeypatch.setattr(bayes_kelly, "extend", _folded_extend)
    want = _run(model, measure, ps)
    monkeypatch.undo()

    assert carried and all(len(ext.states) == len(ext) for ext in carried)
    for ext in carried:
        for row, state in zip(ext.prefixes.tolist(), ext.states):
            assert _same_state(state, model.state_after(row), tol)
    assert len(got) == len(want) == horizon
    for (got_h, got_f), (want_h, want_f) in zip(got, want):
        if tol == 0.0:
            assert got_h == want_h and got_f == want_f
        else:
            assert len(got_h) == len(want_h)
            assert np.abs(np.subtract(got_h, want_h)).max() <= tol
            assert math.isclose(got_f, want_f, rel_tol=0.0, abs_tol=tol)


def _shipped():
    rng = np.random.default_rng(7)
    return {
        "changepoint": (changepoint_model(0.3, 0.8, 0.05), 10),
        "markov": (markov_model(0.1, 0.1), 10),
        "markov_frozen": (markov_model(0.0, 0.0, 1.0), 10),
        "iid_ternary": (iid_model([0.2, 0.3, 0.5]), 6),
        "table_binary": (random_table(2, depth=4, rng=rng), 9),
        "table_ternary": (random_table(3, depth=3, rng=rng), 6),
        "pointmass": (PointMassModel([1, 0, 1, 1, 0], alphabet_size=2), 12),
        "succession": (_SuccessionModel(3), 6),
    }


SHIPPED = _shipped()


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


class TestExplicitAgainstCollapsed:
    def test_full_bettor_matches_collapsed(self):
        # the explicit engine on an instance that bayes_kelly_bettor collapses
        # (binary changepoint alternative, identity measure), on the data and
        # tie-breaking streams of simulate --seed 77 --horizon 10 --reps 3
        # --dgp alt
        model, measure = changepoint_model(0.5, 0.9, 0.2), IdentityMeasure()
        for rep in range(3):
            data = model.sample(10, substream(77, 0, rep, 0))
            taus = substream(77, 0, rep, 1).random(10)
            collapsed = bayes_kelly_bettor(model, measure)
            assert type(collapsed) is CollapsedBayesKellyBettor
            fast = ctm_run(data, measure, collapsed, taus, 10)
            full = ctm_run(data, measure, BayesKellyBettor(model, measure), taus, 10)
            assert len(full) == len(fast) == 10
            for a, b in zip(full, fast):
                assert (a.n_star, a.n_upper, a.p) == (b.n_star, b.n_upper, b.p)
                assert math.isclose(a.factor, b.factor, rel_tol=0.0, abs_tol=1e-12)
