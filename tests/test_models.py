import json
import math
import pickle
import re

import numpy as np
import pytest

from ctmkit import (
    AlternativeModel,
    BayesKellyBettor,
    DistanceToMeanMeasure,
    HiddenStateModel,
    IdentityMeasure,
    PointMassModel,
    TableModel,
    bayes_kelly,
    cell_tree,
    changepoint_model,
    ctm_run,
    iid_model,
    log_ml_sup,
    markov_model,
    models,
    run_eprocess,
)

from helpers import random_hidden_state, random_table


def _conditional_law(model, prefix):
    return model.conditional(prefix).tolist()


def _batched_states(model, rows):
    """Forward states after each row of ``rows``, folded one column at a
    time with ``advance_batch``."""
    states = [model.start()] * len(rows)
    for column in np.asarray(rows).T:
        states = model.advance_batch(states, column)
    return states


class TestChangepoint:
    def test_zero_hazard_is_iid_pre_change(self):
        m = changepoint_model(0.3, 0.9, 0.0)
        for prefix in ([], [0], [1, 1, 0], [1] * 6):
            assert _conditional_law(m, prefix) == pytest.approx([0.7, 0.3], abs=1e-15)

    def test_unit_hazard_is_iid_post_change(self):
        m = changepoint_model(0.3, 0.9, 1.0)
        for prefix in ([], [0], [1, 0, 1]):
            assert _conditional_law(m, prefix) == pytest.approx([0.1, 0.9], abs=1e-15)

    def test_equal_rates_hide_the_change(self):
        for rho in (0.0, 0.2, 0.7):
            m = changepoint_model(0.4, 0.4, rho)
            for prefix in ([], [1, 1], [0, 1, 0]):
                assert _conditional_law(m, prefix) == pytest.approx([0.6, 0.4], abs=1e-14)

    def test_parameter_range_enforced(self):
        with pytest.raises(ValueError):
            changepoint_model(1.5, 0.9, 0.2)
        with pytest.raises(ValueError):
            changepoint_model(0.5, 0.9, -0.1)


class TestMarkov:
    def test_degenerate_markov_is_iid(self):
        theta = 0.3
        m = markov_model(theta, 1.0 - theta, theta)
        for prefix in ([], [0], [1], [1, 0, 1]):
            assert _conditional_law(m, prefix) == pytest.approx(
                [1.0 - theta, theta], abs=1e-15
            )

    def test_frozen_chain(self):
        m = markov_model(0.0, 0.0)
        assert _conditional_law(m, [1]) == [0.0, 1.0]
        assert _conditional_law(m, [0, 0, 0]) == [1.0, 0.0]

    def test_conditional_after_one(self):
        m = markov_model(0.2, 0.1)
        assert _conditional_law(m, [1]) == pytest.approx([0.1, 0.9], abs=1e-15)

    def test_default_start_is_even(self):
        m = markov_model(0.2, 0.1)
        assert _conditional_law(m, []) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_parameter_range_enforced(self):
        with pytest.raises(ValueError):
            markov_model(0.1, 1.2)


class TestHiddenStateModel:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            HiddenStateModel([1.0], np.ones((2, 2, 2)) / 4)
        with pytest.raises(ValueError):
            HiddenStateModel([0.5, 0.5], np.ones((2, 2)))
        with pytest.raises(ValueError):
            HiddenStateModel([1.0], np.ones((1, 3, 2)) / 6)
        with pytest.raises(ValueError):
            HiddenStateModel([0.5, 0.5], np.ones((2, 6)) / 6)
        with pytest.raises(ValueError, match="alphabet size"):
            HiddenStateModel([1.0], np.ones((1, 1, 1)))

    def test_alphabet_read_from_transition(self):
        m = HiddenStateModel([0.5, 0.5], np.ones((2, 3, 2)) / 6)
        assert m.alphabet_size == 3
        assert _conditional_law(m, [2, 0]) == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_normalization_validation(self):
        bad = np.ones((1, 2, 1))
        with pytest.raises(ValueError):
            HiddenStateModel([1.0], bad)
        # every comparison with NaN is False: NaN laws must fail, not pass
        T = np.full((2, 2, 2), 0.25)
        with pytest.raises(ValueError, match="initial"):
            HiddenStateModel([math.nan, 1.0], T)
        T[1, 0, 0] = math.nan
        with pytest.raises(ValueError, match="transition row 1"):
            HiddenStateModel([0.5, 0.5], T)

    def test_impossible_prefix_rejected(self):
        m = changepoint_model(1.0, 1.0, 0.0)  # always emits 1
        with pytest.raises(ValueError, match="probability zero"):
            m.conditional([0])

    def test_sequence_log_probability(self):
        m = markov_model(0.2, 0.1, 0.5)
        seq = [1, 0, 1]
        want = math.log(0.5) + math.log(0.1) + math.log(0.2)
        assert m.sequence_log_probability(seq) == pytest.approx(want, abs=1e-14)

    def test_impossible_sequence_log_probability(self):
        m = markov_model(0.0, 0.0, 1.0)
        assert m.sequence_log_probability([1, 0]) == -math.inf

    def test_sample_reproducible(self):
        m = changepoint_model(0.5, 0.9, 0.2)
        a = m.sample(20, np.random.default_rng(3))
        b = m.sample(20, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {0, 1}

    def test_conditional_batch_matches_loop(self):
        m = changepoint_model(0.5, 0.9, 0.2)
        prefixes = np.random.default_rng(4).integers(0, 2, size=(16, 5))
        batch = m.conditional_batch(_batched_states(m, prefixes))
        for row, got in zip(prefixes, batch):
            assert np.allclose(got, m.conditional(row), atol=1e-15)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("H", [2, 3, 4, 8])
    def test_conditional_batch_within_rounding_on_random_models(self, m, H):
        # a batch row is a gemm block where conditional steps with gemv, so
        # on general models the two agree to rounding, not bit for bit
        rng = np.random.default_rng(100 * m + H)
        for _ in range(5):
            transition = rng.dirichlet(np.ones(m * H), size=H).reshape(H, m, H)
            model = HiddenStateModel(rng.dirichlet(np.ones(H)), transition)
            for length in range(6 if m == 2 else 4):
                rows = _all_sequences(m, length)
                want = np.stack([model.conditional(row) for row in rows])
                got = model.conditional_batch(_batched_states(model, rows))
                assert np.abs(got - want).max() <= 1e-12


class TestIid:
    def test_binary_factory_collapse_eligible(self):
        m = iid_model([0.4, 0.6])
        assert isinstance(m, HiddenStateModel)
        assert m.initial.size == 1
        assert _conditional_law(m, [0, 1]) == pytest.approx([0.4, 0.6], abs=1e-15)

    def test_ternary_factory(self):
        m = iid_model([0.2, 0.3, 0.5])
        assert isinstance(m, HiddenStateModel)
        assert m.initial.size == 1
        assert m.alphabet_size == 3
        assert _conditional_law(m, [2, 0]) == pytest.approx([0.2, 0.3, 0.5], abs=1e-15)

    def test_invalid_law_rejected(self):
        with pytest.raises(ValueError):
            iid_model([0.5, 0.6])
        with pytest.raises(ValueError):
            iid_model([1.0])
        with pytest.raises(ValueError):
            iid_model([math.nan, 0.5])
        with pytest.raises(ValueError):
            iid_model([math.inf, 0.5, 0.5])


class _FixedDraw:
    """Generator stub whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_sample_never_draws_a_zero_probability_last_symbol():
    # the normalised law's cumulative sum ends at 1 - 2**-53, so the largest
    # uniform draw lands past the last symbol, whose probability is 0
    model = iid_model([0.8006520409183475, 0.19934795908165262, 0.0])
    u = 1.0 - 2.0**-53
    assert np.cumsum(model.probs(model.start()))[-1] <= u
    assert model.sample(5, _FixedDraw(u)).tolist() == [1] * 5
    # a law whose sum reaches 1 keeps its last symbol for the same draw
    assert iid_model([0.5, 0.5]).sample(1, _FixedDraw(u)).tolist() == [1]


class TestPointMass:
    def test_one_hot_conditionals(self):
        m = PointMassModel([1, 0, 1], alphabet_size=2)
        assert _conditional_law(m, []) == [0.0, 1.0]
        assert _conditional_law(m, [1]) == [1.0, 0.0]
        assert _conditional_law(m, [1, 0]) == [0.0, 1.0]

    def test_repeats_last_symbol_beyond_end(self):
        m = PointMassModel([1, 0], alphabet_size=2)
        assert _conditional_law(m, [1, 0, 0, 0]) == [1.0, 0.0]

    def test_symbol_range_checked(self):
        with pytest.raises(ValueError):
            PointMassModel([0, 3], alphabet_size=2)

    @pytest.mark.parametrize("sequence, position, shown", [
        ([1.9, 0], 0, "1.9"), ([1, -1], 1, "-1"), ([0, 1, math.nan], 2, "nan"),
    ])
    def test_symbols_are_neither_wrapped_nor_truncated(self, sequence, position, shown):
        # int(z) would read 1.9 as 1
        message = (rf"^point-mass symbols must be in range\(2\), "
                   rf"got {re.escape(shown)} at position {position}$")
        with pytest.raises(ValueError, match=message):
            PointMassModel(sequence)

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: PointMassModel([1, 0], alphabet_size=2.7),
                     "alphabet_size must be an integer, got 2.7", id="pointmass-2.7"),
        pytest.param(lambda: PointMassModel([1, 0], alphabet_size=True),
                     "alphabet_size must be an integer, got True", id="pointmass-True"),
        pytest.param(lambda: TableModel(2.9, [[0.5, 0.5]], depth=1.8),
                     "alphabet_size must be an integer, got 2.9", id="table-2.9"),
        pytest.param(lambda: TableModel(2, [[0.5, 0.5]], depth=1.8),
                     "depth must be an integer, got 1.8", id="table-depth-1.8"),
    ])
    def test_sizes_are_not_truncated(self, build, message):
        # int() would read 2.7 as 2 and 1.8 as 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_integer_valued_symbols_are_read_as_ints(self):
        for sequence in ([1, 0, 1], (True, False, True), [1.0, 0.0, 1.0],
                         np.array([1, 0, 1], dtype=np.int8)):
            model = PointMassModel(sequence)
            assert model.sequence == (1, 0, 1)
            assert {type(z) for z in model.sequence} == {int}
        with pytest.raises(ValueError, match="non-empty"):
            PointMassModel([])

    def test_sample_returns_the_sequence(self):
        m = PointMassModel([1, 0, 1], alphabet_size=2)
        assert m.sample(3, np.random.default_rng(0)).tolist() == [1, 0, 1]


class TestTableModel:
    def test_random_rows_are_laws(self):
        rng = np.random.default_rng(5)
        m = random_table(3, depth=2, rng=rng)
        for prefix in ([], [0], [2, 1], [1, 2, 0]):
            law = m.conditional(prefix)
            assert law.shape == (3,)
            assert math.fsum(law.tolist()) == pytest.approx(1.0, abs=1e-12)
            assert min(law) >= 0.0

    def test_uniform_beyond_depth(self):
        rng = np.random.default_rng(6)
        m = random_table(2, depth=1, rng=rng)
        assert _conditional_law(m, [0, 1]) == [0.5, 0.5]
        assert _conditional_law(m, [1, 1, 0]) == [0.5, 0.5]

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(7)
        m = random_table(4, depth=3, rng=rng)
        prefixes = rng.integers(0, 4, size=(25, 3))
        batch = m.conditional_batch(_batched_states(m, prefixes))
        for row, got in zip(prefixes, batch):
            assert np.array_equal(got, m.conditional(row))

    def test_from_json_round_trip(self, tmp_path):
        payload = {
            "alphabet_size": 2,
            "conditionals": {
                "": [0.25, 0.75],
                "0": [0.5, 0.5],
                "1": [0.9, 0.1],
            },
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        m = TableModel.from_json(path)
        assert _conditional_law(m, []) == [0.25, 0.75]
        assert _conditional_law(m, [1]) == [0.9, 0.1]
        assert _conditional_law(m, [1, 0]) == [0.5, 0.5]

    def test_from_json_rejects_bad_law(self, tmp_path):
        for law in ([0.7, 0.7], [math.nan, 0.5]):  # json writes NaN as NaN
            payload = {"alphabet_size": 2, "conditionals": {"": law}}
            path = tmp_path / "table.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            with pytest.raises(ValueError, match="conditional row 0"):
                TableModel.from_json(path)

    @pytest.mark.parametrize("size", [2.7, True, False, None, "2.5", math.inf, [2], "abc"])
    def test_from_json_refuses_a_non_integer_alphabet_size(self, tmp_path, size):
        # int() would read 2.7 as 2 and true as 1
        payload = {"alphabet_size": size, "conditionals": {"": [0.5, 0.5]}}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="^alphabet_size must be an integer, got "):
            TableModel.from_json(path)

    @pytest.mark.parametrize("size", [2, 2.0, "2"])
    def test_from_json_reads_an_integer_valued_alphabet_size(self, tmp_path, size):
        payload = {"alphabet_size": size, "conditionals": {"": [0.25, 0.75]}}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        m = TableModel.from_json(path)
        assert m.alphabet_size == 2 and type(m.alphabet_size) is int
        assert _conditional_law(m, []) == [0.25, 0.75]

    @pytest.mark.parametrize("key, shown, position", [
        ("0,2", "'2'", 1), ("-1", "'-1'", 0), ("0.5", "'0.5'", 0), ("1,nan", "'nan'", 1),
    ])
    def test_from_json_refuses_prefix_symbols_outside_the_alphabet(self, tmp_path, key,
                                                                    shown, position):
        payload = {"alphabet_size": 2, "conditionals": {"": [0.5, 0.5], key: [0.5, 0.5]}}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        message = (rf"^conditionals\[{re.escape(repr(key))}\] symbols must be in range\(2\), "
                   rf"got {re.escape(shown)} at position {position}$")
        with pytest.raises(ValueError, match=message):
            TableModel.from_json(path)

    @pytest.mark.parametrize("row", [0.5, [1.0], [0.2, 0.3, 0.5], [[0.5, 0.5]]])
    def test_from_json_rejects_malformed_row(self, tmp_path, row):
        payload = {"alphabet_size": 2, "conditionals": {"": [0.5, 0.5], "1": row}}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=r"conditionals\['1'\]"):
            TableModel.from_json(path)


# -- forward states against the prefix-refolding algorithm -----------------------
#
# The reference below is the algorithm the forward-state interface replaced:
# every conditional is recomputed from the whole prefix.  The forward-state
# callers must reproduce it bit for bit, so these tests compare with ``==``,
# never with a tolerance.


def _ref_conditional(model, prefix):
    prefix = tuple(int(z) for z in prefix)
    m = model.alphabet_size
    if isinstance(model, PointMassModel):
        out = np.zeros(m)
        out[model.sequence[min(len(prefix), len(model.sequence) - 1)]] = 1.0
        return out
    if isinstance(model, TableModel):
        if len(prefix) >= model.depth:
            return np.full(m, 1.0 / m)
        code = 0
        for z in prefix:
            code = code * m + z
        return model.probs((m ** len(prefix) - 1) // (m - 1) + code)
    if isinstance(model, LaplaceModel):
        p1 = (sum(prefix) + 1.0) / (len(prefix) + 2.0)
        return np.array([1.0 - p1, p1])
    state = model.initial
    for z in prefix:
        state = state @ model.transition[:, z, :]
        total = float(state.sum())
        if total <= 0.0:
            raise ValueError("prefix has probability zero under this model")
        state = state / total
    if m == 2:
        p1 = float(state @ model.transition[:, 1, :].sum(axis=1))
        p0 = float(state @ model.transition[:, 0, :].sum(axis=1))
        return np.array([p0, p1]) / (p0 + p1)
    pp = [float(state @ model.transition[:, z, :].sum(axis=1)) for z in range(m)]
    return np.array(pp) / sum(pp)


def _ref_sample(model, horizon, rng):
    out = np.empty(horizon, dtype=np.int64)
    prefix = ()
    for n in range(horizon):
        probs = np.asarray(_ref_conditional(model, prefix), dtype=float)
        cum = np.cumsum(probs)
        z = int(min(np.searchsorted(cum, rng.random(), side="right"), model.alphabet_size - 1))
        out[n] = z
        prefix = prefix + (z,)
    return out


def _ref_log_probability(model, seq):
    total = 0.0
    prefix = ()
    for z in seq:
        prob = float(_ref_conditional(model, prefix)[z])
        if prob <= 0.0:
            return -math.inf
        total += math.log(prob)
        prefix = prefix + (z,)
    return total


def _ref_eprocess(model, data):
    out = []
    log_q = 0.0
    prefix = ()
    for n, z in enumerate(data, start=1):
        if log_q > -math.inf:
            cond = float(_ref_conditional(model, prefix)[z])
            log_q = log_q + math.log(cond) if cond > 0.0 else -math.inf
        prefix = prefix + (z,)
        if log_q == -math.inf:
            value = 0.0
        else:
            log_value = log_q - log_ml_sup(n, sum(prefix))
            value = math.inf if log_value > 709.0 else math.exp(log_value)
        out.append((n, sum(prefix), log_q, value))
    return out


class LaplaceModel(AlternativeModel):
    """Rule of succession: a minimal custom model, whose forward state is
    the prefix itself, that defines only ``start``, ``advance`` and ``probs``."""

    def __init__(self):
        super().__init__(2)

    def start(self):
        return ()

    def advance(self, state, z):
        return state + (int(z),)

    def probs(self, state):
        p1 = (sum(state) + 1.0) / (len(state) + 2.0)
        return np.array([1.0 - p1, p1])


class _PrefixFold(AlternativeModel):
    """``model`` with every law recomputed from the whole prefix by
    ``_ref_conditional``: the prefix-refolding algorithm as a model, whose
    ``conditional`` bypasses the forward-state fold."""

    def __init__(self, model):
        super().__init__(model.alphabet_size)
        self.model = model

    def start(self):
        return ()

    def advance(self, state, z):
        return state + (int(z),)

    def probs(self, state):
        return np.asarray(_ref_conditional(self.model, state), dtype=float)

    def conditional(self, prefix):
        return self.probs(prefix)


def _binary_models():
    return [
        changepoint_model(0.5, 0.9, 0.2),
        changepoint_model(0.3, 0.8, 0.05),
        changepoint_model(0.3, 0.9, 0.0),
        changepoint_model(0.3, 0.9, 1.0),
        changepoint_model(0.0, 1.0, 0.2),
        changepoint_model(1.0, 0.0, 0.4),
        changepoint_model(0.0, 0.0, 0.5),
        markov_model(0.1, 0.1),
        markov_model(0.2, 0.1, 0.5),
        markov_model(0.0, 0.0, 1.0),
        markov_model(0.0, 0.0, 0.5),
        markov_model(1.0, 1.0, 0.0),
        iid_model([0.4, 0.6]),
        iid_model([1.0, 0.0]),
        PointMassModel([1, 0, 1], alphabet_size=2),
        random_table(2, depth=3, rng=np.random.default_rng(11)),
        LaplaceModel(),
    ]


def _ternary_changepoint():
    """Ternary changepoint: law (0.5, 0.3, 0.2) before a change of hazard
    0.1, then (0.1, 0.0, 0.9), so a 1 rules out that the change has come."""
    before, after, rho = np.array([0.5, 0.3, 0.2]), np.array([0.1, 0.0, 0.9]), 0.1
    T = np.zeros((2, 3, 2))
    T[0, :, 0] = (1.0 - rho) * before
    T[0, :, 1] = rho * after
    T[1, :, 1] = after
    return HiddenStateModel([1.0, 0.0], T, "ternary changepoint")


def _ternary_models():
    return [
        iid_model([0.2, 0.3, 0.5]),
        _ternary_changepoint(),
        PointMassModel([2, 0, 1, 1], alphabet_size=3),
        random_table(3, depth=2, rng=np.random.default_rng(12)),
    ]


def _all_sequences(m, length):
    if length == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*[np.arange(m)] * length, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _ids(pairs):
    return [repr(model) if isinstance(model, HiddenStateModel) else type(model).__name__
            for model, _ in pairs]


# (model, longest sequence checked exhaustively)
BINARY = [(model, 8) for model in _binary_models()]
MODELS = BINARY + [(model, 5) for model in _ternary_models()]


class TestForwardStateBitIdentity:
    @pytest.mark.parametrize("model,depth", MODELS, ids=_ids(MODELS))
    def test_sample(self, model, depth):
        for seed in range(5):
            got = model.sample(60, np.random.default_rng(seed))
            want = _ref_sample(model, 60, np.random.default_rng(seed))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("model,depth", MODELS, ids=_ids(MODELS))
    def test_sequence_log_probability(self, model, depth):
        for length in range(depth + 1):
            for seq in _all_sequences(model.alphabet_size, length).tolist():
                assert model.sequence_log_probability(seq) == _ref_log_probability(model, seq)

    @pytest.mark.parametrize("model,depth", MODELS, ids=_ids(MODELS))
    def test_prefix_log_probabilities(self, model, depth):
        # every sequence up to the depth, the impossible ones too: entry k - 1
        # is the log probability of the length-k prefix, bit for bit
        for length in range(depth + 1):
            for seq in _all_sequences(model.alphabet_size, length).tolist():
                got = model.prefix_log_probabilities(seq)
                assert len(got) == length
                for k in range(1, length + 1):
                    assert got[k - 1] == model.sequence_log_probability(seq[:k])
                    assert got[k - 1] == _ref_log_probability(model, seq[:k])

    @pytest.mark.parametrize("model,depth", MODELS, ids=_ids(MODELS))
    def test_conditional_batch(self, model, depth):
        for length in range(min(depth, 6) + 1):
            rows = _all_sequences(model.alphabet_size, length)
            possible = [_ref_log_probability(model, row) > -math.inf for row in rows.tolist()]
            rows = rows[np.array(possible, dtype=bool)]
            want = np.stack([_ref_conditional(model, row) for row in rows])
            assert np.array_equal(model.conditional_batch(_batched_states(model, rows)), want)
            for row, got in zip(rows, want):
                assert np.array_equal(model.conditional(row), got)

    def test_explicit_engine_batches_every_step(self, monkeypatch):
        # distmean has no collapsed path, so each step's candidates reach
        # conditional_batch through extend, with their carried forward states
        model = changepoint_model(0.3, 0.8, 0.05)
        prefixes, laws = [], []
        batch = model.conditional_batch

        def recorded(states):
            laws.append(batch(states))
            return laws[-1]

        def extend(hset, model, original=bayes_kelly.extend):
            prefixes.append(hset.prefixes)
            return original(hset, model)

        model.conditional_batch = recorded
        monkeypatch.setattr(bayes_kelly, "extend", extend)
        for seed in range(4):
            data = model.sample(12, np.random.default_rng(seed))
            bettor = BayesKellyBettor(model, DistanceToMeanMeasure())
            ctm_run(data, DistanceToMeanMeasure(), bettor, np.random.default_rng(seed).random(12), 12)
        assert len(prefixes) == len(laws) == 4 * 12
        assert max(len(rows) for rows in prefixes) > 20
        for rows, got in zip(prefixes, laws):
            want = np.stack([_ref_conditional(model, row) for row in rows])
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("model", [model for model, _ in BINARY], ids=_ids(BINARY))
    def test_run_eprocess(self, model):
        for seed in range(5):
            data = model.sample(40, np.random.default_rng(seed)).tolist()
            noisy = np.random.default_rng(seed).integers(0, 2, 40).tolist()
            for bits in (data, noisy):
                got = [(s.n, s.ones, s.log_q, s.value) for s in run_eprocess(bits, model)]
                assert got == _ref_eprocess(model, bits)


def _frozen_sample(model, horizon, rng):
    """``AlternativeModel.sample`` before its state memo: one ``probs``, a
    ``cumsum`` and a ``searchsorted`` at every step, and one ``advance``
    past every symbol but the last."""
    out = np.empty(horizon, dtype=np.int64)
    state = model.start()
    for n in range(horizon):
        if n:
            state = model.advance(state, z)
        probs = np.asarray(model.probs(state), dtype=float)
        cum = np.cumsum(probs)
        z = int(np.searchsorted(cum, rng.random(), side="right"))
        if z == model.alphabet_size:
            z = int(np.flatnonzero(probs > 0.0)[-1])
        out[n] = z
    return out


def _frozen_step(model, state, z):
    """``HiddenStateModel``'s scalar step as it was computed before: the law
    from the state, and the state after ``z``, with ``ndarray.sum`` and a
    fresh view of the transition tensor."""
    pp = state @ model._emit
    after = state @ model.transition[:, int(z), :]
    return pp / pp.sum(), after / float(after.sum())


# (H, m, seed) for seeded random hidden-state models with structural zeros
HIDDEN_ALPHABET_SEEDS = [(hidden, m, seed)
                         for hidden in (1, 2, 3, 4) for m in (2, 3) for seed in (0, 1)]


class TestSamplerMemo:
    """The memoised sampler draws what the plain fold drew, bit for bit, and
    leaves the generator where the plain fold left it."""

    @staticmethod
    def _check(model, horizon, seed):
        rng, frozen_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = model.sample(horizon, rng)
        assert got.dtype == np.int64
        assert np.array_equal(got, _frozen_sample(model, horizon, frozen_rng))
        assert rng.bit_generator.state == frozen_rng.bit_generator.state

    @pytest.mark.parametrize("model,depth", MODELS, ids=_ids(MODELS))
    def test_shipped_models(self, model, depth):
        for horizon, seed in ((0, 0), (1, 1), (60, 2), (500, 3)):
            self._check(model, horizon, seed)

    @pytest.mark.parametrize("hidden,m,seed", HIDDEN_ALPHABET_SEEDS)
    def test_random_hidden_state_models(self, hidden, m, seed):
        rng = np.random.default_rng([hidden, m, seed])
        self._check(random_hidden_state(rng, hidden, m), 300, seed)

    @pytest.mark.parametrize("m,depth", [(2, 1), (2, 4), (3, 2)])
    def test_tables_and_point_masses(self, m, depth):
        rng = np.random.default_rng([m, depth])
        self._check(random_table(m, depth, rng), 200, depth)
        self._check(PointMassModel(rng.integers(0, m, 3 * depth).tolist(), alphabet_size=m),
                    200, depth)

    def test_markov_reads_each_state_once(self):
        # the three forward states of a first-order chain serve 1 000 draws
        model = markov_model(0.1, 0.1)
        reads, probs = [], model.probs

        def counted(state):
            reads.append(state.tobytes())
            return probs(state)

        model.probs = counted
        model.sample(1000, np.random.default_rng(0))
        assert len(reads) == len(set(reads)) == 3

    @pytest.mark.parametrize("hidden,m,seed", HIDDEN_ALPHABET_SEEDS)
    def test_scalar_step_is_frozen(self, hidden, m, seed):
        # advance and probs give the bits of their former form, on the model
        # and on a pickled copy, as a --jobs worker gets it
        rng = np.random.default_rng([hidden, m, seed, 1])
        model = random_hidden_state(rng, hidden, m)
        for copy in (model, pickle.loads(pickle.dumps(model))):
            state = copy.start()
            for z in model.sample(200, rng).tolist():
                law, after = _frozen_step(model, state, z)
                assert np.array_equal(copy.probs(state), law)
                state = copy.advance(state, z)
                assert np.array_equal(state, after)


def _frozen_log_probability_levels(model, depth):
    """``log_probability_levels`` before its state memo: a ``probs`` at every
    node and an ``advance`` to every child walked."""
    levels = [{(): 0.0}] + [{} for _ in range(depth)]

    def walk(state, prefix, total):
        probs = model.probs(state)
        for z in range(model.alphabet_size):
            p = float(probs[z])
            if p <= 0.0:
                continue
            child, child_total = prefix + (z,), total + math.log(p)
            levels[len(child)][child] = child_total
            if len(child) < depth:
                walk(model.advance(state, z), child, child_total)

    walk(model.start(), (), 0.0)
    return levels


def _spy_steps(model):
    """Record the key of every state ``model.probs`` reads, and of every
    (state, symbol) ``model.advance`` steps from."""
    reads, steps = [], []
    probs, advance = model.probs, model.advance

    def read(state):
        reads.append(state.tobytes())
        return probs(state)

    def step(state, z):
        steps.append((state.tobytes(), z))
        return advance(state, z)

    model.probs, model.advance = read, step
    return reads, steps


def _walk_models():
    return [
        changepoint_model(0.5, 0.9, 0.2),
        changepoint_model(0.3, 0.9, 0.0),
        changepoint_model(0.3, 0.9, 1.0),
        changepoint_model(0.0, 1.0, 0.2),
        changepoint_model(1.0, 0.0, 0.4),
        markov_model(0.1, 0.1, 0.5),
        markov_model(0.0, 0.0, 1.0),
        markov_model(1.0, 1.0, 0.0),
        iid_model([1.0, 0.0]),
        random_table(2, depth=3, rng=np.random.default_rng(11)),
        PointMassModel([1, 0, 1], alphabet_size=2),
        LaplaceModel(),
    ]


# (model, walk depth): binary models to depth 12, ternary ones to depth 6
WALKS = ([(model, 12) for model in _walk_models()]
         + [(_ternary_changepoint(), 6),
            (random_table(3, depth=3, rng=np.random.default_rng(13)), 6)])
# the seeded random hidden-state models, binary ones to depth 11, ternary to 6
RANDOM_WALKS = [(random_hidden_state(np.random.default_rng([hidden, m, seed]), hidden, m),
                 11 if m == 2 else 6)
                for hidden, m, seed in HIDDEN_ALPHABET_SEEDS]


class TestLogProbabilityLevels:
    """The prefix-tree walk the e-variable table reads gives every string's
    ``sequence_log_probability``, bit for bit, over any alphabet."""

    @pytest.mark.parametrize("model,depth", WALKS + RANDOM_WALKS, ids=_ids(WALKS + RANDOM_WALKS))
    def test_levels_equal_sequence_log_probability(self, model, depth):
        for d in (1, 2, depth):
            levels = model.log_probability_levels(d)
            assert len(levels) == d + 1
            for k, level in enumerate(levels):
                strings = [tuple(row) for row in _all_sequences(model.alphabet_size, k).tolist()]
                want = [model.sequence_log_probability(s) for s in strings]
                # a string missing from the level reads as -inf
                assert [level.get(s, -math.inf) for s in strings] == want
                # the keys are the strings of positive probability, in lexicographic order
                assert list(level) == [s for s, w in zip(strings, want) if w > -math.inf]

    @pytest.mark.parametrize("model,depth", WALKS + RANDOM_WALKS, ids=_ids(WALKS + RANDOM_WALKS))
    def test_levels_equal_the_frozen_walk(self, model, depth):
        for d in (1, 2, depth):
            levels = model.log_probability_levels(d)
            frozen = _frozen_log_probability_levels(model, d)
            assert levels == frozen
            assert [list(level) for level in levels] == [list(level) for level in frozen]

    def test_one_step_per_distinct_state(self):
        # the three forward states of markov:0.1,0.1,0.5 serve all 2 047
        # nodes of depth 11: one probs per state, one advance per (state, bit)
        model = markov_model(0.1, 0.1, 0.5)
        reads, steps = _spy_steps(model)
        model.log_probability_levels(11)
        assert len(reads) == len(set(reads)) == 3
        assert len(steps) == len(set(steps)) == 6
        # a changepoint posterior may be new at every node: depths 0-10 are
        # read, and every node but the root is advanced to, at most once each
        model = changepoint_model(0.5, 0.9, 0.2)
        reads, steps = _spy_steps(model)
        model.log_probability_levels(11)
        assert len(reads) == len(set(reads)) <= 2047
        assert len(steps) == len(set(steps)) <= 2046


def _count_advances(model):
    """Symbols of the forward steps ``model`` takes: scalar advances plus the
    rows of each batched step.  The default ``advance_batch`` steps through
    ``advance``, so those rows count once, not twice."""
    calls = []
    batching = []
    advance, advance_batch = model.advance, model.advance_batch

    def counted(state, z):
        if not batching:
            calls.append(int(z))
        return advance(state, z)

    def counted_batch(states, symbols):
        calls.extend(int(z) for z in symbols)
        batching.append(True)
        try:
            return advance_batch(states, symbols)
        finally:
            batching.pop()

    model.advance = counted
    model.advance_batch = counted_batch
    return calls


def _memo_key(state):
    """The key ``models._StateMemo`` tells ``state`` apart by, None for none."""
    if isinstance(state, np.ndarray):
        return state.tobytes()
    return state if type(state) is int else None


CONTRACT = {
    "hidden_state": lambda: changepoint_model(0.5, 0.9, 0.2),
    "table": lambda: random_table(2, depth=3, rng=np.random.default_rng(11)),
    "point_mass": lambda: PointMassModel([1, 0, 1, 1, 0], alphabet_size=2),
    "custom": LaplaceModel,
}


class TestModelContract:
    """``start``/``advance``/``probs`` is the whole model contract.  Every
    sequential caller takes one forward step per symbol or candidate-tree
    edge (counted, not timed), and the oracle's prefix conditionals are the
    prefix fold's, bit for bit."""

    @pytest.mark.parametrize("name", CONTRACT)
    def test_sample_advances_at_most_once_per_symbol(self, name):
        # the sampler advances past a symbol only the first time its path
        # leaves a state by it: states are told apart by the memo's key, and
        # a state without one (the custom model's tuple) is always new
        for horizon in (1, 2, 50, 400):
            out = CONTRACT[name]().sample(horizon, np.random.default_rng(horizon)).tolist()
            model = CONTRACT[name]()
            want, seen, state = [], set(), model.start()
            for z in out[:-1]:
                key = _memo_key(state)
                if key is None or (key, z) not in seen:
                    want.append(z)
                    seen.add((key, z))
                state = model.advance(state, z)
            calls = _count_advances(model)
            assert model.sample(horizon, np.random.default_rng(horizon)).tolist() == out
            assert calls == want

    @pytest.mark.parametrize("name", CONTRACT)
    def test_sequence_log_probability_advances_once_per_symbol(self, name):
        seq = CONTRACT[name]().sample(300, np.random.default_rng(1)).tolist()
        model = CONTRACT[name]()
        calls = _count_advances(model)
        assert model.sequence_log_probability(seq) > -math.inf
        assert calls == seq[:-1]

    @pytest.mark.parametrize("name", CONTRACT)
    def test_run_eprocess_advances_at_most_once_per_symbol(self, name):
        data = CONTRACT[name]().sample(300, np.random.default_rng(2)).tolist()
        noisy = np.random.default_rng(2).integers(0, 2, 300).tolist()
        for bits in (data, noisy):
            model = CONTRACT[name]()
            calls = _count_advances(model)
            records = run_eprocess(bits, model)
            # the log-probability fold advances before it reads each next
            # symbol, so past every possible symbol but the last, never past
            # an impossible one
            possible = sum(r.log_q > -math.inf for r in records)
            assert calls == bits[: min(possible, len(bits) - 1)]

    @pytest.mark.parametrize("name", CONTRACT)
    def test_explicit_bettor_advances_once_per_tree_edge(self, name, monkeypatch):
        model = CONTRACT[name]()
        rng = np.random.default_rng(3)
        data = model.sample(10, rng)
        calls = _count_advances(model)
        edges = []

        def extend(hset, model, original=bayes_kelly.extend):
            out = original(hset, model)
            edges.extend(out.prefixes[:, -1].tolist())  # each child's new edge
            return out

        monkeypatch.setattr(bayes_kelly, "extend", extend)
        measure = DistanceToMeanMeasure()
        ctm_run(data, measure, BayesKellyBettor(model, measure), rng.random(10), 10)
        assert len(edges) >= 10
        assert calls == edges

    @pytest.mark.parametrize("name", CONTRACT)
    def test_cell_tree_matches_prefix_fold(self, name):
        model = CONTRACT[name]()
        fold = _PrefixFold(model)
        for horizon in range(1, 6):
            for measure in (IdentityMeasure(), DistanceToMeanMeasure()):
                assert cell_tree(model, measure, horizon) == cell_tree(fold, measure, horizon)

    def test_point_mass_steps_in_constant_time(self):
        model = PointMassModel([1, 0, 1, 1, 0], alphabet_size=2)
        n = 16_000
        states = []
        advance = model.advance

        def recorded(state, z):
            states.append(advance(state, z))
            return states[-1]

        model.advance = recorded
        assert model.sample(n, np.random.default_rng(0)).tolist() == [1, 0, 1, 1] + [0] * (n - 4)
        # its state is the int position in the sequence, capped at its last
        # symbol, and the sampler advances once per (position, symbol) met
        assert states == [1, 2, 3, 4, 4]
        assert {type(state) for state in states} == {int}
        assert model.sequence_log_probability([1, 0, 1, 1] + [0] * (n - 4)) == 0.0
        assert states == [1, 2, 3, 4, 4] + [min(k, 4) for k in range(1, n)]


SHIPPED_MODELS = [cls for cls in vars(models).values()
                  if isinstance(cls, type) and issubclass(cls, AlternativeModel)
                  and cls is not AlternativeModel]


class TestInterface:
    def test_abstract_methods_are_the_forward_step(self):
        assert AlternativeModel.__abstractmethods__ == {"start", "advance", "probs"}
        assert {HiddenStateModel, PointMassModel, TableModel} <= set(SHIPPED_MODELS)

    def test_a_point_mass_is_a_state_table(self):
        assert issubclass(PointMassModel, TableModel)
        assert isinstance(PointMassModel([1, 0]), TableModel)
        defined = {name for name, value in PointMassModel.__dict__.items() if callable(value)}
        assert defined == {"__init__"}

    @pytest.mark.parametrize("cls", SHIPPED_MODELS, ids=lambda cls: cls.__name__)
    def test_only_two_models_define_a_forward_step(self, cls):
        step = {"start", "advance", "probs", "advance_batch", "probs_batch"}
        if cls in (HiddenStateModel, TableModel):
            assert step <= set(cls.__dict__)
        else:
            assert not step & set(cls.__dict__)

    @pytest.mark.parametrize("cls", SHIPPED_MODELS, ids=lambda cls: cls.__name__)
    def test_traced_methods_live_on_the_base_class_only(self, cls):
        # bench/tracing.py times these layers by patching AlternativeModel,
        # so an override in a model would run outside the span
        for name in ("conditional_batch", "sample", "sequence_log_probability"):
            assert name in AlternativeModel.__dict__
            assert name not in cls.__dict__
        assert "conditional" not in cls.__dict__


class TestForwardStateEdges:
    def test_impossible_sequences_are_minus_infinity(self):
        # (model, sequence, index of its first impossible symbol)
        cases = [
            (markov_model(0.0, 0.0, 1.0), [0], 0),
            (markov_model(0.0, 0.0, 1.0), [1, 0, 1, 1], 1),
            (changepoint_model(1.0, 1.0, 0.0), [1, 1, 0, 0, 0], 2),
            (iid_model([1.0, 0.0]), [0, 0, 1], 2),
        ]
        for model, seq, impossible in cases:
            calls = _count_advances(model)
            assert model.sequence_log_probability(seq) == -math.inf
            # advanced past the symbols before the impossible one, never past it
            assert calls == seq[:impossible]
            calls.clear()
            logs = model.prefix_log_probabilities(seq)
            assert all(q > -math.inf for q in logs[:impossible])
            assert logs[impossible:] == [-math.inf] * (len(seq) - impossible)
            assert calls == seq[:impossible]

    # (model, symbols, position and value of the first one outside the alphabet)
    BAD_SYMBOLS = [
        (changepoint_model(0.5, 0.9, 0.2), [0.7, 1], 0, "0.7"),
        (changepoint_model(0.5, 0.9, 0.2), [1.9, 1], 0, "1.9"),
        (changepoint_model(0.5, 0.9, 0.2), [1, math.nan], 1, "nan"),
        (changepoint_model(0.5, 0.9, 0.2), [1, 1, math.inf], 2, "inf"),
        (changepoint_model(0.5, 0.9, 0.2), [-1, 1], 0, "-1"),
        (changepoint_model(0.5, 0.9, 0.2), [2, 1], 0, "2"),
        (iid_model([0.2, 0.3, 0.5]), [2, 0, 3], 2, "3"),
        (TableModel(2, [[0.4, 0.6], [0, 1], [1, 0]], depth=2), [0.5], 0, "0.5"),
        (PointMassModel([1, 0, 1], alphabet_size=2), [1, 0.7], 1, "0.7"),
    ]

    @pytest.mark.parametrize("model, seq, position, shown", BAD_SYMBOLS)
    def test_symbols_are_neither_wrapped_nor_truncated(self, model, seq, position, shown):
        # int(z) would read 1.9 as 1 and 0.7 as 0, and probs(state)[-1] would
        # read the last symbol's probability for -1; advancing past 2 would
        # raise a bare IndexError, and a point mass would ignore the symbol
        message = (rf"^symbols must be in range\({model.alphabet_size}\), "
                   rf"got {re.escape(shown)} at position {position}$")
        for data in (seq, np.asarray(seq)):
            for method in (model.prefix_log_probabilities, model.sequence_log_probability,
                           model.conditional):
                with pytest.raises(ValueError, match=message):
                    method(data)

    @pytest.mark.parametrize("model, _", MODELS, ids=_ids(MODELS))
    def test_integer_valued_prefixes_keep_their_bits(self, model, _):
        ints = model.sample(3, np.random.default_rng(0))  # a possible prefix
        want = model.conditional(tuple(ints.tolist()))
        assert np.array_equal(want, _ref_conditional(model, ints))
        for prefix in (ints, ints.astype(np.int8), ints.astype(float),
                       [float(z) for z in ints]):
            assert np.array_equal(model.conditional(prefix), want)
        if model.alphabet_size == 2:
            assert np.array_equal(model.conditional([bool(z) for z in ints]), want)
        assert np.array_equal(model.conditional([]), model.probs(model.start()))

    def test_integer_valued_symbols_keep_their_bits(self):
        model = changepoint_model(0.5, 0.9, 0.2)
        want = model.prefix_log_probabilities([1, 0, 1, 1])
        assert want[-1] == _ref_log_probability(model, (1, 0, 1, 1))
        for seq in ((1, 0, 1, 1), [True, False, True, True], [1.0, 0.0, 1.0, 1.0],
                    np.array([1, 0, 1, 1], dtype=np.int8), np.array([1.0, 0.0, 1.0, 1.0])):
            assert model.prefix_log_probabilities(seq) == want
        assert model.prefix_log_probabilities([]) == []
        assert model.sequence_log_probability([]) == 0.0

    def test_eprocess_absorbs_at_zero(self):
        model = markov_model(0.0, 0.0, 1.0)
        records = run_eprocess([1, 1, 0, 1, 1, 0, 1], model)
        assert [r.value > 0.0 for r in records] == [True, True] + [False] * 5
        assert all(r.log_q == -math.inf for r in records[2:])

    def test_frozen_markov_samples_at_horizon_50(self):
        assert markov_model(0.0, 0.0, 1.0).sample(50, np.random.default_rng(0)).tolist() == [1] * 50
        assert markov_model(0.0, 0.0, 0.0).sample(50, np.random.default_rng(0)).tolist() == [0] * 50

    def test_batch_with_an_impossible_row_raises(self):
        model = markov_model(0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="probability zero"):
            _batched_states(model, np.array([[1, 1], [1, 0], [0, 0]]))
