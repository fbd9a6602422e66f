import math

import numpy as np
import pytest

from ctmkit import (
    ConstantBettor,
    DistanceToMeanMeasure,
    IdentityMeasure,
    PointMassModel,
    bayes_kelly_bettor,
    cell_tree,
    ctm_run,
    pvalue_step,
    read_observation_stream,
    score_window,
)
from ctmkit.betting import linear_from_log
from ctmkit.conformal import ConformityMeasure

from test_differential import cell_of


class TestScores:
    def test_identity_passthrough(self):
        assert score_window(IdentityMeasure(), [0, 1, 1]).tolist() == [0.0, 1.0, 1.0]

    def test_identity_singleton(self):
        assert score_window(IdentityMeasure(), [3.5]).tolist() == [3.5]

    def test_distance_to_mean(self):
        got = score_window(DistanceToMeanMeasure(), [1.0, 3.0])
        assert got.tolist() == [-1.0, -1.0]

    def test_distmean_batch_matches_scalar_on_integers(self):
        rng = np.random.default_rng(1)
        m = DistanceToMeanMeasure()
        windows = rng.integers(0, 4, size=(40, 6))
        batch = m.score_windows(windows)
        for row, scored in zip(windows, batch):
            assert np.array_equal(m.scores(row.astype(float)), scored)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            score_window(IdentityMeasure(), [])

    def test_non_finite_scores_rejected(self):
        class BadMeasure(ConformityMeasure):
            name = "bad"

            def scores(self, window):
                out = np.asarray(window, dtype=float).copy()
                out[0] = math.nan
                return out

        with pytest.raises(ValueError, match="non-finite"):
            score_window(BadMeasure(), [1.0, 2.0])


def _ranks(scores):
    """The rank counts ``(n_star, n_upper)`` that :func:`pvalue_step` records."""
    return pvalue_step(scores, 0.5)[:2]


class TestTieCounts:
    def test_tied_window(self):
        assert _ranks([0.0, 1.0, 1.0]) == (1, 3)

    def test_singleton(self):
        assert _ranks([7.0]) == (0, 1)

    def test_strictly_largest(self):
        assert _ranks([3.1, 2.0, 5.5]) == (2, 3)

    def test_newest_always_ties_itself(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            scores = rng.integers(0, 3, size=rng.integers(1, 9)).astype(float)
            n_star, n_upper = _ranks(scores)
            assert 0 <= n_star < n_upper <= scores.size

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="need at least one score"):
            pvalue_step([], 0.5)


class TestPValueStep:
    def test_first_step_is_tau(self):
        for tau in (0.0, 0.25, 1.0):
            assert pvalue_step([42.0], tau).p == tau

    def test_tied_example(self):
        rec = pvalue_step([0.0, 1.0, 1.0], 0.5)
        assert rec.p == (1 + 0.5 * 2) / 3
        assert (rec.n_star, rec.n_upper) == (1, 3)

    def test_untied_example(self):
        assert pvalue_step([3.1, 2.0, 5.5], 0.0).p == 2 / 3

    def test_newest_score_must_tie_with_itself(self):
        # a NaN newest score ranks below nothing, not even itself
        with pytest.raises(ValueError, match="tie with itself"):
            pvalue_step([0.0, math.nan], 0.5)

    def test_tau_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            pvalue_step([1.0], 1.5)

    def test_p_within_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            scores = rng.integers(0, 4, size=rng.integers(1, 10)).astype(float)
            rec = pvalue_step(scores, float(rng.random()))
            n = scores.size
            assert rec.n_star / n <= rec.p <= rec.n_upper / n
            assert 0.0 <= rec.p <= 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        for measure in (IdentityMeasure(), DistanceToMeanMeasure()):
            for _ in range(100):
                window = rng.integers(0, 3, size=rng.integers(2, 9)).astype(float)
                tau = float(rng.random())
                base = pvalue_step(score_window(measure, window), tau)
                rng.shuffle(window[:-1])
                again = pvalue_step(score_window(measure, window), tau)
                assert (base.n_star, base.n_upper, base.p) == (
                    again.n_star,
                    again.n_upper,
                    again.p,
                )


class TestTauDraws:
    def test_batch_matches_scalar_draws(self):
        # the harness draws a replicate's tie-breakers as one rng.random(horizon),
        # which must be the stream of one scalar draw per step, bit for bit
        for seed in range(20):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for n in (0, 1, 7, 50, 1000):
                assert got_rng.random(n).tolist() == [want_rng.random() for _ in range(n)]
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestCtmRun:
    def test_horizon_zero(self):
        bettor = ConstantBettor()
        assert ctm_run([], IdentityMeasure(), bettor, [], 0) == []
        assert bettor.wealth == 1.0

    def test_constant_bettor_unit_wealth(self):
        data = [1, 0, 1, 1, 0]
        taus = np.random.default_rng(5).random(5)
        steps = ctm_run(data, IdentityMeasure(), ConstantBettor(), taus, 5)
        assert [linear_from_log(s.log_wealth) for s in steps] == [1.0] * 5
        assert [s.factor for s in steps] == [1.0] * 5

    def test_short_stream_rejected(self):
        with pytest.raises(ValueError, match="needs 5 values, got 3"):
            ctm_run([1, 0, 1], IdentityMeasure(), ConstantBettor(), np.zeros(5), 5)

    def test_short_tau_stream_rejected(self):
        bettor = ConstantBettor()
        with pytest.raises(ValueError, match="tie-breaking stream too short: run needs 4 values, "
                                             "got 3"):
            ctm_run([1, 0, 1, 1], IdentityMeasure(), bettor, [0.5, 0.5, 0.5], 4)
        assert bettor.steps_taken == 0

    def test_tau_outside_unit_interval_rejected_before_any_step(self):
        for bad, shown in ((1.5, "1.5"), (-0.25, "-0.25"), (math.nan, "nan")):
            bettor = ConstantBettor()
            with pytest.raises(ValueError, match=f"tau at position 3 must lie in .0, 1., "
                                                 f"got {shown}"):
                ctm_run([1, 0, 1, 1], IdentityMeasure(), bettor, [0.0, 1.0, bad, 0.5], 4)
            assert bettor.steps_taken == 0
        # draws past the horizon are not read
        steps = ctm_run([1, 0], IdentityMeasure(), ConstantBettor(), [0.5, 0.5, 7.0], 2)
        assert [s.p for s in steps] == [0.5, 0.25]

    def test_non_finite_observation_rejected_before_any_step(self):
        bettor = ConstantBettor()
        with pytest.raises(ValueError, match="position 3 is not finite: nan"):
            ctm_run([1, 0, math.nan, 1], IdentityMeasure(), bettor, np.full(4, 0.5), 4)
        assert bettor.steps_taken == 0
        # values past the horizon are not read: the p-values rank 1, then 0
        steps = ctm_run([1, 0, math.inf], IdentityMeasure(), ConstantBettor(),
                        np.full(3, 0.5), 2)
        assert [s.p for s in steps] == [0.5, 0.25]

    def test_used_bettor_rejected(self):
        bettor = ConstantBettor()
        ctm_run([1], IdentityMeasure(), bettor, [0.5], 1)
        with pytest.raises(ValueError, match="fresh"):
            ctm_run([1], IdentityMeasure(), bettor, [0.5], 1)

    def test_deterministic_repeat(self):
        data = np.random.default_rng(6).integers(0, 2, 12)
        runs = []
        for _ in range(2):
            model = PointMassModel([1, 0, 1], alphabet_size=2)
            steps = ctm_run(
                data, IdentityMeasure(), bayes_kelly_bettor(model, IdentityMeasure()),
                np.random.default_rng(7).random(12), 12,
            )
            runs.append([(s.p, s.factor, s.log_wealth) for s in steps])
        assert runs[0] == runs[1]

    def test_pointmass_wealth_matches_oracle_cell(self):
        # single-candidate model: the realized p-path picks out one cell of
        # the oracle tree, and wealth must equal that cell's factor product
        data = [1, 0, 1, 1]
        measure = IdentityMeasure()
        model = PointMassModel(data, alphabet_size=2)
        bettor = bayes_kelly_bettor(model, measure)
        steps = ctm_run(data, measure, bettor, np.random.default_rng(11).random(4), 4)
        cells = cell_tree(model, measure, 4)
        (match,) = [c for c in cells if c.intervals == cell_of([s.p for s in steps])]
        assert bettor.wealth == pytest.approx(math.prod(match.bk_heights), rel=1e-12)
        assert linear_from_log(steps[-1].log_wealth) == bettor.wealth


class TestObservationStream:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("1\n0\n\n2.5\n-3\n", encoding="utf-8")
        values = read_observation_stream(path)
        assert values == [1, 0, 2.5, -3]
        assert isinstance(values[0], int) and isinstance(values[2], float)

    def test_bad_line_located(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("1\nbogus\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"stream\.txt:2"):
            read_observation_stream(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("1\ninf\n", encoding="utf-8")
        with pytest.raises(ValueError, match="finite"):
            read_observation_stream(path)
