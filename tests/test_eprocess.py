import math
import re

import numpy as np
import pytest

from ctmkit import (
    example_distinct_report,
    iid_model,
    log_empirical_ml,
    log_ml_sup,
    markov_model,
    run_eprocess,
)


def _ml_sup(n, ones):
    return math.exp(log_ml_sup(n, ones))


def _empirical_ml(values):
    return math.exp(log_empirical_ml(values))


class TestMlSup:
    def test_balanced(self):
        assert _ml_sup(2, 1) == 0.25

    def test_all_zeros(self):
        assert _ml_sup(5, 0) == 1.0

    def test_all_ones(self):
        assert _ml_sup(3, 3) == 1.0

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            _ml_sup(3, 4)
        with pytest.raises(ValueError):
            _ml_sup(0, 0)
        with pytest.raises(ValueError):
            _ml_sup(3, -1)

    @pytest.mark.parametrize("n,ones,shown", [(2.7, 1, r"^n must be an integer, got 2\.7$"),
                                              (3, 1.5, r"^ones count must be an integer, got 1\.5$"),
                                              (True, 0, r"^n must be an integer, got True$")],
                             ids=["n=2.7", "ones=1.5", "n=True"])
    def test_counts_are_not_truncated(self, n, ones, shown):
        # 2.7 is not read as n = 2 (whose value is log 1/4)
        with pytest.raises(ValueError, match=shown):
            log_ml_sup(n, ones)

    def test_integral_float_counts_are_read(self):
        assert log_ml_sup(2.0, 1.0) == log_ml_sup(2, 1)

    def test_dominates_every_bernoulli_likelihood(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(0, n + 1))
            theta = float(rng.random())
            assert _ml_sup(n, k) >= theta**k * (1.0 - theta) ** (n - k)


class TestRunEProcess:
    def test_empty_data_has_no_records(self):
        assert run_eprocess([], iid_model([0.5, 0.5])) == []

    def test_balanced_pair_hits_one(self):
        model = iid_model([0.5, 0.5])
        record = run_eprocess([1, 0], model)[-1]
        assert record.value == pytest.approx(1.0, rel=1e-14)
        assert record.ones == 1 and record.n == 2

    def test_repeated_symbol_quarter(self):
        model = iid_model([0.5, 0.5])
        record = run_eprocess([1, 1], model)[-1]
        assert record.value == pytest.approx(0.25, rel=1e-14)

    def test_zero_probability_is_absorbing(self):
        model = markov_model(0.0, 0.0, 1.0)  # always 1 after starting at 1
        records = run_eprocess([1, 0, 1], model)
        assert records[0].value > 0
        assert records[1].value == 0.0 and records[1].log_q == -math.inf
        assert records[2].value == 0.0 and records[2].log_q == -math.inf

    def test_non_bit_rejected(self):
        with pytest.raises(ValueError, match="expects bits, got 2"):
            run_eprocess([0, 1, 2], iid_model([0.5, 0.5]))

    @pytest.mark.parametrize("data, position, shown", [
        ([0.7, 1.2], 0, "0.7"), ([1, 0.5], 1, "0.5"), ([0, math.nan], 1, "nan"),
        ([1, 1, math.inf], 2, "inf"), ([-1, 1], 0, "-1")])
    def test_non_integer_bits_rejected(self, data, position, shown):
        # int() would read [0.7, 1.2] as the bits (0, 1)
        message = rf"expects bits, got {re.escape(shown)} at position {position}$"
        with pytest.raises(ValueError, match=message):
            run_eprocess(data, markov_model(0.1, 0.1))

    def test_integer_valued_bits_accepted(self):
        model = markov_model(0.1, 0.1)
        want = run_eprocess([1, 0, 0], model)
        for data in ([1.0, 0.0, 0.0], [True, False, False], np.array([1, 0, 0], dtype=np.int8)):
            assert run_eprocess(data, model) == want

    def test_non_binary_model_rejected(self):
        for data in ([0], []):
            with pytest.raises(ValueError, match="binary alternative"):
                run_eprocess(data, iid_model([0.2, 0.3, 0.5]))

    def test_value_consistent_with_logs(self):
        rng = np.random.default_rng(18)
        model = markov_model(0.1, 0.1)
        records = run_eprocess(rng.integers(0, 2, 30), model)
        for record in records:
            assert record.log_ml == log_ml_sup(record.n, record.ones)
            want = math.exp(record.log_q - log_ml_sup(record.n, record.ones))
            assert record.value == pytest.approx(want, rel=1e-12)


class TestEmpiricalMl:
    def test_all_distinct(self):
        assert _empirical_ml([1.0, 2.0, 3.0]) == pytest.approx(27**-1, rel=1e-14)

    def test_all_identical(self):
        assert _empirical_ml([4.0] * 6) == 1.0

    def test_two_pairs(self):
        assert _empirical_ml([1.0, 1.0, 2.0, 2.0]) == pytest.approx(1 / 16, rel=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _empirical_ml([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            log_empirical_ml([1.0, math.nan])

    def test_lower_bound_with_equality_iff_distinct(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            values = rng.integers(0, 5, n).astype(float)
            floor = -n * math.log(n)
            got = log_empirical_ml(values)
            assert got >= floor - 1e-12
            distinct = len(set(values.tolist())) == n
            if distinct:
                assert got == pytest.approx(floor, abs=1e-13)
            else:
                assert got > floor + 1e-12


class TestExampleReport:
    def test_all_distinct_block(self):
        report = example_distinct_report([0.3, -1.2, 5.0, 2.2, 7.7])
        assert report["n"] == 5
        assert report["all_distinct"] is True
        assert report["log_nn_floor"] == -5 * math.log(5)
        assert report["log_empirical_ml"] == pytest.approx(report["log_nn_floor"], abs=1e-14)
        assert report["empirical_ml"] == pytest.approx(5.0**-5, rel=1e-12)
        assert report["continuous_lr"] == 0.0

    def test_tied_block(self):
        report = example_distinct_report([1.0, 1.0, 2.0])
        assert report["all_distinct"] is False
        assert report["log_empirical_ml"] > report["log_nn_floor"]
        assert report["continuous_lr"] == 0.0
