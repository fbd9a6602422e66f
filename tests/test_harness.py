import hashlib
import json
import math
import pickle
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special, stats

from ctmkit import (
    AlternativeModel,
    BayesKellyBettor,
    CollapsedBayesKellyBettor,
    ConstantBettor,
    IdentityMeasure,
    PiecewiseDensity,
    ShrunkAlternativeBettor,
    cell_tree,
    changepoint_model,
    expected_log_wealth,
)
from ctmkit import harness
from ctmkit.cli import main
from ctmkit.harness import (
    CSV_HEADER,
    _parse_null_spec,
    _kolmogorov_sf,
    _quantile_sorted,
    ConfigError,
    ExperimentConfig,
    audit_trajectory,
    build_alternative,
    build_measure,
    ks_uniform,
    run_eprocess,
    run_optimality,
    run_simulate,
    run_validate,
    substream,
    write_json,
)


def _cfg(tmp_path, **overrides):
    base = dict(
        seed=77,
        horizon=10,
        reps=4,
        null="bernoulli:0.5",
        alt="changepoint:0.5,0.9,0.2",
        measure="identity",
        bettor="bayes_kelly",
        out=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig.from_mapping(base)


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: frobnicate"):
            ExperimentConfig.from_mapping({"seed": 1, "horizon": 2, "frobnicate": 3})

    def test_missing_seed_named(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            _cfg(tmp_path, seed=-1)

    def test_bad_horizon_named(self, tmp_path):
        with pytest.raises(ConfigError, match="horizon"):
            _cfg(tmp_path, horizon=0)

    def test_bad_alt_named(self, tmp_path):
        with pytest.raises(ConfigError, match="alt"):
            _cfg(tmp_path, alt="changepoint:0.5")

    def test_bad_tau_mode_named(self, tmp_path):
        with pytest.raises(ConfigError, match="tau_mode"):
            _cfg(tmp_path, tau_mode="sometimes")

    def test_bad_bettor_named(self, tmp_path):
        with pytest.raises(ConfigError, match="bettor"):
            _cfg(tmp_path, bettor="martingale")

    def test_full_bettor_spec_is_gone(self, tmp_path):
        # the explicit engine is picked by bayes_kelly_bettor, not by a flag
        with pytest.raises(ConfigError, match="bettor: must be bayes_kelly, constant or "
                                              "density:<path>, got 'bayes_kelly_full'"):
            _cfg(tmp_path, bettor="bayes_kelly_full")

    @pytest.mark.parametrize("spec", ["bayes_kelly:oops", "bayes_kelly:", "constant:0.5",
                                      "constant:"])
    def test_bettor_suffix_refused_unless_density(self, tmp_path, spec):
        # a suffix that looks like a parameter must not be dropped silently
        with pytest.raises(ConfigError, match="^bettor: must be bayes_kelly, constant or "
                                              f"density:<path>, got '{spec}'$"):
            _cfg(tmp_path, bettor=spec)

    @pytest.mark.parametrize(
        "name", ["null", "alt", "measure", "bettor", "dgp", "tau_mode", "example1"])
    def test_non_string_spec_refused(self, tmp_path, name):
        for value in (5, 0.5, None, ["identity"]):
            with pytest.raises(ConfigError, match=rf"^{name}: must be a string, got "
                                                  rf"{re.escape(repr(value))}$"):
                _cfg(tmp_path, **{name: value})

    def test_bad_dgp_named(self, tmp_path):
        with pytest.raises(ConfigError, match="dgp"):
            _cfg(tmp_path, dgp="surprise")

    def test_integer_coercion(self, tmp_path):
        cfg = _cfg(tmp_path, seed="12", reps="3")
        assert cfg.seed == 12 and cfg.reps == 3

    @pytest.mark.parametrize("name", ["seed", "horizon", "reps", "rivals", "jobs"])
    def test_integral_values_are_read(self, tmp_path, name):
        for value in (12, 12.0, "12"):
            cfg = _cfg(tmp_path, **{name: value})
            assert getattr(cfg, name) == 12 and type(getattr(cfg, name)) is int

    @pytest.mark.parametrize("name", ["seed", "horizon", "reps", "rivals", "jobs"])
    def test_fractions_and_booleans_are_refused(self, tmp_path, name):
        # int() would truncate 12.7 to 12 and read True as 1
        for value in (12.7, True, False, math.inf, math.nan, "12.5"):
            with pytest.raises(ConfigError, match=rf"{name}: must be an integer, got "):
                _cfg(tmp_path, **{name: value})


class TestFormatStrings:
    def test_measures(self):
        assert build_measure("identity").name == "identity"
        assert build_measure("distmean").name == "distmean"
        with pytest.raises(ConfigError):
            build_measure("entropy")

    def test_alternatives(self, tmp_path):
        assert build_alternative("changepoint:0.5,0.9,0.2").alphabet_size == 2
        assert build_alternative("markov:0.1,0.1").alphabet_size == 2
        assert build_alternative("markov:0.1,0.1,0.7").alphabet_size == 2
        assert build_alternative("iid:0.3").alphabet_size == 2
        assert build_alternative("iid:0.2,0.3,0.5").alphabet_size == 3
        assert build_alternative("pointmass:1,0,1").alphabet_size == 2
        table = tmp_path / "t.json"
        table.write_text(
            json.dumps({"alphabet_size": 2, "conditionals": {"": [0.5, 0.5]}}),
            encoding="utf-8",
        )
        assert build_alternative(f"table:{table}").alphabet_size == 2
        for bad in ("iid:", "pointmass:x", "changepoint:1,2", "mystery:1"):
            with pytest.raises(ConfigError):
                build_alternative(bad)

    def test_non_finite_numbers_rejected(self, tmp_path):
        for spec in ("iid:nan,0.5", "iid:inf", "changepoint:0.5,nan,0.2", "markov:0.1,0.1,-inf"):
            with pytest.raises(ConfigError, match="alt: numbers must be finite"):
                build_alternative(spec)
        for spec in ("categorical:nan,0.5,0.5", "bernoulli:nan", "normal:nan,1"):
            with pytest.raises(ConfigError, match="null: numbers must be finite"):
                _parse_null_spec(spec)
        with pytest.raises(ConfigError, match="null"):
            _cfg(tmp_path, null="categorical:nan,0.5,0.5")
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"alphabet_size": 2, "conditionals": {"": [math.nan, 0.5]}}),
                         encoding="utf-8")
        with pytest.raises(ConfigError, match="alt"):
            build_alternative(f"table:{table}")


class TestSubstreams:
    def test_deterministic_and_keyed(self):
        a = substream(9, 0, 3, 0).random(4)
        b = substream(9, 0, 3, 0).random(4)
        c = substream(9, 0, 4, 0).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSimulate:
    def test_constant_bettor_unit_wealth_column(self, tmp_path):
        cfg = _cfg(tmp_path, bettor="constant", reps=3, horizon=6)
        report = run_simulate(cfg)
        assert report["ok"] is True
        lines = (Path(cfg.out) / "trajectory.csv").read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 6
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[8] == "1.0" and fields[9] == "0.0"

    def test_repeat_run_byte_identical(self, tmp_path):
        cfg_a = _cfg(tmp_path / "a", reps=1, horizon=8)
        cfg_b = _cfg(tmp_path / "b", reps=1, horizon=8)
        run_simulate(cfg_a)
        run_simulate(cfg_b)
        for name in ("trajectory.csv", "summary.json"):
            assert (Path(cfg_a.out) / name).read_bytes() == (
                Path(cfg_b.out) / name
            ).read_bytes()

    # one case per kind of object the config resolves; each one's config is
    # pickled to the --jobs 2 workers, so an unpicklable object fails here
    PARALLEL_CASES = {
        "bernoulli": dict(null="bernoulli:0.3"),
        "categorical": dict(null="categorical:0.2,0.3,0.5", alt="iid:0.2,0.3,0.5"),
        "normal": dict(null="normal:1,2", measure="distmean", bettor="constant"),
        "uniform": dict(null="uniform", bettor="density:{family}"),
        "table": dict(alt="table:{table}", dgp="alt"),
        "file": dict(dgp="file:{stream}"),
        "tau_constant": dict(tau_mode="constant:0.5"),
    }

    # 6 replicates give --jobs 2 chunks of one; 37 give chunks of three and a
    # short last chunk of one
    @pytest.mark.parametrize("reps", [6, 37])
    @pytest.mark.parametrize("case", list(PARALLEL_CASES))
    def test_parallel_matches_serial(self, tmp_path, case, reps):
        paths = {"family": tmp_path / "family.json", "table": tmp_path / "table.json",
                 "stream": tmp_path / "stream.txt"}
        paths["family"].write_text('{"1": [2.0, 0.0], "3": [0.5, 1.5]}', encoding="utf-8")
        paths["table"].write_text(json.dumps({"alphabet_size": 2, "conditionals": {
            "": [0.3, 0.7], "0": [0.9, 0.1], "1,1": [0.2, 0.8]}}), encoding="utf-8")
        paths["stream"].write_text("1\n0\n0\n1\n1\n1\n0\n1\n0\n", encoding="utf-8")
        overrides = {k: v.format(**paths) for k, v in self.PARALLEL_CASES[case].items()}
        outs = []
        for jobs in (1, 2):
            cfg = _cfg(tmp_path / f"jobs{jobs}", reps=reps, horizon=8, jobs=jobs, **overrides)
            assert run_simulate(cfg)["ok"] is True
            outs.append([(Path(cfg.out) / name).read_bytes()
                         for name in ("trajectory.csv", "summary.json")])
        assert outs[0] == outs[1]

    def test_mean_log_wealth_matches_oracle_under_own_model(self, tmp_path):
        cfg = _cfg(tmp_path, dgp="alt", reps=1500, horizon=6, seed=101)
        report = run_simulate(cfg)
        cells = cell_tree(changepoint_model(0.5, 0.9, 0.2), IdentityMeasure(), 6)
        target = expected_log_wealth(cells, [c.bk_heights for c in cells])
        gap = abs(report["mean_log_wealth"] - target)
        assert gap <= 3.0 * report["se_log_wealth"]

    def test_alternative_built_once_per_command(self, tmp_path, monkeypatch):
        built = []
        build = harness.build_alternative

        def counted(spec):
            built.append(spec)
            return build(spec)

        monkeypatch.setattr(harness, "build_alternative", counted)
        assert run_simulate(_cfg(tmp_path / "api", dgp="alt", reps=3, horizon=5))["ok"] is True
        assert len(built) == 1
        built.clear()
        assert main(["simulate", "--seed", "77", "--horizon", "5", "--reps", "3",
                     "--dgp", "alt", "--out", str(tmp_path / "cli")]) == 0
        assert len(built) == 1

    def test_input_files_read_once_per_command(self, tmp_path, monkeypatch):
        family = tmp_path / "family.json"
        family.write_text('{"2": [2.0, 0.0]}', encoding="utf-8")
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"alphabet_size": 2, "conditionals": {"": [0.4, 0.6]}}),
                         encoding="utf-8")
        stream = tmp_path / "data.txt"
        stream.write_text("1\n0\n1\n1\n0\n", encoding="utf-8")
        texts, streams = [], []
        read_text, read_stream = Path.read_text, harness.read_observation_stream

        def counted_text(path, *args, **kwargs):
            texts.append(Path(path))
            return read_text(path, *args, **kwargs)

        def counted_stream(path):
            streams.append(Path(path))
            return read_stream(path)

        monkeypatch.setattr(Path, "read_text", counted_text)
        monkeypatch.setattr(harness, "read_observation_stream", counted_stream)
        flags = dict(seed=77, horizon=5, reps=4, alt=f"table:{table}",
                     bettor=f"density:{family}", dgp=f"file:{stream}")
        assert run_simulate(ExperimentConfig.from_mapping(
            {**flags, "out": str(tmp_path / "api")}))["ok"] is True
        assert (texts.count(family), texts.count(table), streams) == (1, 1, [stream])
        texts.clear()
        streams.clear()
        argv = [f"--{key}={value}" for key, value in flags.items()]
        assert main(["simulate", *argv, "--out", str(tmp_path / "cli")]) == 0
        assert (texts.count(family), texts.count(table), streams) == (1, 1, [stream])

    def test_file_dgp(self, tmp_path):
        stream = tmp_path / "data.txt"
        stream.write_text("1\n0\n1\n1\n0\n1\n", encoding="utf-8")
        cfg = _cfg(tmp_path, dgp=f"file:{stream}", reps=2, horizon=6)
        report = run_simulate(cfg)
        assert report["ok"] is True
        lines = (Path(cfg.out) / "trajectory.csv").read_text().strip().split("\n")
        z_rep0 = [row.split(",")[2] for row in lines[1:7]]
        z_rep1 = [row.split(",")[2] for row in lines[7:13]]
        assert z_rep0 == ["1", "0", "1", "1", "0", "1"] == z_rep1

    def test_real_valued_data_needs_real_capable_bettor(self, tmp_path):
        cfg = _cfg(tmp_path, null="normal", measure="distmean", reps=2, horizon=5)
        with pytest.raises(ValueError, match="integer observations"):
            run_simulate(cfg)
        cfg = _cfg(tmp_path, null="normal", measure="distmean", reps=2, horizon=5,
                   bettor="constant")
        assert run_simulate(cfg)["ok"] is True

    def test_bettor_data_mismatch_found_before_any_output(self, tmp_path):
        reals = tmp_path / "reals.txt"
        reals.write_text("1\n0\n0.5\n", encoding="utf-8")
        symbols = tmp_path / "symbols.txt"
        symbols.write_text("1\n0\n1\n2\n", encoding="utf-8")
        for overrides, message in (
            (dict(null="uniform"), "integer observations"),
            (dict(dgp=f"file:{reals}", horizon=2), "integer observations"),
            (dict(null="categorical:0.2,0.3,0.5"), r"alphabet \[0, 2\)"),
            # a value past the horizon is still part of the loaded stream
            (dict(dgp=f"file:{symbols}", horizon=3), r"alphabet \[0, 2\)"),
        ):
            for runner in (run_simulate, run_validate):
                if runner is run_validate and "dgp" in overrides:
                    continue
                cfg = _cfg(tmp_path, reps=200, **overrides)
                with pytest.raises(ConfigError, match=message):
                    runner(cfg)
                assert not Path(cfg.out).exists()

    def test_null_draws_only_positive_probability_symbols(self, tmp_path):
        # a zero-probability third symbol is never drawn, so a binary
        # alternative can bet on this null
        for null in ("categorical:0.5,0.5,0", "bernoulli:0", "bernoulli:1"):
            assert run_simulate(_cfg(tmp_path, null=null, reps=2, horizon=5))["ok"] is True
        assert _parse_null_spec("categorical:0.5,0.5,0")[1] == 1
        assert _parse_null_spec("categorical:0,0,1")[1] == 2
        # the float cumulative sum ends at 1 - 2**-53, the largest uniform
        # draw, which searchsorted puts past the last symbol: the draw still
        # lands on the last positive-probability symbol
        sampler, top = _parse_null_spec("categorical:0.7,0.2,0.1,0")
        assert np.cumsum([0.7, 0.2, 0.1, 0.0])[-1] == 1.0 - 2.0**-53
        assert top == 2
        largest = SimpleNamespace(random=lambda n: np.full(n, 1.0 - 2.0**-53))
        assert sampler(largest, 3).tolist() == [2, 2, 2]
        assert _parse_null_spec("bernoulli:0")[1] == 0
        assert _parse_null_spec("normal")[1] is None


class TestAudit:
    def test_detects_corrupted_wealth(self, tmp_path):
        cfg = _cfg(tmp_path, reps=2, horizon=5)
        run_simulate(cfg)
        path = Path(cfg.out) / "trajectory.csv"
        lines = path.read_text().strip().split("\n")
        fields = lines[3].split(",")
        fields[8] = repr(float(fields[8]) * 1.5 + 0.1)
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert audit_trajectory(path)["ok"] is False

    def test_detects_out_of_order_rows(self, tmp_path):
        cfg = _cfg(tmp_path, reps=2, horizon=4)
        run_simulate(cfg)
        path = Path(cfg.out) / "trajectory.csv"
        lines = path.read_text().strip().split("\n")
        lines[2], lines[3] = lines[3], lines[2]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="out of order"):
            audit_trajectory(path)


class TestValidate:
    def test_refuses_underpowered_runs(self, tmp_path):
        cfg = _cfg(tmp_path, reps=5, horizon=10)
        with pytest.raises(ConfigError, match="1000"):
            run_validate(cfg)

    def test_null_run_passes(self, tmp_path):
        cfg = _cfg(tmp_path, reps=30, horizon=40, seed=2024)
        report = run_validate(cfg)
        assert report["ks_ok"] and report["lag1_ok"]
        assert (Path(cfg.out) / "validity.json").exists()

    def test_constant_tau_misuse_flagged(self, tmp_path):
        cfg = _cfg(tmp_path, reps=30, horizon=40, tau_mode="constant:0.5")
        report = run_validate(cfg)
        assert report["ks_ok"] is False
        assert report["ok"] is False

    def test_requires_null_dgp(self, tmp_path):
        cfg = _cfg(tmp_path, reps=30, horizon=40, dgp="alt")
        with pytest.raises(ConfigError, match="dgp"):
            run_validate(cfg)

    def test_refuses_single_replicate(self, tmp_path):
        # one replicate has no standard error, so the wealth check would pass
        # against an infinite tolerance
        cfg = _cfg(tmp_path, reps=1, horizon=1000, bettor="constant", seed=3)
        with pytest.raises(ConfigError, match="reps"):
            run_validate(cfg)
        assert not (Path(cfg.out) / "validity.json").exists()


class TestKsPort:
    """The numpy port behind `validate`'s KS check equals SciPy bit for bit."""

    def test_kolmogorov_matches_scipy(self):
        rng = np.random.default_rng(20240)
        grid = np.concatenate([
            np.linspace(0.80, 0.84, 400_001),  # both sides of the 0.82 branch point
            np.geomspace(1e-5, 0.1, 10_001),
            [0.0, 0.82, np.nextafter(0.82, 0.0), np.nextafter(0.82, 1.0)],
            [10.0, 20.0, 28.0, 40.0, 1e10, np.inf],
            rng.uniform(0.0, 6.0, 100_000),
        ])
        expected = special.kolmogorov(grid)
        got = np.array([_kolmogorov_sf(float(x)) for x in grid])
        mismatch = np.flatnonzero(got != expected)
        assert mismatch.size == 0, grid[mismatch[:5]]

    def test_kstest_matches_scipy(self):
        rng = np.random.default_rng(9)
        sizes = [1000, 60_000, *np.exp(rng.uniform(np.log(1000), np.log(60_000), 298))]
        branches = set()
        for i, size in enumerate(sizes):
            n = int(size)
            kind = i % 3
            if kind == 0:
                p = rng.random(n)
            elif kind == 1:  # tied, discrete p-values
                m = int(rng.integers(2, 50))
                p = rng.integers(1, m + 1, n) / m
            else:  # mildly non-uniform, for small p-values
                p = rng.beta(1.0, 1.0 + 0.05 * rng.random(), n)
            ref = stats.kstest(p, "uniform", method="asymp")
            statistic, pvalue = ks_uniform(p)
            assert statistic == float(ref.statistic) and pvalue == float(ref.pvalue), (i, n)
            branches.add(statistic * np.sqrt(n) <= 0.82)
        assert branches == {True, False}


class TestQuantile:
    """``_quantile_sorted`` against ``np.quantile``, compared with ``==``."""

    QS = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)

    def _check(self, values):
        values = np.asarray(values, dtype=float)
        ordered = np.sort(values)
        with np.errstate(invalid="ignore"):
            want = np.array([np.quantile(values, q) for q in self.QS])
        got = np.array([_quantile_sorted(ordered, q) for q in self.QS])
        assert np.array_equal(got, want, equal_nan=True), (values, got, want)

    def test_seeded_arrays(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            size = int(rng.integers(1, 40))
            values = rng.lognormal(0.0, 3.0, size)
            if rng.random() < 0.5:  # ties
                values = np.round(values, int(rng.integers(0, 2)))
            self._check(values)

    def test_inf_nan_and_single_values(self):
        rng = np.random.default_rng(18)
        for special_value in (math.inf, -math.inf, math.nan):
            for size in (1, 2, 3, 5, 20):
                for _ in range(10):
                    values = rng.random(size)
                    values[rng.random(size) < 0.3] = special_value
                    self._check(values)
        self._check([0.0, 0.0, math.inf, math.inf])
        self._check([7.0])


class TestInputFileConfig:
    """A missing, malformed or short ``file:`` input is a ConfigError naming
    its field when the config is built, so no command writes anything."""

    BAD = {"missing": None, "malformed": "1\n0\nx\n", "short": "1\n0\n", "empty": ""}

    def _spec(self, tmp_path, kind):
        path = tmp_path / "input.txt"
        if self.BAD[kind] is not None:
            path.write_text(self.BAD[kind], encoding="utf-8")
        return f"file:{path}"

    @pytest.mark.parametrize("kind", list(BAD))
    def test_dgp_file(self, tmp_path, kind):
        with pytest.raises(ConfigError, match="^dgp: "):
            _cfg(tmp_path, horizon=3, dgp=self._spec(tmp_path, kind))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["missing", "malformed", "empty"])
    def test_example1_file(self, tmp_path, kind):
        with pytest.raises(ConfigError, match="^example1: "):
            _cfg(tmp_path, alt="iid:0.5", horizon=3, example1=self._spec(tmp_path, kind))
        assert not (tmp_path / "out").exists()


class TestBettorFactory:
    # the spec is parsed once, into cfg.new_bettor; build_bettor only calls it
    @pytest.mark.parametrize("spec,measure,kind", [
        ("bayes_kelly", "identity", CollapsedBayesKellyBettor),
        ("bayes_kelly", "distmean", BayesKellyBettor),
        ("constant", "identity", ConstantBettor),
        ("density:{family}", "identity", ShrunkAlternativeBettor),
    ])
    def test_one_fresh_bettor_per_call(self, tmp_path, spec, measure, kind):
        family = tmp_path / "family.json"
        family.write_text('{"2": [2.0, 0.0]}', encoding="utf-8")
        cfg = _cfg(tmp_path, bettor=spec.format(family=family), measure=measure)
        for config in (cfg, pickle.loads(pickle.dumps(cfg))):
            first, model, conformity = harness.build_bettor(config)
            second = harness.build_bettor(config)[0]
            assert type(first) is kind and type(second) is kind and first is not second
            assert model is config.model and conformity is config.conformity
        if kind is ShrunkAlternativeBettor:
            assert first.family == {2: PiecewiseDensity((2.0, 0.0))}


class TestDensityBettorConfig:
    @pytest.mark.parametrize("payload", ['{"1": [1.5], "2": [1.0, 1.0]}', '{"1": [1.0',
                                         '[[1.0]]', '{"x": [1.0]}'])
    def test_bad_file_is_a_config_error_before_any_replicate(self, tmp_path, payload):
        path = tmp_path / "family.json"
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(ConfigError, match="bettor"):
            _cfg(tmp_path, bettor=f"density:{path}")
        assert not (tmp_path / "out").exists()

    def test_step_keys_follow_the_integer_rule(self, tmp_path):
        # a JSON key is a step index, read by the integer rule that names it
        path = tmp_path / "family.json"
        path.write_text('{"1.0": [1.0]}', encoding="utf-8")
        message = r"^bettor: step index must be an integer, got '1\.0'$"
        with pytest.raises(ConfigError, match=message):
            _cfg(tmp_path, bettor=f"density:{path}")

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="bettor"):
            _cfg(tmp_path, bettor=f"density:{tmp_path / 'absent.json'}")

    def test_good_file_runs(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text('{"2": [2.0, 0.0]}', encoding="utf-8")
        report = run_simulate(_cfg(tmp_path, bettor=f"density:{path}"))
        assert report["audit_ok"]


class TestOptimality:
    def test_horizon_guard(self, tmp_path):
        cfg = _cfg(tmp_path, horizon=7)
        with pytest.raises(ConfigError, match="horizon"):
            run_optimality(cfg)

    def test_null_alternative_is_flat(self, tmp_path):
        cfg = _cfg(tmp_path, alt="iid:0.5", horizon=4, rivals=20)
        report = run_optimality(cfg)
        assert abs(report["expected_log_wealth"]) <= 1e-12
        assert abs(report["pushforward_kl"]) <= 1e-12
        assert report["ok"] is True

    def test_certificate_contents(self, tmp_path):
        cfg = _cfg(tmp_path, horizon=5, rivals=30)
        report = run_optimality(cfg)
        assert report["identity_ok"] and report["dominance_ok"]
        payload = json.loads((Path(cfg.out) / "certificate.json").read_text())
        assert payload["cells"] == 120
        assert payload["identity_gap"] <= 1e-9
        assert payload["rival_max_expected_log_wealth"] <= payload["expected_log_wealth"]


class TestEProcessRun:
    def test_balanced_pair_reaches_one(self, tmp_path):
        stream = tmp_path / "bits.txt"
        stream.write_text("1\n0\n", encoding="utf-8")
        cfg = _cfg(tmp_path, alt="iid:0.5", dgp=f"file:{stream}", horizon=2,
                   example1="none")
        report = run_eprocess(cfg)
        assert report["ok"] is True
        rows = (Path(cfg.out) / "eprocess_trajectory.csv").read_text().strip().split("\n")
        assert rows[0] == "n,z,ones,log_q,log_ml,e_value,log10_e"
        last = rows[-1].split(",")
        assert float(last[5]) == pytest.approx(1.0, rel=1e-12)

    def test_evar_table_bounded(self, tmp_path):
        cfg = _cfg(tmp_path, alt="markov:0.1,0.1,0.5", horizon=8)
        report = run_eprocess(cfg)
        assert report["evar_max_expectation"] <= 1.0 + 1e-12
        rows = (Path(cfg.out) / "evar_table.csv").read_text().strip().split("\n")
        assert rows[0] == "theta,n,expectation"
        assert len(rows) == 1 + 11 * 8

    def test_example_block_from_file(self, tmp_path):
        demo = tmp_path / "demo.txt"
        demo.write_text("0.1\n-2.3\n4.5\n6.6\n-7.1\n", encoding="utf-8")
        cfg = _cfg(tmp_path, alt="iid:0.5", horizon=2, example1=f"file:{demo}")
        report = run_eprocess(cfg)
        assert report["example1_all_distinct"] is True
        assert report["example1_empirical_ml"] == pytest.approx(5.0**-5, rel=1e-12)
        assert report["example1_continuous_lr"] == 0.0

    def test_rejects_non_binary_alternative(self, tmp_path):
        cfg = _cfg(tmp_path, alt="iid:0.2,0.3,0.5")
        with pytest.raises(ConfigError, match="binary"):
            run_eprocess(cfg)


# sha256 of eprocess_trajectory.csv, eprocess.json and evar_table.csv, in that
# order, as written when the e-variable table called sequence_log_probability
# once per bit string (seed 1, null bernoulli:0.5)
EPROCESS_DIGESTS = {
    ("markov:0.1,0.1,0.5", 1): "a53b4d6d4f1a62e1f6ff0a9ebea30557c50ca21ae0c3611b6ea9e9eb4262c8c8",
    ("markov:0.1,0.1,0.5", 2): "cf36448a44053d80ddb63db7ef0caeb99c2418ea41c5dcf802457c0fe94dfac8",
    ("markov:0.1,0.1,0.5", 11): "2b7203b659a5bde3ed769cbdd5d8ce3bbef850a45d576bedfbbfb4c6e48f0850",
    ("markov:0.1,0.1,0.5", 12): "c3a51db2d1fc8b9fc3c6b4a28f6166683a15ff2c1fea8becf7f7be2f5f27186e",
    ("markov:0.1,0.1,0.5", 20): "2605387c4f51824380eef2c97b76389f76922d4c8ccc4f54dcb7d09af88ba4d9",
    ("changepoint:0.5,0.9,0.2", 1): "74b541eb0ef612ce8ed4ec90238f0e5b3804608950506d312187adf41c541658",
    ("changepoint:0.5,0.9,0.2", 2): "59d339913d9c6375adbdde281b204dd9c1c5b496b5aaf510163f2628df1afa20",
    ("changepoint:0.5,0.9,0.2", 11): "c60c256bdcbca9907a224f4c6820c463a6c15bc6c8fb00e85c67a535fa628140",
    ("changepoint:0.5,0.9,0.2", 12): "04f5eb170f3817f732ab74bba93b028a035ac1c8238fb26448485d5abdab6f37",
    ("changepoint:0.5,0.9,0.2", 20): "ea00b2c99f0cf9a43eef96ed1bb8780e5828fc76b4b981a1767cf43985c0b359",
    ("markov:0,0,1", 1): "7c5652bb0984e3e38bd268481c79e938210adc9194597954c80e4e9e8c18e116",
    ("markov:0,0,1", 2): "ef82c3742f78d728d47b6d3ccf32ba438f68f65d0d9d9e33f50515fde64cfed9",
    ("markov:0,0,1", 11): "54db039be62fec353c5d42e8c574e69a9fa57cb9a87e08ddedd1645ccf6e4475",
    ("markov:0,0,1", 12): "3373acce73a2eadf64e46a1fee25f0ad3a6cd74e60057b891c76438b82407471",
    ("markov:0,0,1", 20): "ca1b9376fd25118f8a31b7d92dfd2213127b91122134667e4610d29f91d1bb23",
}


class TestEVariableTableWalk:
    @pytest.mark.parametrize("alt,horizon", list(EPROCESS_DIGESTS))
    def test_outputs_unchanged(self, tmp_path, alt, horizon):
        cfg = ExperimentConfig.from_mapping(dict(
            seed=1, horizon=horizon, null="bernoulli:0.5", alt=alt, out=str(tmp_path)))
        run_eprocess(cfg)
        digest = hashlib.sha256()
        for name in ("eprocess_trajectory.csv", "eprocess.json", "evar_table.csv"):
            digest.update((tmp_path / name).read_bytes())
        assert digest.hexdigest() == EPROCESS_DIGESTS[alt, horizon]

    def test_one_audit_fold_per_grid_length(self, tmp_path, monkeypatch):
        calls = []
        fold = AlternativeModel.sequence_log_probability

        def counted(model, seq):
            calls.append(len(seq))
            return fold(model, seq)

        monkeypatch.setattr(AlternativeModel, "sequence_log_probability", counted)
        run_eprocess(_cfg(tmp_path, alt="markov:0.1,0.1,0.5", horizon=14))
        assert calls == list(range(1, 13))

    def test_one_expectation_call_per_grid_length(self, tmp_path, monkeypatch):
        # the whole theta grid in one call per n, and each string's statistic
        # read once: 2 + 4 + ... + 2**11 = 4 094 reads, not 11 times as many
        calls, reads = [], []
        expectation = harness._oracle.evariable_expectation

        def counted(statistic, thetas, n):
            calls.append((list(thetas), n))

            def read(bits):
                reads.append(bits)
                return statistic(bits)

            return expectation(read, thetas, n)

        monkeypatch.setattr(harness._oracle, "evariable_expectation", counted)
        run_eprocess(_cfg(tmp_path, alt="markov:0.1,0.1,0.5", horizon=11))
        thetas = [i / 10.0 for i in range(11)]
        assert calls == [(thetas, n) for n in range(1, 12)]
        assert len(reads) == 4094 == len(set(reads))

    def test_audit_raises_on_a_walk_mismatch(self, tmp_path, monkeypatch):
        walk = AlternativeModel.log_probability_levels

        def off_by_one_ulp(model, depth):
            levels = walk(model, depth)
            levels[3] = {s: float(np.nextafter(q, 0.0)) for s, q in levels[3].items()}
            return levels

        monkeypatch.setattr(AlternativeModel, "log_probability_levels", off_by_one_ulp)
        with pytest.raises(RuntimeError, match=r"data\[:3\]"):
            run_eprocess(_cfg(tmp_path, alt="markov:0.1,0.1,0.5", horizon=5))


class TestWriters:
    def test_json_is_sorted_sanitized_and_newline_terminated(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(path, {"b": math.inf, "a": math.nan, "c": -math.inf, "d": 1.5})
        text = path.read_text()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert list(payload) == ["a", "b", "c", "d"]
        assert payload == {"a": "nan", "b": "inf", "c": "-inf", "d": 1.5}
