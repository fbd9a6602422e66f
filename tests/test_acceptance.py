"""Acceptance suite.

One test per criterion; each prints a single ``[PASS]``/``[FAIL]`` line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them) and fails
loudly if its gate is not met.  Stated runtime budgets are asserted.
"""

import math
import time

import numpy as np
import pytest

from ctmkit import (
    BayesKellyBettor,
    DistanceToMeanMeasure,
    IdentityMeasure,
    cell_tree,
    changepoint_model,
    evariable_expectation,
    expected_log_wealth,
    example_distinct_report,
    iid_model,
    markov_model,
    node_plan,
    pushforward_kl,
    pvalue_step,
    run_eprocess,
    sample_betting_family,
    score_window,
)
from ctmkit.cli import main as cli_main
from ctmkit.harness import ExperimentConfig, run_validate

from helpers import random_table
from test_differential import engines, midpoints, oracle_gaps


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num} failed: {label} ({detail})"


def _instances():
    """The certified instances: binary changepoint and Markov alternatives
    with the identity measure at N = 2..6, plus one non-identity instance."""
    out = []
    for N in range(2, 7):
        out.append(("changepoint", changepoint_model(0.5, 0.9, 0.2),
                    IdentityMeasure(), N))
        out.append(("markov", markov_model(0.1, 0.1), IdentityMeasure(), N))
    table = random_table(3, depth=3, rng=np.random.default_rng(123))
    out.append(("table3-distmean", table, DistanceToMeanMeasure(), 4))
    return out


@pytest.fixture(scope="module")
def certified_trees():
    """Cell trees shared by criteria 2, 3 and 7, with build time recorded."""
    start = time.perf_counter()
    trees = [
        (name, model, measure, N, cell_tree(model, measure, N))
        for name, model, measure, N in _instances()
    ]
    return trees, time.perf_counter() - start


def test_criterion_1_density_law():
    rng = np.random.default_rng(20260825)
    start = time.perf_counter()
    scenarios = 1000
    checked = 0
    worst_integral = 0.0
    worst_height = 0.0
    for _ in range(scenarios):
        m = int(rng.integers(2, 5))
        steps = int(rng.integers(1, 9))
        model = random_table(m, depth=int(rng.integers(1, steps + 1)), rng=rng)
        measure = DistanceToMeanMeasure() if rng.random() < 0.5 else IdentityMeasure()
        bettor = BayesKellyBettor(model, measure)
        data = rng.integers(0, m, steps)
        for i in range(steps):
            density = bettor.next_density()
            n = density.n
            worst_integral = max(
                worst_integral, abs(math.fsum(density.heights) / n - 1.0)
            )
            worst_height = max(
                worst_height,
                -min(density.heights),
                max(density.heights) - n,
            )
            checked += 1
            scores = score_window(measure, np.asarray(data[: i + 1], dtype=float))
            bettor.update(pvalue_step(scores, float(rng.random())).p)
    elapsed = time.perf_counter() - start
    ok = worst_integral <= 1e-12 and worst_height <= 1e-12 and elapsed < 10.0
    _verdict(
        1,
        "every predictive density integrates to 1 and keeps heights in [0, n]",
        ok,
        f"{checked} densities over {scenarios} scenarios, "
        f"max integral error {worst_integral:.2e}, "
        f"max height excess {worst_height:.2e}, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_log_wealth_identity(certified_trees):
    trees, build_time = certified_trees
    start = time.perf_counter()
    worst = 0.0
    for name, model, measure, N, cells in trees:
        gap = abs(
            expected_log_wealth(cells, [c.bk_heights for c in cells])
            - pushforward_kl(cells)
        )
        worst = max(worst, gap)
    elapsed = build_time + (time.perf_counter() - start)
    ok = worst <= 1e-9 and elapsed < 60.0
    _verdict(
        2,
        "expected log wealth equals the pushforward KL divergence on every instance",
        ok,
        f"{len(trees)} instances, worst gap {worst:.2e} <= 1e-9, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_3_no_rival_dominates(certified_trees):
    trees, _ = certified_trees
    rivals_each = 100
    worst_margin = -math.inf
    for index, (name, model, measure, N, cells) in enumerate(trees):
        best = expected_log_wealth(cells, [c.bk_heights for c in cells])
        rng = np.random.default_rng(np.random.SeedSequence(555, spawn_key=(index,)))
        plan = node_plan(cells)
        for _ in range(rivals_each):
            value = expected_log_wealth(cells, sample_betting_family(plan, rng), plan)
            worst_margin = max(worst_margin, value - best)
    ok = worst_margin <= 1e-12
    _verdict(
        3,
        f"{rivals_each} random betting families per instance never beat the engine",
        ok,
        f"max rival margin {worst_margin:.2e} <= 1e-12",
    )


def test_criterion_4_null_validity(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_mapping(
        dict(
            seed=20260825,
            horizon=50,
            reps=10_000,
            null="bernoulli:0.3",
            alt="changepoint:0.5,0.9,0.2",
            measure="identity",
            bettor="bayes_kelly",
            out=str(tmp_path / "validity"),
        )
    )
    report = run_validate(cfg)
    elapsed = time.perf_counter() - start
    ok = (
        report["wealth_ok"]
        and report["ks_ok"]
        and report["lag1_ok"]
        and abs(report["lag1_correlation"]) < 0.02
        and elapsed < 120.0
    )
    _verdict(
        4,
        "10^4-replicate null run: unit mean wealth, uniform and uncorrelated p-values",
        ok,
        f"mean wealth {report['mean_final_wealth']:.4f} "
        f"(se {report['se_final_wealth']:.4f}), KS p {report['ks_pvalue']:.3g} > 0.001, "
        f"lag-1 r {report['lag1_correlation']:.5f}, {elapsed:.0f}s < 120s",
    )


def test_criterion_5_evariable_bound():
    start = time.perf_counter()
    models = [iid_model([0.5, 0.5]), markov_model(0.1, 0.1, 0.5)]
    worst = 0.0
    for model in models:
        for n in range(1, 13):
            cache = {}

            def statistic(bits, _cache=cache, _model=model):
                value = _cache.get(bits)
                if value is None:
                    value = run_eprocess(bits, _model)[-1].value
                    _cache[bits] = value
                return value

            thetas = [tenths / 10.0 for tenths in range(11)]
            worst = max(worst, *evariable_expectation(statistic, thetas, n))
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 + 1e-12 and elapsed < 30.0
    _verdict(
        5,
        "e-process expectation stays at or below 1 across the whole theta grid, n <= 12",
        ok,
        f"max expectation {worst:.15f} <= 1 + 1e-12, {elapsed:.1f}s < 30s",
    )


def test_criterion_6_all_distinct_floor():
    rng = np.random.default_rng(606)
    cases = []
    for n in range(1, 9):
        cases.append(rng.standard_normal(n))
        cases.append(np.arange(n, dtype=float))
        cases.append(1.0 + np.arange(n) * 2.0**-40)  # barely distinct
    worst = 0.0
    ratios_zero = True
    for values in cases:
        report = example_distinct_report(values)
        assert report["all_distinct"] is True
        worst = max(worst, abs(report["log_empirical_ml"] - report["log_nn_floor"]))
        ratios_zero = ratios_zero and (
            report["continuous_lr"] == 0.0
        )
    ok = worst <= 1e-14 and ratios_zero
    _verdict(
        6,
        "all-distinct samples give empirical ML exactly N^-N and likelihood ratio 0",
        ok,
        f"{len(cases)} sequences, max log gap {worst:.2e} <= 1e-14, "
        f"ratio exactly 0: {ratios_zero}",
    )


def test_criterion_7_engine_matches_oracle(certified_trees):
    # the differential checker's oracle comparison, at every cell's midpoints
    trees, _ = certified_trees
    gaps = np.array([oracle_gaps(engine, model, measure, cells, midpoints(cells))
                     for _, model, measure, _, cells in trees for engine in engines(model, measure)])
    walked = sum(len(cells) * len(engines(model, measure)) for _, model, measure, _, cells in trees)
    worst_bet, worst_weight = gaps.max(axis=0)
    _verdict(
        7,
        "explicit and collapsed engines reproduce the oracle's factors and log wealth "
        "on every cell, and the explicit leaf weights",
        worst_bet <= 1e-12 and worst_weight <= 1e-12,
        f"{walked} cell paths walked over {len(trees)} trees, max bet gap {worst_bet:.2e}, "
        f"max weight gap {worst_weight:.2e}",
    )


def test_criterion_8_cli_determinism(tmp_path):
    commands = {
        "simulate": ["--seed", "42", "--horizon", "12", "--reps", "3",
                     "--alt", "changepoint:0.5,0.9,0.2", "--measure", "identity",
                     "--bettor", "bayes_kelly"],
        "validate": ["--seed", "42", "--horizon", "40", "--reps", "25",
                     "--null", "bernoulli:0.3", "--alt", "changepoint:0.5,0.9,0.2",
                     "--measure", "identity", "--bettor", "bayes_kelly"],
        "optimality": ["--seed", "42", "--horizon", "4", "--reps", "1",
                       "--alt", "markov:0.1,0.1", "--measure", "identity",
                       "--bettor", "bayes_kelly", "--rivals", "50"],
        "eprocess": ["--seed", "42", "--horizon", "8", "--reps", "1",
                     "--null", "bernoulli:0.5", "--alt", "markov:0.1,0.1,0.5",
                     "--measure", "identity", "--bettor", "bayes_kelly"],
    }
    all_identical = True
    compared = 0
    for command, args in commands.items():
        dirs = [tmp_path / f"{command}-{run}" for run in ("a", "b")]
        for out_dir in dirs:
            code = cli_main([command, *args, "--out", str(out_dir)])
            assert code in (0, 2), f"{command} exited {code}"
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            compared += 1
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                all_identical = False
    _verdict(
        8,
        "every CLI run repeated with the same config and seed is byte-identical",
        all_identical,
        f"{len(commands)} subcommands, {compared} output files compared",
    )
