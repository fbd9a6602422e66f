"""Tests for the benchmark's own arithmetic, on synthetic samples and spans.

Run from the repository root:  python3 -m pytest bench -q
"""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([3, 1, 2], 50) == 2


def test_samples_beyond_counts_strictly_above_the_rank():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(100, 95) == 5
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(1, 50) == 0


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(19))) is None  # p75 has 4 beyond
    assert stats.tail_percentile(list(range(40))) == (75.0, 29)  # p90 has only 4
    assert stats.tail_percentile(list(range(100))) == (90.0, 89)
    assert stats.tail_percentile(list(range(1000))) == (99.0, 989)
    assert stats.tail_percentile(list(range(10000)))[0] == 99.9


def test_summarize_reports_tail_only_when_supported():
    few = stats.summarize([3.0, 1.0, 2.0])
    assert few == {"median": 2.0, "count": 3}
    many = stats.summarize([float(i) for i in range(200)])
    assert many["count"] == 200 and many["median"] == 99.5
    assert many["p95"] == 189.0 and "p99" not in many


def test_fit_exponent_recovers_power_laws():
    sizes = [50, 1000, 4000]
    assert stats.fit_exponent(sizes, [3e-6 * n for n in sizes]) == pytest.approx(1.0)
    assert stats.fit_exponent(sizes, [5e-6] * 3) == pytest.approx(0.0, abs=1e-12)
    assert stats.fit_exponent(sizes, [1e-9 * n**2 for n in sizes]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        stats.fit_exponent([10], [1.0])


def test_self_times_subtract_direct_children_only():
    # 0: root [0, 10]; 1: child [1, 4]; 2: grandchild [2, 3]; 3: child [5, 9]
    parents = [-1, 0, 1, 0]
    durations = [10.0, 3.0, 1.0, 4.0]
    assert stats.self_times(parents, durations) == [3.0, 2.0, 1.0, 4.0]
    # self times of a tree always add back up to the roots' durations
    assert math.fsum(stats.self_times(parents, durations)) == 10.0


def test_failure_counts_cover_exit_codes_and_check_problems():
    outcomes = [
        {"exit_code": 0, "problems": []},
        {"exit_code": 2, "problems": []},
        {"exit_code": 0, "problems": ["trajectory.csv: p outside its rank interval"]},
        {"exit_code": 1, "problems": ["validate exited 1"]},
    ]
    assert stats.failure_counts(outcomes) == (4, 3)
    assert stats.failure_counts([]) == (0, 0)


def _write_run(out, rows):
    import json

    import workloads

    out.mkdir(exist_ok=True)
    lines = [",".join(workloads.CSV_HEADER)] + [",".join(map(str, r)) for r in rows]
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "summary.json").write_text(json.dumps({"replicates": 1, "horizon": 2,
                                                  "se_final_wealth": "inf"}))
    return workloads.check_command(("simulate", "--horizon", "2", "--reps", "1"), out)


GOOD_ROWS = [
    (0, 1, 1, 0.5, 0, 1, 0.5, 1.0, 1.0, 0.0),
    (0, 2, 0, 0.25, 0, 1, 0.125, 2.0, 2.0, math.log10(2.0)),
]


def test_trajectory_check_passes_a_consistent_file(tmp_path):
    result = _write_run(tmp_path / "ok", GOOD_ROWS)
    assert result["problems"] == []
    assert result["nonfinite"] == 1
    assert result["max_log10"] == pytest.approx(math.log10(2.0))
    assert set(result["digests"]) == {"trajectory.csv", "summary.json"}


@pytest.mark.parametrize("column, value", [(6, 0.75), (9, 0.5), (5, 3)])
def test_trajectory_check_flags_each_broken_field(tmp_path, column, value):
    rows = [list(r) for r in GOOD_ROWS]
    rows[1][column] = value  # p outside [n_star/n, n_upper/n], wrong log10, bad n_upper
    assert _write_run(tmp_path / "bad", rows)["problems"]


def test_trajectory_check_flags_missing_rows(tmp_path):
    assert _write_run(tmp_path / "short", GOOD_ROWS[:1])["problems"]


def _span(tracer, name, parent, start, end):
    tracer.name.append(tracer.name_id(name))
    tracer.parent.append(parent)
    tracer.start.append(start)
    tracer.end.append(end)
    return len(tracer.start) - 1


def test_layer_metrics_use_self_time_and_leave_out_layers_that_did_not_run():
    sys.path.insert(0, str(BENCH.parent / "src"))
    tracing = pytest.importorskip("tracing")
    tracer = tracing.Tracer()
    bet = _span(tracer, "bayes_kelly.bet", -1, 0.0, 3.0)
    _span(tracer, "betting.evaluate", bet, 1.0, 2.0)
    _span(tracer, "harness.audit", -1, 3.5, 4.0)
    tracer.counts["collapsed_reps"] += 2
    metrics = tracing.layer_metrics(tracer, wall_s=5.0, untraced_s=4.0)
    assert metrics["bayes_kelly.bet.busy_s"] == (2.0, "s")
    assert metrics["betting.evaluate.busy_s"] == (1.0, "s")
    assert metrics["harness.audit.busy_s"] == (0.5, "s")
    # derived: wall time minus the self time of every non-harness span
    assert metrics["harness.self_s"] == (2.0, "s")
    assert metrics["trace.overhead_ratio"] == (1.25, "ratio")
    assert metrics["bayes_kelly.collapsed_reps"] == (2, "count")
    for absent in ("bayes_kelly.explicit_reps", "bayes_kelly.candidates.sum",
                   "oracle.cell_tree.busy_s", "models.sample.busy_s", "conformal.busy_s"):
        assert absent not in metrics


def test_missing_metrics_lists_what_the_manifest_names_but_the_run_lacks(tmp_path, monkeypatch):
    import json

    import run

    manifest = tmp_path / "BENCHMARK.json"
    manifest.write_text(json.dumps({
        "end_to_end": [{"name": "setup_s"}, {"name": "wall_s"}],
        "per_layer": [{"name": "certify.oracle.cells"}],
    }))
    monkeypatch.setattr(run, "MANIFEST", manifest)
    assert run.missing_metrics({"setup_s": (1.0, "s")}, trace=0) == ["wall_s"]
    assert run.missing_metrics({"setup_s": (1.0, "s"), "wall_s": (2.0, "s")}, trace=0) == []
    assert run.missing_metrics({}, trace=1) == ["certify.oracle.cells"]
