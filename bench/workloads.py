"""The benchmark's workloads and the output check run after every operation.

An operation is one or more complete ``ctmkit`` CLI commands.  Each command
gets ``--seed`` and ``--out`` appended; everything else is fixed here.  The
checks read the files the commands wrote and do not trust the program's own
audit or exit code beyond what the CLI contract promises.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# The seed whose output digests are recorded in digests.json.
DEFAULT_SEED = 1

CSV_HEADER = ["rep", "n", "z", "tau", "n_star", "n_upper", "p", "factor", "wealth",
              "log10_wealth"]
# log10 wealth is checked against a running sum of log10(factor); the two sums
# associate differently, so they agree to rounding, not bit for bit.
LOG10_TOL = 1e-9

# Files whose bytes the determinism contract fixes, per command.
DETERMINISTIC_FILES = {
    "simulate": ("trajectory.csv", "summary.json"),
    "validate": ("validity.json",),
    "optimality": ("certificate.json",),
    "eprocess": ("eprocess.json", "eprocess_trajectory.csv", "evar_table.csv"),
}
REPORT_FILES = {
    "simulate": "summary.json",
    "validate": "validity.json",
    "optimality": "certificate.json",
    "eprocess": "eprocess.json",
}


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # argv tuples, without --seed and --out
    steps: int | None  # p-value steps per operation (reps x horizon), if any


def _flags(argv) -> dict:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


# Each operation takes 2 to 6 s here, so a run times several of them.
WORKLOADS = {
    w.name: w
    for w in (
        # 600 replicates keep the lag-1 check's 0.02 threshold at 3.4 standard
        # errors; fewer would make a false alarm likely at some seed.
        Workload(
            "mc_validate",
            (("validate", "--horizon", "50", "--reps", "600", "--null", "bernoulli:0.3",
              "--alt", "changepoint:0.5,0.9,0.2", "--measure", "identity",
              "--bettor", "bayes_kelly"),),
            600 * 50,
        ),
        # Two replicates, not one: the standard error of the final wealth then
        # overflows to inf, the ROADMAP item 2 symptom this workload shows.
        Workload(
            "stream_long",
            (("simulate", "--horizon", "1000", "--reps", "2", "--alt", "markov:0.1,0.1",
              "--dgp", "alt", "--measure", "identity", "--bettor", "bayes_kelly"),),
            2 * 1000,
        ),
        # The explicit engine's cost is heavy-tailed in the data: one replicate
        # at horizon 36 took 188 s, against a median of 0.45 s.  At horizon 48
        # some seeds cannot finish inside a run, so each operation runs many
        # short replicates; see NOTES.md.
        Workload(
            "explicit_distmean",
            (("simulate", "--horizon", "12", "--reps", "200",
              "--alt", "changepoint:0.3,0.8,0.05", "--dgp", "alt", "--measure", "distmean",
              "--bettor", "bayes_kelly"),),
            200 * 12,
        ),
        Workload(
            "certify",
            (("optimality", "--horizon", "6", "--alt", "markov:0.1,0.1", "--rivals", "100"),
             ("eprocess", "--horizon", "11", "--null", "bernoulli:0.5",
              "--alt", "markov:0.1,0.1,0.5")),
            None,
        ),
    )
}


def command_argv(argv, seed: int, out_dir) -> list:
    return list(argv) + ["--seed", str(seed), "--out", str(out_dir)]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _nonfinite_fields(report: dict) -> int:
    # write_json stores non-finite floats as these strings
    return sum(1 for v in report.values() if v in ("inf", "-inf", "nan"))


def _check_trajectory(path, reps: int, horizon: int, problems: list) -> float:
    """Check a trajectory CSV; returns the largest log10 wealth seen."""
    rows = 0
    max_log10 = -math.inf
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != CSV_HEADER:
            problems.append("trajectory.csv: unexpected header")
            return max_log10
        running = 0.0
        for row in reader:
            rep, n = divmod(rows, horizon)
            n += 1
            rows += 1
            if (int(row[0]), int(row[1])) != (rep, n):
                problems.append(f"trajectory.csv: row {rows} is ({row[0]},{row[1]}), "
                                f"expected ({rep},{n})")
                return max_log10
            if n == 1:
                running = 0.0
            n_star, n_upper = int(row[4]), int(row[5])
            p, factor, log10_w = float(row[6]), float(row[7]), float(row[9])
            if not (0 <= n_star < n_upper <= n and n_star / n <= p <= n_upper / n):
                problems.append(f"trajectory.csv: rep {rep} n {n}: p={p!r} outside "
                                f"[{n_star}/{n}, {n_upper}/{n}]")
            running = running + math.log10(factor) if factor > 0.0 else -math.inf
            if not math.isclose(running, log10_w, rel_tol=LOG10_TOL, abs_tol=LOG10_TOL):
                problems.append(f"trajectory.csv: rep {rep} n {n}: log10_wealth {log10_w!r} "
                                f"!= running sum {running!r}")
            max_log10 = max(max_log10, log10_w)
    if rows != reps * horizon:
        problems.append(f"trajectory.csv: {rows} rows, expected {reps} x {horizon}")
    return max_log10


def _check_eprocess_trajectory(path) -> float:
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        return max(float(row["log10_e"]) for row in csv.DictReader(fh))


def check_command(argv, out_dir) -> dict:
    """Check the files one command wrote to ``out_dir``.

    Returns ``problems`` (empty when the outputs are correct), the number of
    non-finite report fields, the largest log10 wealth (or e-value) written,
    and sha256 digests of the deterministic files.
    """
    command = argv[0]
    flags = _flags(argv)
    out = Path(out_dir)
    problems: list = []
    max_log10 = None
    try:
        report = json.loads((out / REPORT_FILES[command]).read_text(encoding="utf-8"))
        if command == "simulate":
            reps, horizon = int(flags["reps"]), int(flags["horizon"])
            max_log10 = _check_trajectory(out / "trajectory.csv", reps, horizon, problems)
            if (report.get("replicates"), report.get("horizon")) != (reps, horizon):
                problems.append("summary.json: replicates/horizon do not match the command")
        elif command == "validate":
            expected = int(flags["reps"]) * int(flags["horizon"])
            if report.get("pooled_pvalues") != expected:
                problems.append(f"validity.json: pooled_pvalues {report.get('pooled_pvalues')}"
                                f" != {expected}")
            for key in ("ks_ok", "lag1_ok", "wealth_ok", "ok"):
                if report.get(key) is not True:
                    problems.append(f"validity.json: {key} is {report.get(key)!r}")
        elif command == "optimality":
            for key in ("identity_ok", "dominance_ok"):
                if report.get(key) is not True:
                    problems.append(f"certificate.json: {key} is {report.get(key)!r}")
            if report.get("cells") != math.factorial(int(flags["horizon"])):
                problems.append(f"certificate.json: {report.get('cells')} cells")
        elif command == "eprocess":
            if report.get("evar_ok") is not True:
                problems.append(f"eprocess.json: evar_ok is {report.get('evar_ok')!r}")
            max_log10 = _check_eprocess_trajectory(out / "eprocess_trajectory.csv")
        digests = {name: sha256(out / name) for name in DETERMINISTIC_FILES[command]}
    except (OSError, ValueError, KeyError) as err:
        problems.append(f"{command}: cannot read outputs: {err}")
        return {"problems": problems, "nonfinite": 0, "max_log10": None, "digests": {}}
    return {"problems": problems, "nonfinite": _nonfinite_fields(report),
            "max_log10": max_log10, "digests": digests}


def digest_key(workload: str, command: str, name: str) -> str:
    return f"{workload}/{command}/{name}"
