"""ctmkit benchmark.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.

``--trace 0`` measures end to end.  It runs the workload's CLI commands,
each in a fresh process, in a closed loop with one client until ``S`` seconds
are used, and checks every operation's outputs.  Each process gives one
``setup_s`` sample (spawn to ctmkit imported and the config validated) and
its command time, which adds up to the operation's ``wall_s`` sample.
Every operation of a run gets the same inputs, made from ``--seed``.

``--trace 1`` measures per layer, the same way whatever ``--workload`` says:
the result line must hold every per-layer metric of BENCHMARK.json, and
those cover all four workloads.  It replays one operation of each workload
in process, once untraced and once with spans around each call into a
package module.  ``stream_long``'s traced run also runs a scaling sweep
(see tracing.py).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it report what
the JSON leaves out: sample counts, tail percentiles, digests, machine facts.
The full record, with every operation's output digests, is also written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"
MANIFEST = ROOT / "BENCHMARK.json"
# Operations per run, at least, so that the median never rests on one sample.
MIN_OPERATIONS = 2
# Every run must end within 180 s; no single child may run past this.
CHILD_TIMEOUT_S = 170.0
MB = 1024.0  # ru_maxrss is in KiB on Linux


# The package's arrays are tiny; BLAS threads would only add jitter.
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREADED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args, log_path) -> tuple:
    """Run ``python3 args...`` from the checkout root and wait for it.

    Returns (exit code, peak RSS in MB, ``time.perf_counter()`` at spawn).
    The child is killed after CHILD_TIMEOUT_S.
    """
    with open(log_path, "w", encoding="utf-8") as log:
        spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *map(str, args)], cwd=ROOT, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / MB, spawn


def run_operation(workload, seed: int, work_dir: Path) -> dict:
    """One operation: every command of the workload, each in a fresh process.

    Each command process gives one ``setup_s`` sample (spawn to ctmkit
    imported and the config validated) and adds its command time to ``op_s``.
    """
    out_dir = work_dir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    outcome = {"exit_code": 0, "problems": [], "op_s": 0.0, "setup_s": [], "rss_mb": 0.0,
               "nonfinite": 0, "max_log10": None, "digests": {}, "seed": seed}
    for k, argv in enumerate(workload.commands):
        timing = work_dir / f"timing{k}.json"
        timing.unlink(missing_ok=True)
        code, rss, spawn = run_child([BENCH / "cli_op.py", timing,
                                      *workloads.command_argv(argv, seed, out_dir)],
                                     work_dir / f"command{k}.log")
        outcome["rss_mb"] = max(outcome["rss_mb"], rss)
        if code != 0:
            outcome["exit_code"] = code
            outcome["problems"].append(f"{argv[0]} exited {code}; see {work_dir}")
            return outcome
        times = json.loads(timing.read_text(encoding="utf-8"))
        imported = Path(times["package"]).resolve()
        if SRC.resolve() not in imported.parents:
            raise SystemExit(f"ctmkit was imported from {imported}, not from {SRC}")
        outcome["setup_s"].append(times["ready"] - spawn)
        outcome["op_s"] += times["done"] - times["ready"]
        check = workloads.check_command(argv, out_dir)
        outcome["problems"] += check["problems"]
        outcome["nonfinite"] += check["nonfinite"]
        if check["max_log10"] is not None:
            outcome["max_log10"] = max(v for v in (check["max_log10"], outcome["max_log10"])
                                       if v is not None)
        outcome["digests"].update({workloads.digest_key(workload.name, argv[0], name): digest
                                   for name, digest in check["digests"].items()})
    return outcome


def run_untraced(workload, seed: int, seconds: float, work_dir: Path) -> tuple:
    # untimed: compiles bytecode and warms the file cache
    run_child(["-c", "import ctmkit.cli"], work_dir / "warmup.log")
    outcomes = []
    start = time.perf_counter()
    while True:
        outcomes.append(run_operation(workload, seed, work_dir))
        elapsed = time.perf_counter() - start
        # closed loop: start another operation only if it should be at least
        # half done in time, so runs last ``seconds`` on average
        if len(outcomes) >= MIN_OPERATIONS and elapsed + 0.5 * elapsed / len(outcomes) > seconds:
            break
    good = [o for o in outcomes if o["exit_code"] == 0 and not o["problems"]]
    walls = [o["op_s"] for o in good]
    setup = [s for o in outcomes for s in o["setup_s"]]
    notes = {
        "loop_s": elapsed,
        "wall_s": stats.summarize(walls) if walls else None,
        "setup_s": stats.summarize(setup) if setup else None,
        "peak_rss_mb": stats.summarize([o["rss_mb"] for o in outcomes]),
        "nonfinite_report_fields": max((o["nonfinite"] for o in outcomes), default=0),
        "max_log10_wealth": max((o["max_log10"] for o in outcomes
                                 if o["max_log10"] is not None), default=None),
    }
    if not walls:
        return {}, outcomes, notes
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(o["rss_mb"] for o in good), "MB"),
    }
    if workload.steps:
        # a fixed multiple of 1 / wall_s, so a note, not a metric of its own
        notes["steps_per_s"] = workload.steps / wall
    return metrics, outcomes, notes


def outputs_changed(outcomes) -> dict:
    """Deterministic files that differ from digests.json, for every
    operation that ran at the seed the digests were recorded for."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    compared = changed = 0
    for outcome in outcomes:
        if outcome.get("seed") != recorded["seed"]:
            continue
        for key, digest in outcome["digests"].items():
            compared += 1
            changed += recorded["files"].get(key) != digest
    return {"outputs_compared": compared, "outputs_changed": changed}


def missing_metrics(metrics, trace: int) -> list:
    """Metrics BENCHMARK.json lists for this mode that the run did not measure."""
    if not MANIFEST.is_file():
        return []
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    return [m["name"] for m in manifest["per_layer" if trace else "end_to_end"]
            if m["name"] not in metrics]


def machine_facts(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
        commit = result.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it seeds the program)")
    if not (SRC / "ctmkit" / "cli.py").is_file():
        print(f"error: no ctmkit source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    work_dir = OUT / f"{workload.name}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    facts = machine_facts(args.seed)
    if args.trace:
        os.environ.update(SINGLE_THREADED)
        sys.path.insert(0, str(SRC))
        import tracing

        metrics, outcomes, notes = tracing.run_traced(
            args.seed, work_dir, sweep=workload.name == tracing.SWEEP_WORKLOAD)
    else:
        metrics, outcomes, notes = run_untraced(workload, args.seed, args.seconds, work_dir)
    attempted, failed = stats.failure_counts(outcomes)
    notes["missing_metrics"] = missing_metrics(metrics, args.trace)
    notes.update(outputs_changed(outcomes))
    notes["fail_ratio"] = failed / attempted
    notes["problems"] = [p for o in outcomes for p in o["problems"]][:20]
    record = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
              "machine": facts, "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "operations": outcomes}
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {workload.name} seed {args.seed} trace {args.trace}: "
          f"{failed}/{attempted} operations failed (fail_ratio {notes['fail_ratio']:g})")
    for key, value in notes.items():
        print(f"# {key}: {json.dumps(value)}")
    print(f"# machine: {json.dumps(facts)}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value!r} {unit}")
    complete = bool(metrics) and not notes["missing_metrics"]
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
