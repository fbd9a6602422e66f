"""Traced replay: per-layer time and counts, measured from outside the package.

The replay runs a workload's commands in this process through the harness
functions the CLI calls.  Before it, ``install`` swaps selected module
functions and methods for wrappers that record a span (name, parent, start,
end) around each call into a layer; ``uninstall`` puts the originals back.
Spans live in flat arrays in memory and are written out once, after the run.

A layer's ``busy_s`` is the sum of its spans' self time (duration minus the
time covered by child spans).  Some figures need extra work the program
does not do, such as rebuilding a density to time its construction; such
"probes" run on a paused clock, so no span, and no replay wall time,
includes them.

Import this module only after the checkout's ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import gzip
import math
import statistics
import time
import traceback
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from ctmkit import betting, bayes_kelly, cli, conformal, eprocess, harness, models, oracle

import stats
import workloads

SWEEP_SIZES = (50, 1000, 4000)
SWEEP_LAYERS = ("models.sample", "bayes_kelly.step", "betting.density_build", "eprocess.run")
# The sweep does not depend on the workload and takes about 75 s, most of it
# the two O(N^2) layers at n = 4000, so only this workload's traced run has it.
SWEEP_WORKLOAD = "stream_long"
# Small sizes are repeated until this much time is spent, and the median kept.
SWEEP_MIN_TOTAL_S = 0.2
SWEEP_MAX_REPEATS = 50
_LN10 = math.log(10.0)


class Tracer:
    """Span recorder with a clock that stops while probes run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._paused = 0.0
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.now()
        self._stack.pop()

    def probe(self, fn, *args) -> None:
        t0 = time.perf_counter()
        try:
            fn(*args)
        finally:
            self._paused += time.perf_counter() - t0

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,parent,start_us,end_us\n")
            for i, (n, p, s, e) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                fh.write(f"{i},{self.names[n]},{p},{s * 1e6:.3f},{e * 1e6:.3f}\n")


# -- probes: run after a wrapped call returns, on the paused clock -----------


def _after_bet(tracer, density, args):
    # a PiecewiseDensity rebuilt from the emitted heights: construction and
    # validation cost, off the blocking path
    t0 = time.perf_counter()
    betting.PiecewiseDensity(density.heights)
    tracer.samples["density_build"].append(time.perf_counter() - t0)


def _after_update(tracer, factor, args):
    bettor = args[0]
    if isinstance(bettor, bayes_kelly.BayesKellyBettor):
        tracer.counts["survivors"] += len(bettor.hypothesis_set)


def _after_extend(tracer, hset, args):
    tracer.counts["candidates.sum"] += len(hset)
    tracer.counts["candidates.max"] = max(tracer.counts["candidates.max"], len(hset))


def _after_build_bettor(tracer, result, args):
    kind = "collapsed" if isinstance(result[0], bayes_kelly.CollapsedBayesKellyBettor) else "explicit"
    tracer.counts[f"{kind}_reps"] += 1


def _after_ctm_run(tracer, steps, args):
    if steps:
        top = max(s.log_wealth for s in steps) / _LN10
        tracer.counts["max_log10"] = max(tracer.counts.get("max_log10", -math.inf), top)


def _after_run_eprocess(tracer, states, args):
    tracer.counts["eprocess.steps"] += len(states)
    for s in states:
        if s.value > 0.0:
            top = (s.log_q - eprocess.log_ml_sup(s.n, s.ones)) / _LN10
            tracer.counts["max_log10"] = max(tracer.counts.get("max_log10", -math.inf), top)


def _after_cell_tree(tracer, cells, args):
    tracer.counts["oracle.cells"] += len(cells)


def _after_evariable(tracer, value, args):
    tracer.counts["oracle.evariable.terms"] += 2 ** int(args[2])


# (owner, attribute, span name or None for a counting-only wrapper, probe)
PATCHES = (
    (harness, "ctm_run", "conformal.ctm_run", _after_ctm_run),
    (conformal, "score_window", "conformal.score_window", None),
    (conformal, "pvalue_step", "conformal.pvalue_step", None),
    (betting.BettingMartingale, "next_density", "bayes_kelly.bet", _after_bet),
    (betting.BettingMartingale, "update", "bayes_kelly.update", _after_update),
    (betting.PiecewiseDensity, "evaluate", "betting.evaluate", None),
    (bayes_kelly, "extend", None, _after_extend),
    (models.AlternativeModel, "sample", "models.sample", None),
    (models.AlternativeModel, "conditional_batch", "models.conditional_batch", None),
    (models.AlternativeModel, "sequence_log_probability", "models.sequence_log_probability",
     None),
    (eprocess, "run_eprocess", "eprocess.run", _after_run_eprocess),
    (oracle, "cell_tree", "oracle.cell_tree", _after_cell_tree),
    (oracle, "sample_betting_family", "oracle.rivals", None),
    (oracle, "expected_log_wealth", "oracle.rivals", None),
    (oracle, "evariable_expectation", "oracle.evariable", _after_evariable),
    (harness, "substream", "harness.replicate_setup", None),
    (harness, "build_bettor", "harness.replicate_setup", _after_build_bettor),
    (harness, "audit_trajectory", "harness.audit", None),
)


def _wrapper(tracer, original, span, after):
    name_id = tracer.name_id(span) if span else None

    def wrapped(*args, **kwargs):
        if name_id is None:
            result = original(*args, **kwargs)
        else:
            idx = tracer.open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
        if after is not None:
            tracer.probe(after, tracer, result, args)
        return result

    return wrapped


def install(tracer) -> list:
    saved = []
    for owner, attr, span, after in PATCHES:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrapper(tracer, original, span, after))
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# -- replay --------------------------------------------------------------------


def replay(workload, seed: int, out_dir, clock=time.perf_counter) -> tuple:
    """Run the workload's commands in process; returns (seconds, outcome)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    argvs = [workloads.command_argv(argv, seed, out_dir) for argv in workload.commands]
    exit_code = 0
    errors = []
    start = clock()
    for argv in argvs:
        try:
            cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
            report = getattr(harness, f"run_{argv[0]}")(cfg)
        except Exception:  # noqa: BLE001 - a raising command is a failed operation
            errors.append(traceback.format_exc())
            exit_code = 1
            break
        if not report.get("ok"):
            exit_code = exit_code or 2  # the CLI's exit code for a failed check
    elapsed = clock() - start
    checks = [workloads.check_command(argv, out_dir) for argv in workload.commands]
    outcome = {
        "seed": seed,
        "exit_code": exit_code,
        "problems": errors + [p for c in checks for p in c["problems"]],
        "nonfinite": sum(c["nonfinite"] for c in checks),
        "digests": {workloads.digest_key(workload.name, argv[0], name): digest
                    for argv, c in zip(workload.commands, checks)
                    for name, digest in c["digests"].items()},
    }
    return elapsed, outcome


def layer_metrics(tracer, wall_s: float, untraced_s: float) -> dict:
    """Per-layer metrics from the spans of one traced replay.

    A metric is left out when its layer recorded no span or count on this
    replay: the layer did not run, so there is nothing to report.
    """
    names = tracer.names
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    selfs = stats.self_times(tracer.parent, durations)
    busy = defaultdict(float)
    per_call = defaultdict(list)
    for n, d in zip(tracer.name, selfs):
        busy[names[n]] += d
        per_call[names[n]].append(d)
    counts = tracer.counts
    # taken before any lookup below adds a key to these defaultdicts
    ran = set(per_call) | set(counts) | set(tracer.samples)
    out = {}

    def put(source, metric, value, unit):
        if source in ran:
            out[metric] = (value() if callable(value) else value, unit)

    def us(values, pct):
        return stats.percentile(values, pct) * 1e6

    conformal_steps = [a + b for a, b in zip(per_call["conformal.score_window"],
                                             per_call["conformal.pvalue_step"])]
    density = tracer.samples["density_build"]
    extended = counts["candidates.sum"]
    put("conformal.ctm_run", "conformal.busy_s",
        busy["conformal.ctm_run"] + busy["conformal.score_window"]
        + busy["conformal.pvalue_step"], "s")
    put("conformal.pvalue_step", "conformal.us_per_step.p50",
        lambda: us(conformal_steps, 50), "us")
    put("conformal.pvalue_step", "conformal.us_per_step.p99",
        lambda: us(conformal_steps, 99), "us")
    put("density_build", "betting.density_build.busy_s", lambda: math.fsum(density), "s")
    put("density_build", "betting.density_build.us.p50", lambda: us(density, 50), "us")
    for span in ("betting.evaluate", "models.sample", "models.conditional_batch",
                 "models.sequence_log_probability", "eprocess.run", "oracle.cell_tree",
                 "oracle.rivals", "oracle.evariable", "harness.replicate_setup",
                 "harness.audit"):
        put(span, f"{span}.busy_s", busy[span], "s")
    for span in ("bayes_kelly.bet", "bayes_kelly.update"):
        put(span, f"{span}.busy_s", busy[span], "s")
        put(span, f"{span}.us.p50", lambda: us(per_call[span], 50), "us")
        put(span, f"{span}.us.p99", lambda: us(per_call[span], 99), "us")
    put("candidates.sum", "bayes_kelly.candidates.sum", extended, "count")
    put("candidates.sum", "bayes_kelly.candidates.max", counts["candidates.max"], "count")
    put("candidates.sum", "bayes_kelly.survivor_ratio",
        lambda: counts["survivors"] / extended, "ratio")
    put("collapsed_reps", "bayes_kelly.collapsed_reps", counts["collapsed_reps"], "count")
    put("explicit_reps", "bayes_kelly.explicit_reps", counts["explicit_reps"], "count")
    put("models.sequence_log_probability", "models.sequence_log_probability.calls",
        len(per_call["models.sequence_log_probability"]), "count")
    put("eprocess.steps", "eprocess.steps", counts["eprocess.steps"], "count")
    put("oracle.cells", "oracle.cells", counts["oracle.cells"], "count")
    put("oracle.evariable.terms", "oracle.evariable.terms", counts["oracle.evariable.terms"],
        "count")
    put("max_log10", "harness.max_log10_wealth", counts["max_log10"], "log10")
    # derived: replay wall time not covered by any non-harness layer span
    layer_self = sum(v for k, v in busy.items() if not k.startswith("harness."))
    out["harness.self_s"] = (wall_s - layer_self, "s")
    out["trace.overhead_ratio"] = (wall_s / untraced_s, "ratio")
    return out


# -- scaling sweep -------------------------------------------------------------


def _time_call(fn) -> float:
    """Median seconds per call; cheap calls repeat up to SWEEP_MIN_TOTAL_S."""
    times = []
    while True:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        if sum(times) >= SWEEP_MIN_TOTAL_S or len(times) >= SWEEP_MAX_REPEATS:
            return statistics.median(times)


def _collapsed_run(model, measure, pvalues):
    bettor = bayes_kelly.CollapsedBayesKellyBettor(model, measure)
    for p in pvalues:
        bettor.update(float(p))


def _sweep_calls(n: int) -> dict:
    """One call per swept layer at size n, and the steps that call covers."""
    rng = np.random.default_rng(n)
    bits = (rng.random(n) < 0.5).astype(np.int64)
    pvalues = rng.random(n)
    heights = tuple(float(h) for h in rng.dirichlet(np.ones(n)) * n)
    sample_model = models.markov_model(0.1, 0.1)  # stream_long's alternative
    bettor_model = models.changepoint_model(0.5, 0.9, 0.2)  # mc_validate's
    eprocess_model = models.markov_model(0.1, 0.1, 0.5)  # certify's
    measure = conformal.IdentityMeasure()
    return {
        "models.sample": (lambda: sample_model.sample(n, rng), n),
        "bayes_kelly.step": (lambda: _collapsed_run(bettor_model, measure, pvalues), n),
        # one density of n cells is what a bettor builds at step n
        "betting.density_build": (lambda: betting.PiecewiseDensity(heights), 1),
        "eprocess.run": (lambda: eprocess.run_eprocess(bits, eprocess_model), n),
    }


def scaling_sweep(layers, sizes=SWEEP_SIZES) -> dict:
    """Microseconds per step of each layer at each size, and the fitted
    exponent of per-step cost in n (1 means the whole run is O(N^2))."""
    per_step = defaultdict(list)
    for n in sizes:
        calls = _sweep_calls(n)
        for layer in layers:
            fn, steps = calls[layer]
            per_step[layer].append(_time_call(fn) / steps)
    out = {}
    for layer, seconds in per_step.items():
        for n, s in zip(sizes, seconds):
            out[f"{layer}.us_per_step.n{n}"] = (s * 1e6, "us")
        out[f"{layer}.exponent"] = (stats.fit_exponent(sizes, seconds), "exponent")
    return out


def replay_pair(workload, seed: int, out_root) -> tuple:
    """One untraced and one traced replay of a workload; returns its layer
    metrics, both outcomes and notes.  The untraced replay goes first, so
    the layer metrics do not carry first-call costs."""
    out_root = Path(out_root)
    untraced_s, plain = replay(workload, seed, out_root / "untraced")
    tracer = Tracer()
    saved = install(tracer)
    try:
        traced_s, traced = replay(workload, seed, out_root / "traced", clock=tracer.now)
    finally:
        uninstall(saved)
    metrics = layer_metrics(tracer, traced_s, untraced_s)
    # a count of defects, reported even when it is 0 (ROADMAP item 2)
    metrics["harness.nonfinite_report_fields"] = (traced["nonfinite"], "count")
    tracer.write(out_root / f"spans-seed{seed}.csv.gz")
    changed = sum(1 for k, v in plain["digests"].items() if traced["digests"].get(k) != v)
    notes = {"untraced_replay_s": untraced_s, "traced_replay_s": traced_s,
             "spans": len(tracer.start), "outputs_changed_by_tracing": changed}
    return metrics, [plain, traced], notes


def run_traced(seed: int, out_root, sweep: bool) -> tuple:
    """Replay every workload untraced and traced, and with ``sweep`` run the
    scaling sweep; returns (metrics, outcomes, notes).

    Every per-layer metric is named after the workload it was measured on,
    as ``<workload>.<layer metric>``, and only where its layer ran.  The
    sweep's figures go to the notes, because a per-layer metric must be
    measured in every traced run.
    """
    metrics, outcomes, notes = {}, [], {}
    for workload in workloads.WORKLOADS.values():
        layer, pair, notes[workload.name] = replay_pair(workload, seed,
                                                        Path(out_root) / workload.name)
        metrics.update({f"{workload.name}.{k}": v for k, v in layer.items()})
        outcomes += pair
    if sweep:
        notes["scaling_sweep"] = {k: v for k, (v, _) in scaling_sweep(SWEEP_LAYERS).items()}
    notes["probes"] = ("betting.density_build.* rebuilds each emitted density off the "
                       "blocking path; candidate, survivor and wealth figures are read on a "
                       "paused clock")
    return metrics, outcomes, notes
