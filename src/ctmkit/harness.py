"""Experiment harness: seeded Monte Carlo suites and certification reports.

Every run is a pure function of (config, seed) for one OpenBLAS kernel (the
forward steps' matrix products round differently under, for example,
``OPENBLAS_CORETYPE=Haswell``).  The root seed is split into
named substreams (per-replicate data and tie-breaking streams, rival
sampling, demonstration data) so replicates can run in parallel without
changing a single byte of output: rows are buffered per replicate and
written in replicate order, and all reductions run in a fixed order.

Outputs are delimited text plus flat JSON; the CSV column contract is
``rep,n,z,tau,n_star,n_upper,p,factor,wealth,log10_wealth``, one row per
:class:`~ctmkit.conformal.StepRecord`, and every trajectory file can be
re-audited by cumulative-product reconstruction while wealth stays below
about exp(709); past that the ``wealth`` column reads ``inf``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np
import numpy.random  # every command's first act is `substream`: load it with the imports

from . import eprocess as _eprocess
from . import oracle as _oracle
from .bayes_kelly import bayes_kelly_bettor
from .betting import ConstantBettor, ShrunkAlternativeBettor, linear_from_log
from .conformal import DistanceToMeanMeasure, IdentityMeasure, ctm_run, read_observation_stream
from .eprocess import example_distinct_report, log_ml_sup
from .models import (TableModel, changepoint_model, check_laws, iid_model, integer, markov_model,
                     PointMassModel, symbol_list)

CSV_HEADER = "rep,n,z,tau,n_star,n_upper,p,factor,wealth,log10_wealth"
KS_PVALUE_THRESHOLD = 1e-3
LAG1_THRESHOLD = 0.02
WEALTH_SE_MULTIPLE = 4.0
IDENTITY_TOL = 1e-9
DOMINANCE_TOL = 1e-12
EVAR_TOL = 1e-12
AUDIT_REL_TOL = 1e-9
MAX_OPTIMALITY_HORIZON = 6
EVAR_MAX_N = 12

_LN10 = math.log(10.0)


class ConfigError(ValueError):
    """Invalid experiment configuration; messages name the offending field."""


@dataclass
class ExperimentConfig:
    """One experiment; validation is construction.

    Every spec is parsed and every input file read here, once, before a
    command writes anything; all problems are reported together, each naming
    its field.  The built objects are plain attributes, not fields: ``model``,
    ``conformity`` (the measure), ``null_sampler``, ``null_top`` (the largest
    symbol the null can draw; None for a real-valued null), ``tau`` (None:
    uniform), ``new_bettor`` (``new_bettor()`` makes a fresh bettor for one
    replicate), and ``observations`` (``--dgp file:``) and
    ``example1_values``, both None when not given.  They pickle with the
    config, so a ``--jobs`` worker parses nothing again.
    """

    seed: int = -1
    horizon: int = 0
    reps: int = 1
    null: str = "bernoulli:0.5"
    alt: str = "changepoint:0.5,0.9,0.2"
    measure: str = "identity"
    bettor: str = "bayes_kelly"
    dgp: str = "null"
    tau_mode: str = "uniform"
    out: str = "out"
    rivals: int = 100
    example1: str = "auto"
    jobs: int = 1

    @classmethod
    def from_mapping(cls, mapping) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**mapping)

    def __post_init__(self) -> None:
        problems = []
        for name, low, rule in (
            ("seed", 0, "must be a nonnegative integer (it feeds the seed tree)"),
            ("horizon", 1, "must be at least 1"),
            ("reps", 1, "must be at least 1"),
            ("rivals", 0, "must be nonnegative"),
            ("jobs", 1, "must be at least 1"),
        ):
            try:
                setattr(self, name, integer(getattr(self, name), f"{name}:"))
            except ValueError as err:
                problems.append(str(err))
                continue
            if getattr(self, name) < low:
                problems.append(f"{name}: {rule}")

        def build(name, parse, *args):
            value = getattr(self, name)
            try:
                if not isinstance(value, str):
                    raise ConfigError(f"{name}: must be a string, got {value!r}")
                return parse(value, *args)
            except ConfigError as err:
                problems.append(str(err))
            except Exception as err:  # noqa: BLE001 - reported as a config problem
                problems.append(f"{name}: {err}")
            return None

        self.conformity = build("measure", build_measure)
        self.model = build("alt", build_alternative)
        self.null_sampler, self.null_top = build("null", _parse_null_spec) or (None, None)
        stream = self.observations = build("dgp", _load_values, "dgp", ("null", "alt"))
        if stream is not None and isinstance(self.horizon, int) and stream.size < self.horizon:
            problems.append(f"dgp: observation stream has {stream.size} values, "
                            f"horizon needs {self.horizon}")
        self.tau = build("tau_mode", _parse_tau_mode)
        self.new_bettor = build("bettor", _load_bettor, self.model, self.conformity)
        self.example1_values = build("example1", _load_values, "example1", ("auto", "none"))
        if not isinstance(self.out, str) or not self.out:
            problems.append("out: must be a non-empty path")
        if problems:
            raise ConfigError("; ".join(problems))


# -- format-string parsers ---------------------------------------------------


def _floats(text: str, field: str) -> list:
    try:
        values = [float(t) for t in text.split(",") if t != ""]
    except ValueError as err:
        raise ConfigError(f"{field}: cannot parse numbers from {text!r}") from err
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{field}: numbers must be finite, got {text!r}")
    return values


def build_measure(spec: str):
    if spec == "identity":
        return IdentityMeasure()
    if spec == "distmean":
        return DistanceToMeanMeasure()
    raise ConfigError(f"measure: must be identity or distmean, got {spec!r}")


def build_alternative(spec: str):
    kind, _, rest = spec.partition(":")
    try:
        if kind == "changepoint":
            args = _floats(rest, "alt")
            if len(args) != 3:
                raise ConfigError("alt: changepoint takes pi0,pi1,rho")
            return changepoint_model(*args)
        if kind == "markov":
            args = _floats(rest, "alt")
            if len(args) not in (2, 3):
                raise ConfigError("alt: markov takes p01,p10[,init1]")
            return markov_model(*args)
        if kind == "iid":
            args = _floats(rest, "alt")
            if len(args) == 1:
                return iid_model([1.0 - args[0], args[0]])
            if len(args) >= 2:
                return iid_model(args)
            raise ConfigError("alt: iid takes theta or a probability vector")
        if kind == "pointmass":
            try:
                seq = [int(t) for t in rest.split(",") if t != ""]
            except ValueError as err:
                raise ConfigError(f"alt: pointmass takes integer symbols, got {rest!r}") from err
            if not seq:
                raise ConfigError("alt: pointmass needs at least one symbol")
            return PointMassModel(seq, alphabet_size=max(2, max(seq) + 1))
        if kind == "table":
            if not rest:
                raise ConfigError("alt: table needs a JSON path")
            return TableModel.from_json(rest)
    except ConfigError:
        raise
    except (ValueError, OSError, KeyError) as err:
        raise ConfigError(f"alt: {err}") from err
    raise ConfigError(
        f"alt: must be changepoint/markov/iid/pointmass/table, got {spec!r}"
    )


def _sample_bernoulli(theta, rng, n):
    return (rng.random(n) < theta).astype(np.int64)


def _categorical_symbol(cum, top, u):
    """Symbol of uniform ``u``, clipped to ``top``, the last symbol of
    positive probability: a cumulative sum that ends short of 1 must not
    hand the draws above it to a zero-probability symbol."""
    return np.minimum(np.searchsorted(cum, u, side="right"), top)


def _sample_categorical(cum, top, rng, n):
    return _categorical_symbol(cum, top, rng.random(n)).astype(np.int64)


def _sample_normal(mu, sigma, rng, n):
    return mu + sigma * rng.standard_normal(n)


def _sample_uniform(rng, n):
    return rng.random(n)


def _parse_null_spec(spec: str):
    """The ``--null`` sampler, called as ``sampler(rng, n)``, and the largest
    symbol it can draw (None if real-valued).  The sampler is a module-level
    function, bound with ``partial``, so that a resolved config pickles."""
    kind, _, rest = spec.partition(":")
    if kind == "bernoulli":
        args = _floats(rest, "null")
        if len(args) != 1 or not 0.0 <= args[0] <= 1.0:
            raise ConfigError(f"null: bernoulli takes one probability, got {rest!r}")
        return partial(_sample_bernoulli, args[0]), int(args[0] > 0.0)
    if kind == "categorical":
        probs = np.asarray(_floats(rest, "null"), dtype=float)
        if probs.size < 2:
            raise ConfigError(f"null: categorical needs probabilities summing to 1, got {rest!r}")
        try:
            check_laws("categorical", probs[None, :])
        except ValueError as err:
            raise ConfigError(f"null: {err}") from err
        cum = np.cumsum(probs)
        top = int(np.flatnonzero(probs > 0.0)[-1])
        # symbols grow with the uniform draw, so the largest comes from the
        # largest value Generator.random returns
        return (partial(_sample_categorical, cum, top),
                int(_categorical_symbol(cum, top, 1.0 - 2.0**-53)))
    if kind == "normal":
        args = _floats(rest, "null") if rest else []
        if len(args) not in (0, 2):
            raise ConfigError("null: normal takes no arguments or mu,sigma")
        mu, sigma = args or (0.0, 1.0)
        if sigma <= 0:
            raise ConfigError(f"null: normal sigma must be positive, got {sigma}")
        return partial(_sample_normal, mu, sigma), None
    if spec == "uniform":
        return _sample_uniform, None
    raise ConfigError(f"null: must be bernoulli/categorical/normal/uniform, got {spec!r}")


def _parse_tau_mode(spec: str):
    """None for ``uniform``, else the ``constant:VALUE`` tie-breaking value."""
    if spec == "uniform":
        return None
    kind, _, value = spec.partition(":")
    if kind != "constant":
        raise ConfigError(f"tau_mode: must be uniform or constant:<value>, got {spec!r}")
    try:
        tau = float(value)
        if not 0.0 <= tau <= 1.0:
            raise ValueError
    except ValueError:
        raise ConfigError(f"tau_mode: constant value must lie in [0, 1], got {value!r}") from None
    return tau


def _load_bettor(spec: str, model, measure):
    """The bettor factory of ``spec``: a picklable callable that makes a fresh
    bettor per replicate; a ``density:PATH`` family is read and checked here."""
    if spec == "bayes_kelly":
        return partial(bayes_kelly_bettor, model, measure)
    if spec == "constant":
        return ConstantBettor
    kind, _, path = spec.partition(":")
    if kind != "density":
        raise ConfigError("bettor: must be bayes_kelly, constant or density:<path>, "
                          f"got {spec!r}")
    if not path:
        raise ConfigError("bettor: density needs a JSON path of per-step heights")
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return partial(ShrunkAlternativeBettor, ShrunkAlternativeBettor(payload).family)
    except (OSError, ValueError, TypeError, AttributeError) as err:
        raise ConfigError(f"bettor: {err}") from err


def _load_values(spec: str, field: str, keywords: tuple):
    """None for one of two ``keywords``, else the observations in ``file:PATH``."""
    if spec in keywords:
        return None
    if not spec.startswith("file:"):
        raise ConfigError(f"{field}: must be {keywords[0]}, {keywords[1]} or file:<path>, "
                          f"got {spec!r}")
    values = np.asarray(read_observation_stream(spec[len("file:"):]))
    if not values.size:
        raise ConfigError(f"{field}: {spec[len('file:'):]} holds no observations")
    return values


def build_bettor(cfg: ExperimentConfig):
    """A fresh bettor for one replicate, with the config's model and measure."""
    return cfg.new_bettor(), cfg.model, cfg.conformity


# -- seeding -----------------------------------------------------------------


def substream(seed: int, *key: int) -> np.random.Generator:
    """Named deterministic substream of the root seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


_STREAM_REPLICATE = 0
_STREAM_RIVALS = 1
_STREAM_DEMO = 2


def _replicate_data(cfg: ExperimentConfig, rng: np.random.Generator):
    """One replicate's observations."""
    if cfg.dgp == "null":
        return np.asarray(cfg.null_sampler(rng, cfg.horizon))
    if cfg.dgp == "alt":
        return cfg.model.sample(cfg.horizon, rng)
    return cfg.observations


def _check_bettor_data(cfg: ExperimentConfig) -> None:
    """Refuse, before any replicate or output, data a Bayes-Kelly bettor cannot
    bet on: real values, or symbols outside the alternative's alphabet (which
    data sampled from the alternative never holds).  A ``--dgp file:`` stream
    is read by the fold's symbol rule, :func:`~ctmkit.models.symbol_list`."""
    if cfg.bettor != "bayes_kelly" or cfg.dgp == "alt":
        return
    m = cfg.model.alphabet_size
    if cfg.dgp != "null":
        what = ("dgp: bayes_kelly betting needs integer observations "
                f"in the alternative's alphabet [0, {m})")
        try:
            symbol_list(cfg.observations, m, what)
        except ValueError as err:
            raise ConfigError(str(err)) from None
    elif cfg.null_top is None:
        raise ConfigError(
            "bayes_kelly betting needs finite-alphabet integer observations; "
            "got real-valued data"
        )
    elif cfg.null_top >= m:
        raise ConfigError(f"observations outside the alternative's alphabet [0, {m})")


def _replicate_payload(cfg: ExperimentConfig, rep: int) -> tuple:
    """One replicate: its observations, tie-breaking draws and step records."""
    data_rng = substream(cfg.seed, _STREAM_REPLICATE, rep, 0)
    tau_rng = substream(cfg.seed, _STREAM_REPLICATE, rep, 1)
    bettor, _, measure = build_bettor(cfg)
    data = _replicate_data(cfg, data_rng)
    taus = tau_rng.random(cfg.horizon) if cfg.tau is None else np.full(cfg.horizon, cfg.tau)
    steps = ctm_run(data, measure, bettor, taus, cfg.horizon)
    return data[: cfg.horizon], taus, steps


def _iter_payloads(cfg: ExperimentConfig):
    """Every replicate's ``(z, taus, steps)`` in replicate order, from one
    worker or many."""
    replicate = partial(_replicate_payload, cfg)
    if cfg.jobs <= 1:
        yield from map(replicate, range(cfg.reps))
        return
    from concurrent.futures import ProcessPoolExecutor  # only --jobs > 1 pays its import

    chunk = max(1, math.ceil(cfg.reps / (cfg.jobs * 8)))
    with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
        yield from pool.map(replicate, range(cfg.reps), chunksize=chunk)


# -- output formatting -------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_obs(z) -> str:
    if isinstance(z, (int, np.integer)):
        return str(int(z))
    f = float(z)
    return str(int(f)) if f.is_integer() and abs(f) < 2**53 else repr(f)


def _format_rows(rep: int, z, taus, steps) -> str:
    lines = []
    for n, (obs, tau, s) in enumerate(zip(z, taus, steps), start=1):
        log_w = float(s.log_wealth)
        lines.append(
            f"{rep},{n},{_fmt_obs(obs)},{_fmt(tau)},{s.n_star},{s.n_upper},{_fmt(s.p)},"
            f"{_fmt(s.factor)},{_fmt(linear_from_log(log_w))},{_fmt(log_w / _LN10)}\n"
        )
    return "".join(lines)


def _sanitize(value):
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (bool, str, int)) or value is None:
        return value
    f = float(value)
    if math.isnan(f):
        return "nan"
    if f == math.inf:
        return "inf"
    if f == -math.inf:
        return "-inf"
    return f


def _out_dir(cfg: ExperimentConfig) -> Path:
    """``--out``, made if it is missing."""
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def write_json(path, payload: dict) -> None:
    text = json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def audit_trajectory(path) -> dict:
    """Self-validate a trajectory file: wealth must equal the running product
    of factors (relative tolerance 1e-9), with rows contiguous per replicate."""
    max_rel = 0.0
    rows = 0
    reps = set()
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER.split(","):
            raise ValueError(f"{path}: unexpected header {header}")
        current_rep = None
        expected_n = 1
        product = 1.0
        for row in reader:
            rows += 1
            rep, n = int(row[0]), int(row[1])
            if rep != current_rep:
                if rep in reps:
                    raise ValueError(f"{path}: replicate {rep} is not contiguous")
                reps.add(rep)
                current_rep = rep
                expected_n = 1
                product = 1.0
            if n != expected_n:
                raise ValueError(f"{path}: replicate {rep} rows out of order at n={n}")
            expected_n += 1
            factor = float(row[7])
            wealth = float(row[8])
            product = 0.0 if product == 0.0 else product * factor
            if math.isinf(product) and math.isinf(wealth):
                continue
            scale = max(abs(product), 1e-300)
            rel = abs(wealth - product) / scale
            max_rel = max(max_rel, rel)
    return {"ok": max_rel <= AUDIT_REL_TOL, "max_rel_err": max_rel, "rows": rows,
            "reps": len(reps)}


# -- runners -----------------------------------------------------------------


def run_simulate(cfg: ExperimentConfig) -> dict:
    """Simulate replicate trajectories; write trajectory.csv and summary.json."""
    _check_bettor_data(cfg)
    out_dir = _out_dir(cfg)
    traj_path = out_dir / "trajectory.csv"
    final_wealth = []
    final_log = []
    with traj_path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for rep, (z, taus, steps) in enumerate(_iter_payloads(cfg)):
            fh.write(_format_rows(rep, z, taus, steps))
            log_w = float(steps[-1].log_wealth)
            final_log.append(log_w)
            final_wealth.append(linear_from_log(log_w))
    audit = audit_trajectory(traj_path)
    wealth_arr = np.asarray(final_wealth)
    log_arr = np.asarray(final_log)
    reps = cfg.reps
    finite_logs = np.all(np.isfinite(log_arr))
    summary = {
        "command": "simulate",
        "replicates": reps,
        "horizon": cfg.horizon,
        "trajectory_file": traj_path.name,
        "mean_final_wealth": float(wealth_arr.mean()),
        "se_final_wealth": float(wealth_arr.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
        "mean_log_wealth": float(log_arr.mean()) if finite_logs else -math.inf,
        "se_log_wealth": float(log_arr.std(ddof=1) / math.sqrt(reps))
        if reps > 1 and finite_logs
        else (0.0 if reps == 1 else math.inf),
        "mean_log10_wealth": float(log_arr.mean() / _LN10) if finite_logs else -math.inf,
        "se_log10_wealth": float(log_arr.std(ddof=1) / _LN10 / math.sqrt(reps))
        if reps > 1 and finite_logs
        else (0.0 if reps == 1 else math.inf),
        "audit_ok": bool(audit["ok"]),
        "audit_max_rel_err": float(audit["max_rel_err"]),
        "ok": bool(audit["ok"]),
    }
    ordered = np.sort(wealth_arr)
    for q in (5, 25, 50, 75, 95):
        summary[f"final_wealth_q{q:02d}"] = _quantile_sorted(ordered, q / 100.0)
    write_json(out_dir / "summary.json", summary)
    return summary


def _quantile_sorted(ordered, q: float) -> float:
    """``np.quantile(values, q)`` with its default linear method, bit for bit,
    given ``ordered = np.sort(values)`` (NaNs last) and q in [0, 1].

    The same virtual index, neighbours and interpolation as numpy's
    ``_quantile``, including ``_lerp``'s switch to interpolating down from
    the upper neighbour when the weight is at least 0.5; any NaN gives NaN.
    numpy's own path imports ``numpy.ma`` on first use, some 15 ms that every
    ``simulate`` would pay.  ``tests/test_harness.py::TestQuantile`` checks
    it against ``np.quantile`` with ``==``.
    """
    last = ordered.size - 1
    if math.isnan(ordered[last]):
        return math.nan
    index = last * q
    if index >= last:
        below = above = last
        gamma = index + 1.0  # numpy indexes the last element as -1 here
    else:
        below = math.floor(index)
        above = below + 1
        gamma = index - below
    a, b = float(ordered[below]), float(ordered[above])
    diff = b - a
    return b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma


def _kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov distribution, ported from cephes'
    ``kolmogorov`` (as vendored by SciPy) with the same float expressions."""
    if not x > 0:
        return 1.0
    if x <= 0.82:
        w = math.sqrt(2 * math.pi) / x
        logu8 = -math.pi * math.pi / (x * x)
        u = math.exp(logu8 / 8)
        if u == 0:
            return 1 - math.exp(logu8 / 8 + math.log(w))
        u8 = math.exp(logu8)
        return 1 - w * u * (1 + u8 * (1 + u8 * u8 * (1 + u8 * u8 * u8)))
    v = math.exp(-2 * x * x)
    v3 = math.pow(v, 3)
    # v**5 is v3 * (v*v) as in cephes; (v3*v)*v differs in the last bit
    return 2 * v * (1 - v3 * (1 - v3 * (v * v) * (1 - v3 * v3 * v)))


def ks_uniform(p) -> tuple:
    """Two-sided one-sample KS test of ``p`` against Uniform(0, 1), returning
    ``(statistic, pvalue)`` bit for bit as ``scipy.stats.kstest(p, "uniform",
    method="asymp")`` does: the same D+/D- expressions, then the clipped
    Kolmogorov survival function at D*sqrt(N).  ``tests/test_harness.py::TestKsPort``
    checks both against SciPy with ``==``."""
    x = np.sort(np.asarray(p, dtype=float))
    n = x.size
    d_plus = float((np.arange(1.0, n + 1) / n - x).max())
    d_minus = float((x - np.arange(0.0, n) / n).max())
    d = d_plus if d_plus > d_minus else d_minus
    return d, min(max(_kolmogorov_sf(d * math.sqrt(n)), 0.0), 1.0)


def run_validate(cfg: ExperimentConfig) -> dict:
    """Check p-value uniformity/independence and the unit-mean wealth property
    under the configured null; write validity.json."""
    if cfg.reps < 2:
        raise ConfigError(
            "reps: the wealth check needs at least 2 replicates for a standard "
            f"error; got {cfg.reps}"
        )
    if cfg.reps * cfg.horizon < 1000:
        raise ConfigError(
            "reps: the validity suite needs reps*horizon >= 1000 pooled p-values "
            f"to have any power; got {cfg.reps}*{cfg.horizon} = {cfg.reps * cfg.horizon}"
        )
    if cfg.dgp != "null":
        raise ConfigError("dgp: validation runs under the configured null; set dgp to null")
    _check_bettor_data(cfg)
    rows = []
    final_wealth = []
    for _, _, steps in _iter_payloads(cfg):
        rows.append(np.array([s.p for s in steps], dtype=float))
        final_wealth.append(linear_from_log(float(steps[-1].log_wealth)))
    p = np.stack(rows)  # (reps, horizon)
    ks_stat, ks_p = ks_uniform(p.ravel())
    lag1 = 0.0
    if cfg.horizon > 1:
        lag1 = float(np.corrcoef(p[:, :-1].ravel(), p[:, 1:].ravel())[0, 1])
    wealth_arr = np.asarray(final_wealth)
    mean_w = float(wealth_arr.mean())
    se_w = float(wealth_arr.std(ddof=1) / math.sqrt(cfg.reps))
    ks_ok = ks_p > KS_PVALUE_THRESHOLD
    lag_ok = abs(lag1) < LAG1_THRESHOLD
    wealth_ok = abs(mean_w - 1.0) <= WEALTH_SE_MULTIPLE * se_w
    report = {
        "command": "validate",
        "replicates": cfg.reps,
        "horizon": cfg.horizon,
        "pooled_pvalues": int(p.size),
        "ks_statistic": ks_stat,
        "ks_pvalue": ks_p,
        "ks_threshold": KS_PVALUE_THRESHOLD,
        "ks_ok": bool(ks_ok),
        "lag1_correlation": lag1,
        "lag1_threshold": LAG1_THRESHOLD,
        "lag1_ok": bool(lag_ok),
        "mean_final_wealth": mean_w,
        "se_final_wealth": se_w,
        "wealth_se_multiple": WEALTH_SE_MULTIPLE,
        "wealth_ok": bool(wealth_ok),
        "ok": bool(ks_ok and lag_ok and wealth_ok),
    }
    write_json(_out_dir(cfg) / "validity.json", report)
    return report


def run_optimality(cfg: ExperimentConfig) -> dict:
    """Certify the exact optimality identity by cell-tree enumeration;
    write certificate.json."""
    if cfg.horizon > MAX_OPTIMALITY_HORIZON:
        raise ConfigError(
            "horizon: the optimality certificate enumerates N! cells; "
            f"maximum horizon is {MAX_OPTIMALITY_HORIZON}, got {cfg.horizon}"
        )
    cells = _oracle.cell_tree(cfg.model, cfg.conformity, cfg.horizon)
    expected_log = _oracle.expected_log_wealth(cells, [c.bk_heights for c in cells])
    kl = _oracle.pushforward_kl(cells)
    rng = substream(cfg.seed, _STREAM_RIVALS)
    plan = _oracle.node_plan(cells)
    rival_values = []
    for _ in range(cfg.rivals):
        heights = _oracle.sample_betting_family(plan, rng)
        rival_values.append(_oracle.expected_log_wealth(cells, heights, plan))
    rival_max = max(rival_values) if rival_values else -math.inf
    identity_gap = abs(expected_log - kl)
    identity_ok = identity_gap <= IDENTITY_TOL
    dominance_ok = rival_max <= expected_log + DOMINANCE_TOL
    report = {
        "command": "optimality",
        "alt": cfg.alt,
        "measure": cfg.measure,
        "horizon": cfg.horizon,
        "cells": len(cells),
        "expected_log_wealth": expected_log,
        "expected_log10_wealth": expected_log / _LN10,
        "pushforward_kl": kl,
        "pushforward_kl_log10": kl / _LN10,
        "identity_gap": identity_gap,
        "identity_tolerance": IDENTITY_TOL,
        "identity_ok": bool(identity_ok),
        "rivals": cfg.rivals,
        "rival_max_expected_log_wealth": rival_max,
        "dominance_tolerance": DOMINANCE_TOL,
        "dominance_ok": bool(dominance_ok),
        "ok": bool(identity_ok and dominance_ok),
    }
    write_json(_out_dir(cfg) / "certificate.json", report)
    return report


def run_eprocess(cfg: ExperimentConfig) -> dict:
    """E-process trajectory, exact e-variable table over a theta grid, and the
    all-distinct empirical-ML demonstration; writes CSV tables and
    eprocess.json.

    The table's statistic Q(bits) / ML(bits) reads Q from one walk of the
    prefix tree, ``model.log_probability_levels``, so each prefix is folded
    once rather than once per string that extends it, and each grid length
    n takes one :func:`ctmkit.oracle.evariable_expectation` call for the
    whole theta grid, so the statistic is read once per string.  For every
    n the walk's value for the data's prefix ``data[:n]`` must equal
    ``model.sequence_log_probability(data[:n])`` exactly, or the run
    raises: a self-audit of the memoised walk against the model's plain
    fold, one ``probs`` and one ``advance`` per symbol.  The data and the
    alternative are checked by :func:`ctmkit.eprocess.run_eprocess`, before
    ``--out`` is made, and a refusal names the field at fault.
    """
    model = cfg.model
    data = _replicate_data(cfg, substream(cfg.seed, _STREAM_REPLICATE, 0, 0))[: cfg.horizon]
    try:
        records = _eprocess.run_eprocess(data, model)
    except ValueError as err:
        field = "alt" if model.alphabet_size != 2 else "null" if cfg.dgp == "null" else "dgp"
        raise ConfigError(f"{field}: {err}") from err

    out_dir = _out_dir(cfg)
    with (out_dir / "eprocess_trajectory.csv").open("w", encoding="utf-8") as fh:
        fh.write("n,z,ones,log_q,log_ml,e_value,log10_e\n")
        for record, z in zip(records, data):
            # (-inf - log_ml) / ln 10 is -inf once the prefix is impossible
            log10_e = (record.log_q - record.log_ml) / _LN10
            fh.write(
                f"{record.n},{int(z)},{record.ones},{_fmt(record.log_q)},"
                f"{_fmt(record.log_ml)},{_fmt(record.value)},{_fmt(log10_e)}\n"
            )

    thetas = [i / 10.0 for i in range(11)]
    n_grid = list(range(1, min(cfg.horizon, EVAR_MAX_N) + 1))
    levels = model.log_probability_levels(len(n_grid))
    evar_max = 0.0
    with (out_dir / "evar_table.csv").open("w", encoding="utf-8") as fh:
        fh.write("theta,n,expectation\n")
        for n in n_grid:
            log_q = levels[n].get(tuple(map(int, data[:n])), -math.inf)
            folded = model.sequence_log_probability(data[:n])
            if log_q != folded:
                raise RuntimeError(
                    f"e-variable table: prefix-tree log q of data[:{n}] is "
                    f"{log_q!r}, the model's fold gives {folded!r}"
                )
            log_ml = [log_ml_sup(n, ones) for ones in range(n + 1)]
            # a string missing from the walk has probability 0 and scores 0
            values = {s: linear_from_log(q - log_ml[sum(s)]) for s, q in levels[n].items()}
            expectations = _oracle.evariable_expectation(lambda s: values.get(s, 0.0), thetas, n)
            for theta, expectation in zip(thetas, expectations):
                evar_max = max(evar_max, expectation)
                fh.write(f"{_fmt(theta)},{n},{_fmt(expectation)}\n")
    evar_ok = evar_max <= 1.0 + EVAR_TOL

    report = {
        "command": "eprocess",
        "alt": cfg.alt,
        "horizon": cfg.horizon,
        "final_e_value": records[-1].value,
        "max_e_value": max(r.value for r in records),
        "evar_grid_max_n": n_grid[-1],
        "evar_max_expectation": evar_max,
        "evar_tolerance": EVAR_TOL,
        "evar_ok": bool(evar_ok),
    }

    if cfg.example1 != "none":
        demo = cfg.example1_values
        if demo is None:
            demo = substream(cfg.seed, _STREAM_DEMO).standard_normal(max(cfg.horizon, 2))
        report.update((f"example1_{k}", v) for k, v in example_distinct_report(demo).items())

    report["ok"] = bool(evar_ok)
    write_json(out_dir / "eprocess.json", report)
    return report
