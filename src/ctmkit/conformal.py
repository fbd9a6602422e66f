"""Conformity scoring and randomized conformal p-values.

The p-value transducer turns an observation stream into a stream of
unit-interval values that are iid uniform whenever the observations are
exchangeable.  At step n the whole window seen so far is re-scored with a
bag-symmetric conformity measure, the newest score is ranked within the
window, and rank ties are broken by an external uniform draw tau_n:

    p_n = (#{i : score_i < score_n} + tau_n * #{i : score_i = score_n}) / n

:func:`ctm_run` takes the draws as one array and records each step as one
flat :class:`StepRecord`.

Everything downstream (betting, optimality certificates) consumes only the
p-values, so this module is the single place where raw observations are
touched.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "ConformityMeasure",
    "IdentityMeasure",
    "DistanceToMeanMeasure",
    "StepRecord",
    "score_window",
    "pvalue_step",
    "ctm_run",
    "read_observation_stream",
]


class ConformityMeasure(ABC):
    """Deterministic, bag-symmetric scoring of a window of observations.

    Implementations must treat the window as a multiset: permuting the first
    n-1 entries may not change any score, bit for bit.  A single flipped tie
    would change the rank counts, so "approximately symmetric" is not good
    enough.  Larger scores mean more conforming; the rank of the newest score
    then sends strange observations to small p-values.
    """

    name = "abstract"

    @abstractmethod
    def scores(self, window: Sequence[float] | np.ndarray) -> np.ndarray:
        """Score every element of ``window`` against the window's bag."""

    def score_windows(self, windows: np.ndarray) -> np.ndarray:
        """Row-wise batch of :meth:`scores`.

        Subclasses override this when a vectorized version exists that is
        bit-identical to the scalar path.
        """
        return np.stack([self.scores(row) for row in windows])


class IdentityMeasure(ConformityMeasure):
    """Score = observation value, the canonical choice for numeric alphabets."""

    name = "identity"

    def scores(self, window):
        return np.asarray(window, dtype=float)

    def score_windows(self, windows):
        return np.asarray(windows, dtype=float)


class DistanceToMeanMeasure(ConformityMeasure):
    """Negated absolute distance to the bag mean.

    The mean uses ``math.fsum``, which is exactly rounded and therefore
    independent of summation order; an ordinary left-to-right sum would break
    bag symmetry in the last bit and silently alter tie counts.
    """

    name = "distmean"

    def scores(self, window):
        arr = np.asarray(window, dtype=float)
        mean = math.fsum(arr.tolist()) / arr.size
        return -np.abs(arr - mean)

    def score_windows(self, windows):
        arr = np.asarray(windows)
        if arr.ndim == 2 and np.issubdtype(arr.dtype, np.integer):
            # integer row sums are exact, so this matches the fsum path
            means = arr.sum(axis=1, dtype=np.int64) / arr.shape[1]
            return -np.abs(arr.astype(float) - means[:, None])
        return np.stack([self.scores(row) for row in arr])


def score_window(measure: ConformityMeasure, window) -> np.ndarray:
    """Apply ``measure`` to a non-empty window, refusing non-finite scores."""
    arr = np.asarray(window, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("window must be a non-empty one-dimensional sequence")
    scores = np.asarray(measure.scores(arr), dtype=float)
    if scores.shape != arr.shape:
        raise ValueError(
            f"conformity measure {measure.name!r} returned {scores.shape} scores "
            f"for a window of shape {arr.shape}"
        )
    # a sum is finite only if every term is; when it is not, look at each
    if not math.isfinite(np.add.reduce(scores)) and not np.logical_and.reduce(
        np.isfinite(scores)
    ):
        raise ValueError(f"conformity measure {measure.name!r} produced non-finite scores")
    return scores


class StepRecord(NamedTuple):
    """One step of a run.  :func:`pvalue_step` fills the rank counts and ``p``,
    which lies in ``[n_star/n, n_upper/n]`` and, given the window, is uniform
    there; :func:`ctm_run` adds the bettor's ``factor`` and ``log_wealth``."""

    n_star: int
    n_upper: int
    p: float
    factor: float = math.nan
    log_wealth: float = math.nan


def pvalue_step(scores, tau: float) -> StepRecord:
    """Rank the newest of the window's scores and turn its rank counts plus one
    tie-breaking draw into a p-value.

    ``n_star`` counts scores strictly below the newest one and ``n_upper``
    those less than or equal to it; the newest score ties with itself, so
    ``n_star < n_upper``, or the step raises.  Ties are exact float equality
    by design: scoring is deterministic, so equal bags give bitwise equal
    scores.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    s = np.asarray(scores, dtype=float)
    n = s.size
    if n == 0:
        raise ValueError("need at least one score")
    last = float(s[-1])
    n_star = int(np.count_nonzero(s < last))
    n_upper = int(np.count_nonzero(s <= last))
    if not n_star < n_upper:
        raise ValueError(f"the newest score must tie with itself, got ranks {n_star}, {n_upper}")
    p = (n_star + tau * (n_upper - n_star)) / n
    return StepRecord(n_star, n_upper, float(p))


def ctm_run(data, measure: ConformityMeasure, bettor, taus, horizon: int) -> list:
    """Run a conformal test martingale for ``horizon`` steps.

    ``bettor`` is any ``BettingMartingale``; it sees only the p-values.
    ``taus`` holds one tie-breaking draw per step; only uniform draws, such
    as ``rng.random(horizon)``, keep the p-values valid.  The returned
    trajectory has one :class:`StepRecord` per step; wealth starts at 1
    before the first step.  The first ``horizon`` observations are converted
    to floats and checked for finiteness, and the first ``horizon`` draws
    checked to lie in [0, 1], once, before any step; the step-n window is a
    view of the first n observations.  The whole window is re-scored at every
    step, so a step-n update costs one measure evaluation on n points.  Each
    step calls this module's ``score_window`` and ``pvalue_step`` (looked up
    at call time, so a profiler can wrap them), then ``bettor.update``.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    seq = data if isinstance(data, np.ndarray) else list(data)
    if len(seq) < horizon:
        raise ValueError(
            f"observation stream too short: run needs {horizon} values, got {len(seq)}"
        )
    if len(taus) < horizon:
        raise ValueError(
            f"tie-breaking stream too short: run needs {horizon} values, got {len(taus)}"
        )
    if bettor.steps_taken != 0:
        raise ValueError("bettor has already been stepped; use a fresh instance")
    window = np.array(seq[:horizon], dtype=float)
    finite = np.isfinite(window)
    if not np.logical_and.reduce(finite):
        n = int(finite.argmin()) + 1
        raise ValueError(f"observation at position {n} is not finite: {seq[n - 1]!r}")
    tau = np.array(taus[:horizon], dtype=float)
    inside = (tau >= 0.0) & (tau <= 1.0)
    if not np.logical_and.reduce(inside):
        n = int(inside.argmin()) + 1
        raise ValueError(f"tau at position {n} must lie in [0, 1], got {float(tau[n - 1])}")
    out = []
    for n, t in enumerate(tau.tolist(), start=1):
        scores = score_window(measure, window[:n])
        rec = pvalue_step(scores, t)
        factor = bettor.update(rec.p)
        out.append(StepRecord(rec.n_star, rec.n_upper, rec.p, factor, bettor.log_wealth))
    return out


def read_observation_stream(path) -> list:
    """Read a line-delimited observation file: one integer or decimal per line.

    Integer-looking lines come back as ``int`` (alphabet codes), everything
    else as ``float``.  Blank lines are skipped; anything unparsable or
    non-finite is an error naming the offending line.
    """
    values = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(int(text))
                continue
            except ValueError:
                pass
            try:
                value = float(text)
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: cannot parse observation {text!r}") from err
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: observation must be finite, got {text!r}")
            values.append(value)
    return values
