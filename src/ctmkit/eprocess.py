"""Likelihood-ratio e-process for binary data against the iid Bernoulli family.

The running statistic is Q(prefix) divided by the maximum likelihood the
Bernoulli family can give that prefix.  At every fixed sample size its
expectation is at most one under every Bernoulli law, which is what makes it
usable as evidence against the whole family; the oracle module can check the
bound exactly by enumeration.  ``run_eprocess`` returns one flat record per
step from the model's log-probability fold (``prefix_log_probabilities``)
and a running ones count; it keeps no forward state of its own.

Also here: the empirical maximum likelihood of a real-valued sample over all
exchangeable laws (the product of multiplicity frequencies), which equals
N^-N exactly when all N values are distinct and makes the corresponding
likelihood ratio of any continuous alternative exactly zero.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .betting import linear_from_log
from .models import AlternativeModel, integer, symbol_list

__all__ = [
    "EProcessRecord",
    "log_ml_sup",
    "run_eprocess",
    "log_empirical_ml",
    "example_distinct_report",
]


def log_ml_sup(n: int, ones: int) -> float:
    """log sup over theta of the Bernoulli likelihood of a length-n, k-ones string.

    The supremum sits at theta = k/n and equals (k/n)^k ((n-k)/n)^(n-k),
    with 0^0 read as 1.
    """
    n = integer(n, "n")
    ones = integer(ones, "ones count")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= ones <= n:
        raise ValueError(f"ones count must lie in [0, {n}], got {ones}")
    zeros = n - ones
    out = 0.0
    if ones:
        out += ones * math.log(ones / n)
    if zeros:
        out += zeros * math.log(zeros / n)
    return out


class EProcessRecord(NamedTuple):
    """The e-process after ``n`` symbols, ``ones`` of them ones: ``log_q`` is
    log Q of the prefix (-inf, and ``value`` zero, once it is impossible),
    ``log_ml`` is ``log_ml_sup(n, ones)`` and ``value`` exp(log_q - log_ml)."""

    n: int
    ones: int
    log_q: float
    log_ml: float
    value: float


def run_eprocess(data, model: AlternativeModel) -> list:
    """E-process trajectory over a bit sequence, one record per step."""
    if model.alphabet_size != 2:
        raise ValueError("binary e-process needs a binary alternative")
    bits = symbol_list(data, 2, "binary e-process expects bits")
    out = []
    ones = 0
    for n, (z, log_q) in enumerate(zip(bits, model.prefix_log_probabilities(bits)), start=1):
        ones += z
        log_ml = log_ml_sup(n, ones)
        out.append(EProcessRecord(n, ones, log_q, log_ml, linear_from_log(log_q - log_ml)))
    return out


def log_empirical_ml(values) -> float:
    """log of the empirical maximum likelihood of a sample under exchangeability.

    Equals sum over distinct values of m_j * log(m_j / N); ties are exact
    float equality.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("need at least one observation")
    if any(not math.isfinite(v) for v in vals):
        raise ValueError("observations must be finite")
    n = len(vals)
    counts = Counter(vals)
    return math.fsum(m * math.log(m / n) for m in counts.values())


def example_distinct_report(values) -> dict:
    """Empirical-ML summary of a real sample.

    When all N values are distinct the empirical maximum likelihood is
    exactly N^-N, so any alternative with a density (which gives every exact
    sample probability zero) has likelihood ratio exactly zero against it:
    ``continuous_lr`` is 0.0.
    """
    vals = [float(v) for v in values]
    n = len(vals)
    log_eml = log_empirical_ml(vals)
    all_distinct = len(set(vals)) == n
    return {
        "n": n,
        "all_distinct": all_distinct,
        "log_empirical_ml": log_eml,
        "empirical_ml": linear_from_log(log_eml),
        "log_nn_floor": -n * math.log(n),
        "continuous_lr": 0.0,
    }
