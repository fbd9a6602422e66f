"""Betting martingales on the conformal p-value stream.

A betting strategy commits, before seeing p_n, to a probability density on
[0, 1]; its wealth is multiplied by that density evaluated at the realized
p_n.  Densities are piecewise constant on a uniform grid, which is exactly
the class the p-value mechanism can distinguish.  Emitting a normalized
density at every step makes wealth a nonnegative martingale with initial
value 1 under the null, whatever the dependence on the past.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .models import integer

NORMALIZATION_TOL = 1e-12

# math.exp overflows past this; report +inf instead of raising
_MAX_EXP_ARG = 709.0


def linear_from_log(log_value: float) -> float:
    """``exp(log_value)``, with -inf mapped to 0 and anything past the float
    range reported as +inf instead of raising.  The log value stays the
    authoritative one; this is only its linear read-out."""
    if log_value > _MAX_EXP_ARG:
        return math.inf
    return math.exp(log_value)


def grid_index(p: float, n: int) -> int:
    """The largest i in 0..n with ``i / n <= p``, for p in [0, 1].

    Grid points are formed by float division, as the transducer forms a
    p-value ``(n_star + tau * k) / n``; ``int(p * n)`` alone can be one off,
    since ``(a / n) * n`` rounds below ``a`` for some pairs (15/22, 13/23)
    and above it for others.  The product is within one of the answer, so a
    single step corrects it.
    """
    i = int(p * n)
    if i < n and (i + 1) / n <= p:
        return i + 1
    if i > 0 and i / n > p:
        return i - 1
    return i


class PiecewiseDensity:
    """Density on [0, 1], constant on ``n`` equal intervals.

    Grid intervals are half-open ``[i/n, (i+1)/n)`` except the last, which is
    closed at 1.  Heights must be nonnegative and average to one; with both
    constraints no height can exceed ``n``.  They are stored as a read-only
    float64 array (:attr:`array`) and validated in bulk; :attr:`heights` is
    the same values as a tuple of floats, which is also what equality,
    hashing and ``repr`` go by.
    """

    __slots__ = ("_array",)

    def __init__(self, heights):
        hs = np.array(heights, dtype=float)
        if hs.ndim != 1:
            raise ValueError(f"heights must be one-dimensional, got shape {hs.shape}")
        n = hs.size
        if n == 0:
            raise ValueError("density needs at least one grid interval")
        # Fast path: nonnegative heights whose float sum is within half the
        # tolerance.  That sum is within about log2(n) * 2**-53 of the exact
        # one in relative terms, so the exact checks below would pass too
        # (no height can exceed a sum within tolerance of n).  The min is
        # NaN when any height is, which fails.
        if not (np.minimum.reduce(hs) >= 0.0
                and abs(np.add.reduce(hs) / n - 1.0) <= NORMALIZATION_TOL / 2):
            self._check(hs)
        hs.setflags(write=False)
        self._array = hs

    @staticmethod
    def _check(hs) -> None:
        """The exact checks: finite, in [0, n] up to the tolerance, and an
        exactly rounded mean of 1 within it."""
        n = hs.size
        bound = n * (1.0 + NORMALIZATION_TOL)
        # min and max are NaN when any height is, which fails both tests
        if not (hs.min() >= 0.0 and hs.max() <= bound):
            i = int((~np.isfinite(hs) | (hs < 0.0) | (hs > bound)).argmax())
            h = float(hs[i])
            if not math.isfinite(h) or h < 0.0:
                raise ValueError(f"height {i} must be finite and nonnegative, got {h}")
            raise ValueError(f"height {i} exceeds the grid bound {n}: {h}")
        total = math.fsum(hs.tolist()) / n
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"density must integrate to 1, got {total!r}")

    @property
    def array(self) -> np.ndarray:
        """The heights as a read-only float64 array."""
        return self._array

    @property
    def heights(self) -> tuple:
        return tuple(self._array.tolist())

    @property
    def n(self) -> int:
        return self._array.size

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.heights == other.heights

    def __hash__(self):
        return hash(self.heights)

    def __repr__(self):
        return f"PiecewiseDensity(heights={self.heights!r})"

    def __reduce__(self):
        return (type(self), (self._array,))

    @classmethod
    def uniform(cls, n: int = 1) -> "PiecewiseDensity":
        return cls(np.ones(n))

    def evaluate(self, p: float) -> float:
        """Height of the grid interval containing ``p``.

        Interior boundaries belong to the interval on their right; p = 1
        belongs to the last interval.  Boundary i sits at the float ``i / n``
        (see ``grid_index``), so ``evaluate(15 / 22)`` on 22 cells reads
        cell 15 although ``(15 / 22) * 22`` rounds below 15.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        n = self._array.size
        return float(self._array[min(grid_index(p, n), n - 1)])


class BettingMartingale(ABC):
    """Stateful betting strategy over the p-value stream.

    Subclasses implement ``_bet`` (the density for the upcoming step, a
    function of past p-values only) and optionally ``_settle`` (posterior
    bookkeeping after the step's p-value is revealed).  Wealth is tracked in
    the log domain, which is authoritative; the linear ``wealth`` property is
    derived from it.  Once a factor of zero lands, wealth is zero forever,
    but subsequent factors are still produced and recorded for audit.
    """

    def __init__(self):
        self._steps = 0
        self._log_wealth = 0.0
        self._pending = None

    @property
    def steps_taken(self) -> int:
        return self._steps

    @property
    def log_wealth(self) -> float:
        return self._log_wealth

    @property
    def wealth(self) -> float:
        return linear_from_log(self._log_wealth)

    def next_density(self) -> PiecewiseDensity:
        """Density committed for the upcoming step (idempotent until update)."""
        if self._pending is None:
            self._pending = self._bet()
        return self._pending

    def update(self, p: float) -> float:
        """Settle one step at realized p-value ``p``; returns the factor."""
        density = self.next_density()
        factor = density.evaluate(p)
        self._settle(p)
        self._pending = None
        self._steps += 1
        if factor == 0.0:
            self._log_wealth = -math.inf
        else:
            self._log_wealth += math.log(factor)
        return factor

    @abstractmethod
    def _bet(self) -> PiecewiseDensity:
        """Density for step ``steps_taken + 1``."""

    def _settle(self, p: float) -> None:
        """Hook called with the realized p-value before the step counter moves."""


class ConstantBettor(BettingMartingale):
    """Bets the uniform density every step; wealth stays exactly 1."""

    def _bet(self) -> PiecewiseDensity:
        return PiecewiseDensity.uniform()


class ShrunkAlternativeBettor(BettingMartingale):
    """Product-measure alternative given directly on the p-value scale.

    ``family`` is a mapping from step indices (1-based, read by
    :func:`~ctmkit.models.integer`, so a JSON key ``"3"`` is step 3) to
    densities; steps the family is silent about get the uniform density.
    Entries are given as ``PiecewiseDensity`` or raw height tuples.  Every
    entry is validated up front so a non-normalized table fails at
    construction, naming the offending step; :attr:`family` is the
    validated table, which a new bettor takes as is.
    """

    def __init__(self, family):
        super().__init__()
        table = {}
        for step, entry in family.items():
            step = integer(step, "step index")
            if step < 1:
                raise ValueError(f"step indices are 1-based, got {step}")
            if not isinstance(entry, PiecewiseDensity):
                try:
                    entry = PiecewiseDensity(tuple(entry))
                except ValueError as err:
                    raise ValueError(f"density for step {step}: {err}") from err
            table[step] = entry
        self.family = table

    def _bet(self) -> PiecewiseDensity:
        return self.family.get(self._steps + 1, PiecewiseDensity.uniform())
