"""Posterior-predictive (Bayes-Kelly) betting against a sequential alternative.

The bettor maintains a weighted set of candidate observation sequences that
are still compatible with the p-values seen so far.  Each step it

1. extends every candidate by every symbol, weighting children by the
   alternative's conditional law,
2. pushes the weighted bag of candidate windows through the same
   scoring-and-ranking map the p-values come from, yielding the predictive
   density of the next p-value (a mixture of uniform densities on rank
   intervals),
3. bets that density, and
4. prunes candidates whose rank interval missed the realized p-value,
   scaling the survivors by the reciprocal of their tie count.

Betting the one-step predictive density is the log-optimal strategy against
the configured alternative among all strategies that see only the p-values;
the oracle module certifies this exactly on small instances.

One skeleton runs this step over two representations of the candidate set.
It keeps the candidates' normalised weights and the log of the mass
normalised away, and once that mass hits zero it is dead and bets the
uniform density for good.  ``BayesKellyBettor`` holds the candidates
explicitly and works for any finite alphabet and conformity measure at cost
``alphabet**step`` (desk scale: up to about a million candidates).  It
carries each candidate's forward state beside its prefix, so each step costs
one batched ``probs`` and one ``advance_batch`` call on those states.
``CollapsedBayesKellyBettor`` takes a binary ``HiddenStateModel`` with the
identity measure, and nothing else, at polynomial cost by collapsing
candidates onto (ones count, hidden state), which is all that identity ranks
and a hidden-state alternative can see of a prefix.  ``bayes_kelly_bettor``
picks the collapsed one whenever its constructor accepts the instance; the
two emit the same densities up to float reassociation.

A candidate survives a step when its closed rank interval
``[n_star/n, n_upper/n]``, with both ends formed by float division as the
transducer forms p-values, holds the realized p-value.  ``grid_index`` turns
that test into two integer comparisons, so a p-value sitting exactly on a
grid point (as ``--tau-mode constant:0`` and ``constant:1`` produce) keeps
the realized candidate; ``p * n`` is not exact and used to prune it.

The collapsed step runs on arrays of a few dozen floats, where each numpy
call costs more than its arithmetic, so it keeps the call count low without
changing a bit of its output.  Its tie counts depend only on the step n and
are read from ramps built once per power-of-two size and shared by every
bettor, so they hold O(largest step) numbers rather than a table per n.  The
rank counts need no table: each grid cell's height has a closed form in the
per-(ones count, symbol) masses.  Survivors are two contiguous row ranges,
one per newest symbol, so settling slices instead of masking.  Some
expressions are fixed because any rewrite changes the bits:
the two matmuls against ``T[:, z, :]`` (OpenBLAS fuses multiply-adds, an
elementwise sum over hidden states or ``einsum`` does not, and neither
does one matmul against ``T.reshape(H, 2 * H)``), the interleaved
``(n+1, 2)`` layout of the per-(ones count, symbol) masses and its
``sum()`` (pairwise summation order), their sum over hidden states in
numpy's reduction order (left to right below 8 terms, pairwise from 8 on),
and the grid heights as the explicit engine's ``bincount(n_star) -
bincount(n_upper)`` then ``cumsum`` would add them: cell 0 as the newest-0
masses summed left to right (``cumsum``, not the pairwise ``sum()``) plus
the all-ones newest 1, cell i > 0 as one subtraction, then one ``cumsum``.
``tests/test_bayes_kelly.py`` keeps the step as it was before these tables
and checks every emitted bit against it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .betting import BettingMartingale, PiecewiseDensity, grid_index, linear_from_log
from .conformal import ConformityMeasure, IdentityMeasure
from .models import AlternativeModel, HiddenStateModel

__all__ = [
    "HypothesisSet",
    "extend",
    "BayesKellyBettor",
    "CollapsedBayesKellyBettor",
    "bayes_kelly_bettor",
]

_PREFIX_DTYPE = np.int16


@dataclass
class HypothesisSet:
    """Weighted candidate prefixes after some number of steps.

    ``prefixes`` is a ``(count, step)`` int16 array of distinct candidate
    sequences; ``weights`` their finite, nonnegative float masses; ``states``
    the model's forward states after them, rows of an ``advance_batch``
    result aligned with ``prefixes``, or None at the root, where every
    candidate is the empty prefix.  Sets are built by the engine (``root``,
    ``extend`` and the explicit bettor), which is what keeps those
    properties; they are not re-checked here.
    """

    step: int
    prefixes: np.ndarray
    weights: np.ndarray
    states: np.ndarray | None = None

    @classmethod
    def root(cls) -> "HypothesisSet":
        return cls(0, np.zeros((1, 0), dtype=_PREFIX_DTYPE), np.ones(1))

    def __len__(self) -> int:
        return int(self.prefixes.shape[0])


def extend(hset: HypothesisSet, model: AlternativeModel) -> HypothesisSet:
    """Extend every candidate by every symbol, weighted by the conditional law.

    The conditionals come from the candidates' forward states, and the kept
    children's states from one ``advance_batch`` call on them.  The model's
    batch of conditionals must be ``(count, alphabet)``, finite and
    nonnegative.  Children with exactly zero weight are dropped, which keeps
    degenerate alternatives (point masses, structural zeros) cheap.
    """
    count = len(hset)
    if count == 0:
        raise ValueError("cannot extend an empty hypothesis set")
    if hset.states is None and hset.step:
        raise ValueError("a hypothesis set past the root needs its forward states")
    m = model.alphabet_size
    states = [model.start()] if hset.states is None else hset.states
    probs = np.asarray(model.conditional_batch(states), dtype=float)
    if probs.shape != (count, m):
        raise ValueError(f"conditional batch returned {probs.shape}, expected {(count, m)}")
    # min and max are NaN when any entry is, which fails both tests
    if not (probs.min() >= 0.0 and probs.max() < math.inf):
        raise ValueError("conditional batch must be finite and nonnegative")
    child_w = (hset.weights[:, None] * probs).ravel()
    kept = np.flatnonzero(child_w > 0.0)
    parent, syms = np.divmod(kept, m)
    syms = syms.astype(_PREFIX_DTYPE)
    child_prefixes = np.concatenate([hset.prefixes[parent], syms[:, None]], axis=1)
    parents = [states[0]] * kept.size if hset.states is None else states[parent]
    return HypothesisSet(hset.step + 1, child_prefixes, child_w[kept],
                         model.advance_batch(parents, syms))


def _rank_stats(prefixes: np.ndarray, measure: ConformityMeasure):
    """Per-candidate rank counts of the newest symbol within its own window."""
    scores = np.asarray(measure.score_windows(prefixes), dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError(f"conformity measure {measure.name!r} produced non-finite scores")
    last = scores[:, -1:]
    n_star = (scores < last).sum(axis=1)
    n_upper = (scores <= last).sum(axis=1)
    return n_star, n_upper


def _grid_heights(n: int, v, n_star, n_upper) -> np.ndarray:
    """Heights of n grid cells where entry i adds ``v[i]`` on cells
    ``[n_star[i], n_upper[i])``."""
    diff = np.bincount(n_star, weights=v, minlength=n + 1)
    diff -= np.bincount(n_upper, weights=v, minlength=n + 1)
    return diff.cumsum()[:n]


@functools.cache
def _rank_ramps(size: int):
    """Read-only ramps the collapsed step reads its tie counts from, for
    every step n < size: max(j, 1) for j = 0..size and its reciprocal, as
    floats.  Sizes are powers of two, so the cache holds O(largest step)
    floats."""
    ksafe = np.arange(size + 1, dtype=float)
    ksafe[0] = 1.0
    inv_k = 1.0 / ksafe
    for table in (ksafe, inv_k):
        table.setflags(write=False)
    return ksafe, inv_k


class _BayesKelly(BettingMartingale):
    """The Bayes-Kelly step shared by both candidate-set representations.

    ``_predict`` returns the next p-value's grid heights (before clipping
    rounding noise at zero) and whatever ``_condition`` needs to settle.
    ``_condition(below, above, cache)`` keeps the candidates whose closed
    rank interval ``[n_star/n, n_upper/n]`` holds the realized p-value,
    which are those with ``n_star <= below`` and ``n_upper >= above``; it
    stores the normalised posterior and returns the mass it normalised away.
    """

    def __init__(self, model: AlternativeModel, measure: ConformityMeasure):
        super().__init__()
        self._model = model
        self._measure = measure
        self._log_mass = 0.0
        self._dead = False
        self._cache = None

    @property
    def dead(self) -> bool:
        return self._dead

    def _bet(self) -> PiecewiseDensity:
        if self._dead:
            return PiecewiseDensity.uniform()
        heights, self._cache = self._predict()
        return PiecewiseDensity(np.maximum(heights, 0.0, out=heights))

    def _settle(self, p: float) -> None:
        if self._dead:
            return
        cache = self._cache
        self._cache = None
        n = self._steps + 1
        # r/n <= p exactly when r <= below, and r/n >= p exactly when r >= above
        below = grid_index(p, n)
        above = below if below / n == p else below + 1
        mass = self._condition(below, above, cache)
        if mass <= 0.0:
            self._dead = True
            return
        self._log_mass += math.log(mass)


class BayesKellyBettor(_BayesKelly):
    """Explicit-enumeration Bayes-Kelly bettor for any finite alphabet."""

    def __init__(self, model: AlternativeModel, measure: ConformityMeasure):
        super().__init__(model, measure)
        self._hset = HypothesisSet.root()

    def _predict(self):
        ext = extend(self._hset, self._model)
        n_star, n_upper = _rank_stats(ext.prefixes, self._measure)
        k = n_upper - n_star
        n = ext.step
        # each candidate spreads weight * n/k over grid cells [n_star, n_upper)
        heights = _grid_heights(n, ext.weights / ext.weights.sum() * n / k, n_star, n_upper)
        low = float(heights.min(initial=0.0))
        if low < -1e-9:
            raise AssertionError(f"predictive density went negative: {low}")
        return heights, (ext, n_star, n_upper, k)

    def _condition(self, below, above, cache) -> float:
        ext, n_star, n_upper, k = cache
        alive = (n_star <= below) & (n_upper >= above)
        new_w = np.where(alive, ext.weights / k, 0.0)
        mass = float(new_w.sum())
        keep = new_w > 0.0  # all False at zero mass, leaving an empty set
        self._hset = HypothesisSet(ext.step, ext.prefixes[keep], new_w[keep] / mass,
                                   ext.states[keep])
        return mass

    @property
    def hypothesis_set(self) -> HypothesisSet:
        """Candidate set with absolute weights (Q-mass times tie corrections)."""
        hset = self._hset
        return HypothesisSet(
            hset.step, hset.prefixes.copy(), hset.weights * linear_from_log(self._log_mass),
            None if hset.states is None else hset.states.copy(),
        )


class CollapsedBayesKellyBettor(_BayesKelly):
    """Bayes-Kelly bettor collapsed onto sufficient statistics.

    Requires a binary ``HiddenStateModel`` and the identity measure, and
    raises TypeError otherwise.  Candidates sharing (ones count, hidden
    state) are interchangeable from here on: identity ranks depend on a
    window only through its ones count and newest symbol, and the
    alternative's future conditionals depend only on its hidden state.  State size is O(step),
    against 2**step for the explicit engine; the two produce identical bets.

    At step n a window with c ones ending in symbol z has ``n_star`` (0, n-c),
    ``n_upper`` (n-c, n) and tie count (n-c, c) for z = (0, 1).  The tie
    counts are views of ramps over 0..size, where size is the power of two
    above the step (``_rank_ramps``); see the module docstring for the
    expressions that stay as they are for bit-exactness.
    """

    def __init__(self, model: HiddenStateModel, measure: ConformityMeasure):
        if not (isinstance(model, HiddenStateModel) and model.alphabet_size == 2):
            raise TypeError("collapsed Bayes-Kelly needs a binary hidden-state alternative")
        if not isinstance(measure, IdentityMeasure):
            raise TypeError("collapsed Bayes-Kelly is only valid for the identity measure")
        super().__init__(model, measure)
        T = model.transition
        self._T0 = np.ascontiguousarray(T[:, 0, :])  # emit 0
        self._T1 = np.ascontiguousarray(T[:, 1, :])  # emit 1
        # weights[c, h]: mass of candidates with c ones and hidden state h
        self._W = model.initial[None, :].astype(float)
        self._size = 0
        self._ramps = None

    def _predict(self):
        n = self._steps + 1
        if n > self._size:
            self._size = 1 << n.bit_length()
            self._ramps = _rank_ramps(self._size)
        ksafe_ramp = self._ramps[0]
        W = self._W  # (n, H): ones counts 0..n-1
        H = W.shape[1]
        ext = np.zeros((n + 1, 2, H))
        np.matmul(W, self._T0, out=ext[:n, 0])  # emit 0: ones count unchanged
        np.matmul(W, self._T1, out=ext[1:, 1])  # emit 1: ones count up by one
        # (n+1, 2) mass per (ones, newest symbol).  numpy sums fewer than 8
        # terms left to right from +0, which adding the (nonnegative) columns
        # in turn reproduces without the reduction's per-row overhead
        if H < 8:
            g = ext[:, :, 0].copy()
            for h in range(1, H):
                g += ext[:, :, h]
        else:
            g = ext.sum(axis=2)
        total = float(g.sum())
        # v = g * n / (k * total), with the tie counts k floored at 1: k is
        # 0 only where g is, and those entries come out +0
        den = np.empty((n + 1, 2))
        den[:, 0] = ksafe_ramp[n::-1]
        den[:, 1] = ksafe_ramp[: n + 1]
        den *= total
        v = g * n
        v /= den
        # _grid_heights in closed form: cell 0 gathers every newest 0 and the
        # all-ones newest 1, added in row order as bincount adds them; cell
        # i > 0 gains the newest 1 and loses the newest 0 with n - i ones
        # (the newest 0 with n ones is +0, and cell n is never read)
        diff = np.empty(n)
        diff[0] = v[:, 0].cumsum()[n] + v[n, 1]
        np.subtract(v[n - 1 : 0 : -1, 1], v[n - 1 : 0 : -1, 0], out=diff[1:])
        return diff.cumsum(), ext

    def _condition(self, below, above, ext) -> float:
        n = self._steps + 1
        inv_k = self._ramps[1]
        # Newest 0 survives for n_upper = n - c >= above, so in rows
        # c < split; newest 1 for n_star = n - c <= below, so in rows from
        # n - below.  As above is below or below + 1, that is rows from split
        # on, plus row split - 1 when p is a grid point (above == below).
        split = n - above + 1
        new_W = np.empty((n + 1, ext.shape[2]))
        np.multiply(ext[:split, 0], inv_k[n::-1][:split, None], out=new_W[:split])
        np.multiply(ext[split:, 1], inv_k[split : n + 1, None], out=new_W[split:])
        if above == below:
            new_W[split - 1] += ext[split - 1, 1] * inv_k[split - 1]
        mass = float(new_W.sum())
        if mass > 0.0:
            new_W /= mass
            self._W = new_W
        else:
            self._W = new_W[:0]
        return mass


def bayes_kelly_bettor(model: AlternativeModel, measure: ConformityMeasure) -> BettingMartingale:
    """The collapsed bettor when its constructor accepts the instance, else
    the explicit one."""
    try:
        return CollapsedBayesKellyBettor(model, measure)
    except TypeError:
        return BayesKellyBettor(model, measure)
