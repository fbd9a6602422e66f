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

Two implementations are provided.  ``BayesKellyBettor`` enumerates candidates
explicitly and works for any finite alphabet and conformity measure at cost
``alphabet**step`` (desk scale: up to about a million candidates); each step
asks the model for all candidates' conditionals in one ``conditional_batch``
call, which a hidden-state model answers with one batched forward step per
prefix depth.
``CollapsedBayesKellyBettor`` handles the binary-alphabet identity-measure
case at polynomial cost by collapsing candidates onto (ones count, hidden
state), which is all that identity ranks and a hidden-state alternative can
see of a prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .betting import BettingMartingale, PiecewiseDensity
from .conformal import ConformityMeasure, IdentityMeasure
from .models import AlternativeModel, BinaryHMM

__all__ = [
    "HypothesisSet",
    "BKState",
    "extend",
    "predictive_density",
    "condition",
    "BayesKellyBettor",
    "CollapsedBayesKellyBettor",
    "bayes_kelly_bettor",
    "collapse_binary_identity",
]

_PREFIX_DTYPE = np.int16


@dataclass
class HypothesisSet:
    """Weighted candidate prefixes after some number of steps.

    ``prefixes`` is a ``(count, step)`` integer array of distinct candidate
    sequences; ``weights`` their masses.  The scale of the weights is
    whatever the caller put in: the public operations below are
    scale-equivariant, and the bettors keep their sets normalized with a
    separate log-mass accumulator.
    """

    step: int
    prefixes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.prefixes = np.asarray(self.prefixes, dtype=_PREFIX_DTYPE)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.prefixes.ndim != 2 or self.prefixes.shape[1] != self.step:
            raise ValueError(
                f"prefix array must be (count, {self.step}), got {self.prefixes.shape}"
            )
        if self.weights.shape != (self.prefixes.shape[0],):
            raise ValueError("weights must align with prefixes")
        if self.weights.size and (
            not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0.0)
        ):
            raise ValueError("weights must be finite and nonnegative")

    @classmethod
    def root(cls) -> "HypothesisSet":
        return cls(0, np.zeros((1, 0), dtype=_PREFIX_DTYPE), np.ones(1))

    def __len__(self) -> int:
        return int(self.prefixes.shape[0])

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def items(self):
        for row, w in zip(self.prefixes, self.weights):
            yield tuple(int(z) for z in row), float(w)

    def as_dict(self) -> dict:
        return dict(self.items())


def extend(hset: HypothesisSet, model: AlternativeModel) -> HypothesisSet:
    """Extend every candidate by every symbol, weighted by the conditional law.

    Children with exactly zero weight are dropped, which keeps degenerate
    alternatives (point masses, structural zeros) cheap.
    """
    count = len(hset)
    if count == 0:
        raise ValueError("cannot extend an empty hypothesis set")
    m = model.alphabet_size
    probs = np.asarray(model.conditional_batch(hset.prefixes), dtype=float)
    if probs.shape != (count, m):
        raise ValueError(f"conditional batch returned {probs.shape}, expected {(count, m)}")
    child_w = (hset.weights[:, None] * probs).ravel()
    reps = np.repeat(hset.prefixes, m, axis=0)
    syms = np.tile(np.arange(m, dtype=_PREFIX_DTYPE), count)[:, None]
    child_prefixes = np.concatenate([reps, syms], axis=1)
    keep = child_w > 0.0
    return HypothesisSet(hset.step + 1, child_prefixes[keep], child_w[keep])


def _rank_stats(prefixes: np.ndarray, measure: ConformityMeasure):
    """Per-candidate rank counts of the newest symbol within its own window."""
    scores = np.asarray(measure.score_windows(prefixes), dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError(f"conformity measure {measure.name!r} produced non-finite scores")
    last = scores[:, -1:]
    n_star = (scores < last).sum(axis=1)
    n_upper = (scores <= last).sum(axis=1)
    return n_star, n_upper


def _density_from_stats(n, norm_weights, n_star, n_upper, k) -> PiecewiseDensity:
    # each candidate spreads weight * n/k over grid cells [n_star, n_upper)
    v = norm_weights * n / k
    diff = np.bincount(n_star, weights=v, minlength=n + 1) - np.bincount(
        n_upper, weights=v, minlength=n + 1
    )
    heights = np.cumsum(diff)[:n]
    low = float(heights.min(initial=0.0))
    if low < -1e-9:
        raise AssertionError(f"predictive density went negative: {low}")
    heights = np.maximum(heights, 0.0)
    return PiecewiseDensity(heights)


def predictive_density(hset: HypothesisSet, measure: ConformityMeasure) -> PiecewiseDensity:
    """Mixture density of the next p-value implied by the candidate set.

    Candidate with rank counts (n_star, n_upper) contributes a uniform
    density on [n_star/n, n_upper/n]; the mixture integrates to one and no
    height exceeds n.
    """
    n = hset.step
    if n < 1:
        raise ValueError("hypothesis set must be extended before predicting")
    total = hset.total_weight
    if not total > 0.0:
        raise ValueError("hypothesis set has zero total mass; wealth is already zero")
    n_star, n_upper = _rank_stats(hset.prefixes, measure)
    return _density_from_stats(n, hset.weights / total, n_star, n_upper, n_upper - n_star)


def condition(hset: HypothesisSet, p: float, measure: ConformityMeasure) -> HypothesisSet:
    """Posterior update after observing p-value ``p``.

    Candidates whose closed rank interval [n_star/n, n_upper/n] excludes
    ``p`` are removed; survivors are reweighted by the reciprocal of their
    tie count.  The result may be empty, in which case the bettor's wealth
    has just hit zero.
    """
    n = hset.step
    if n < 1:
        raise ValueError("hypothesis set must be extended before conditioning")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    n_star, n_upper = _rank_stats(hset.prefixes, measure)
    k = n_upper - n_star
    pn = p * n
    alive = (n_star <= pn) & (pn <= n_upper)
    new_w = np.where(alive, hset.weights / k, 0.0)
    keep = new_w > 0.0
    return HypothesisSet(n, hset.prefixes[keep], new_w[keep])


@dataclass(frozen=True)
class BKState:
    """Audit snapshot of a Bayes-Kelly bettor."""

    step: int
    hypotheses: HypothesisSet
    log_wealth: float
    wealth: float
    last_density: Optional[PiecewiseDensity]


class BayesKellyBettor(BettingMartingale):
    """Explicit-enumeration Bayes-Kelly bettor for any finite alphabet."""

    def __init__(self, model: AlternativeModel, measure: ConformityMeasure):
        super().__init__()
        self._model = model
        self._measure = measure
        self._hset = HypothesisSet.root()
        self._log_mass = 0.0
        self._dead = False
        self._cache = None
        self._last_density = None

    @property
    def model(self) -> AlternativeModel:
        return self._model

    @property
    def measure(self) -> ConformityMeasure:
        return self._measure

    @property
    def dead(self) -> bool:
        return self._dead

    def _bet(self) -> PiecewiseDensity:
        if self._dead:
            density = PiecewiseDensity.uniform()
        else:
            ext = extend(self._hset, self._model)
            n_star, n_upper = _rank_stats(ext.prefixes, self._measure)
            k = n_upper - n_star
            total = ext.total_weight
            density = _density_from_stats(ext.step, ext.weights / total, n_star, n_upper, k)
            self._cache = (ext, n_star, n_upper, k)
        self._last_density = density
        return density

    def _settle(self, p: float) -> None:
        if self._dead:
            return
        ext, n_star, n_upper, k = self._cache
        self._cache = None
        pn = p * ext.step
        alive = (n_star <= pn) & (pn <= n_upper)
        new_w = np.where(alive, ext.weights / k, 0.0)
        mass = float(new_w.sum())
        if mass <= 0.0:
            self._dead = True
            self._hset = HypothesisSet(
                ext.step, np.zeros((0, ext.step), dtype=_PREFIX_DTYPE), np.zeros(0)
            )
            return
        keep = new_w > 0.0
        self._hset = HypothesisSet(ext.step, ext.prefixes[keep], new_w[keep] / mass)
        self._log_mass += math.log(mass)

    @property
    def hypothesis_set(self) -> HypothesisSet:
        """Candidate set with absolute weights (Q-mass times tie corrections)."""
        scale = math.exp(self._log_mass) if not self._dead else 0.0
        return HypothesisSet(
            self._hset.step, self._hset.prefixes.copy(), self._hset.weights * scale
        )

    @property
    def state(self) -> BKState:
        return BKState(
            step=self._steps,
            hypotheses=self.hypothesis_set,
            log_wealth=self.log_wealth,
            wealth=self.wealth,
            last_density=self._last_density,
        )


class CollapsedBayesKellyBettor(BettingMartingale):
    """Bayes-Kelly bettor collapsed onto sufficient statistics.

    Requires a binary alphabet with the identity measure and a hidden-state
    alternative.  Candidates sharing (ones count, hidden state) are
    interchangeable from here on: identity ranks depend on a window only
    through its ones count and newest symbol, and the alternative's future
    conditionals depend only on its hidden state.  State size is O(step),
    against 2**step for the explicit engine; the two produce identical bets.
    """

    def __init__(self, model: BinaryHMM, measure: ConformityMeasure):
        super().__init__()
        if not isinstance(model, BinaryHMM):
            raise TypeError("collapsed Bayes-Kelly needs a hidden-state binary alternative")
        if not isinstance(measure, IdentityMeasure):
            raise TypeError("collapsed Bayes-Kelly is only valid for the identity measure")
        self._model = model
        self._measure = measure
        # weights[c, h]: mass of candidates with c ones and hidden state h
        self._W = model.initial[None, :].astype(float).copy()
        self._log_mass = 0.0
        self._dead = False
        self._cache = None
        self._last_density = None

    @property
    def model(self) -> BinaryHMM:
        return self._model

    @property
    def measure(self) -> ConformityMeasure:
        return self._measure

    @property
    def dead(self) -> bool:
        return self._dead

    def _bet(self) -> PiecewiseDensity:
        if self._dead:
            density = PiecewiseDensity.uniform()
            self._last_density = density
            return density
        n = self._steps + 1
        T = self._model.transition
        W = self._W  # (n, H): ones counts 0..n-1
        ext = np.zeros((n + 1, 2, W.shape[1]))
        ext[:n, 0, :] = W @ T[:, 0, :]  # emit 0: ones count unchanged
        ext[1:, 1, :] = W @ T[:, 1, :]  # emit 1: ones count up by one
        g = ext.sum(axis=2)  # (n+1, 2) mass per (ones, newest symbol)
        total = float(g.sum())
        c = np.arange(n + 1)
        # identity ranks for a binary window with c ones ending in symbol z
        k = np.stack([n - c, c], axis=1)
        n_star = np.stack([np.zeros(n + 1, dtype=np.int64), n - c], axis=1)
        n_upper = n_star + k
        ksafe = np.maximum(k, 1)
        v = np.where(g > 0.0, g * n / (ksafe * total), 0.0)
        diff = np.bincount(
            n_star.ravel(), weights=v.ravel(), minlength=n + 1
        ) - np.bincount(n_upper.ravel(), weights=v.ravel(), minlength=n + 1)
        heights = np.maximum(np.cumsum(diff)[:n], 0.0)
        density = PiecewiseDensity(heights)
        self._cache = (n, ext, g, ksafe, n_star, n_upper)
        self._last_density = density
        return density

    def _settle(self, p: float) -> None:
        if self._dead:
            return
        n, ext, g, ksafe, n_star, n_upper = self._cache
        self._cache = None
        pn = p * n
        alive = (n_star <= pn) & (pn <= n_upper) & (g > 0.0)
        fac = np.where(alive, 1.0 / ksafe, 0.0)
        new_W = (ext * fac[:, :, None]).sum(axis=1)  # (n+1, H)
        mass = float(new_W.sum())
        if mass <= 0.0:
            self._dead = True
            self._W = np.zeros((0, ext.shape[2]))
            return
        self._W = new_W / mass
        self._log_mass += math.log(mass)

    def collapsed_weights(self) -> dict:
        """Absolute mass per (ones count, hidden state), zero entries omitted."""
        if self._dead:
            return {}
        scale = math.exp(self._log_mass)
        out = {}
        for cidx in range(self._W.shape[0]):
            for h in range(self._W.shape[1]):
                w = float(self._W[cidx, h])
                if w > 0.0:
                    out[(cidx, h)] = w * scale
        return out

    @classmethod
    def _from_parts(cls, model, measure, W, log_mass, steps, log_wealth, dead, last_density):
        bettor = cls(model, measure)
        bettor._W = W
        bettor._log_mass = log_mass
        bettor._steps = steps
        bettor._log_wealth = log_wealth
        bettor._dead = dead
        bettor._last_density = last_density
        return bettor


def collapse_binary_identity(bettor: BayesKellyBettor) -> CollapsedBayesKellyBettor:
    """Convert an explicit-candidate bettor into the collapsed form, mid-run.

    Each candidate's weight is split across hidden states by the model's
    forward posterior and accumulated on its ones count.  The returned bettor
    produces bit-for-bit the same future bets up to float reassociation.
    Refuses models without hidden-state structure and non-identity measures.
    """
    if not isinstance(bettor, BayesKellyBettor):
        raise TypeError("expected an explicit-candidate Bayes-Kelly bettor")
    model = bettor.model
    measure = bettor.measure
    if not isinstance(model, BinaryHMM):
        raise TypeError(
            "collapse requires a hidden-state binary alternative; "
            f"got {type(model).__name__}"
        )
    if not isinstance(measure, IdentityMeasure):
        raise TypeError(f"collapse requires the identity measure, got {measure.name!r}")
    if bettor._pending is not None:
        raise ValueError("collapse between steps: a bet is already committed")
    steps = bettor.steps_taken
    H = model.hidden_size
    if bettor.dead:
        return CollapsedBayesKellyBettor._from_parts(
            model, measure, np.zeros((0, H)), 0.0, steps, bettor.log_wealth, True,
            bettor._last_density,
        )
    W = np.zeros((steps + 1, H))
    for prefix, weight in bettor._hset.items():
        try:
            state = model.state_after(prefix)
        except ValueError:  # the prefix has probability zero under the model
            continue
        W[sum(prefix)] += weight * state
    return CollapsedBayesKellyBettor._from_parts(
        model, measure, W, bettor._log_mass, steps, bettor.log_wealth, False,
        bettor._last_density,
    )


def bayes_kelly_bettor(
    model: AlternativeModel, measure: ConformityMeasure, collapse: str = "auto"
) -> BettingMartingale:
    """Build a Bayes-Kelly bettor, collapsed when the instance allows it.

    ``collapse`` is ``"auto"`` (collapse iff binary + identity + hidden-state
    model), ``"always"`` (error when the instance does not qualify) or
    ``"never"``.
    """
    qualifies = isinstance(model, BinaryHMM) and isinstance(measure, IdentityMeasure)
    if collapse == "auto":
        use = qualifies
    elif collapse == "always":
        if not qualifies:
            raise ValueError(
                "collapse requested but the instance does not qualify "
                "(need a hidden-state binary alternative and the identity measure)"
            )
        use = True
    elif collapse == "never":
        use = False
    else:
        raise ValueError(f"collapse must be auto/always/never, got {collapse!r}")
    if use:
        return CollapsedBayesKellyBettor(model, measure)
    return BayesKellyBettor(model, measure)
