"""Exact brute-force verification of the betting engine on small instances.

The joint law of the first N conformal p-values, given any alternative over
the observations, is piecewise uniform on a grid of N! cells (at step n the
p-value falls into one of n equal intervals).  This module enumerates that
cell tree exactly and computes, per cell: its volume, its probability mass
under the alternative, and the Bayes-Kelly density heights along its path.

From the tree two quantities must agree to float precision, and that
equality is the optimality certificate:

* the expected log final wealth of the Bayes-Kelly bettor, summed exactly
  over cells, and
* the Kullback-Leibler divergence between the p-value pushforward of the
  alternative and the uniform law on the cube.

Everything here is an independent reimplementation: candidate bookkeeping
uses plain dictionaries and direct products, no code shared with the engine,
so agreement is evidence rather than tautology.  Costs grow like N! * |Z|^N;
the horizon is capped accordingly.  All sums run in a fixed order (ascending
cell index) so results do not depend on scheduling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .conformal import ConformityMeasure
from .models import AlternativeModel, integer

__all__ = [
    "CellPath",
    "cell_tree",
    "cell_volume_closure",
    "pushforward_kl",
    "expected_log_wealth",
    "sample_betting_family",
    "evariable_expectation",
]

MAX_TREE_HORIZON = 8
MAX_ENUM_BITS = 20


@dataclass(frozen=True)
class CellPath:
    """One cell of the p-value partition after N steps.

    ``intervals`` picks one grid interval per step (entry n-1 is in
    ``range(n)``); ``volume`` is the product of interval widths, 1/N! for
    every cell; ``q_mass`` the probability of the cell under the
    alternative; ``bk_heights`` the Bayes-Kelly predictive heights met along
    the path (1.0 on steps after the path's mass has died).  When requested,
    ``final_weights`` holds the surviving candidate weights at the leaf.
    """

    intervals: tuple
    volume: float
    q_mass: float
    bk_heights: tuple
    final_weights: Optional[dict] = None


def _rank_counts(scores) -> tuple:
    # plain-python twin of the engine's rank statistics
    last = scores[-1]
    below = 0
    upto = 0
    for s in scores:
        if s < last:
            below += 1
        if s <= last:
            upto += 1
    return below, upto


def cell_tree(
    model: AlternativeModel,
    measure: ConformityMeasure,
    horizon: int,
    keep_weights: bool = False,
) -> list:
    """Enumerate all N! cells with exact masses and Bayes-Kelly heights.

    Cells come back in ascending lexicographic order of their interval
    indices.  A path whose candidate mass dies gets height 0 at the killing
    step and 1.0 afterwards, matching the engine's behavior after wealth
    hits zero.
    """
    horizon = integer(horizon, "horizon")
    if not 1 <= horizon <= MAX_TREE_HORIZON:
        raise ValueError(
            f"cell tree cost grows like N! * alphabet**N; horizon must be in "
            f"[1, {MAX_TREE_HORIZON}], got {horizon}"
        )
    m = model.alphabet_size
    volume = 1.0 / math.factorial(horizon)
    cells: list = []

    def walk(candidates: dict, n: int, ipath: tuple, hpath: tuple) -> None:
        if n > horizon:
            q_mass = math.fsum(candidates.values())
            cells.append(
                CellPath(
                    intervals=ipath,
                    volume=volume,
                    q_mass=q_mass,
                    bk_heights=hpath,
                    final_weights=dict(candidates) if keep_weights else None,
                )
            )
            return
        extended: dict = {}
        for prefix, weight in candidates.items():
            probs = model.conditional(prefix)
            for z in range(m):
                wz = weight * float(probs[z])
                if wz > 0.0:
                    extended[prefix + (z,)] = wz
        stats = {}
        for prefix in extended:
            scores = [float(s) for s in measure.scores(np.asarray(prefix, dtype=float))]
            stats[prefix] = _rank_counts(scores)
        total = math.fsum(extended.values())
        for interval in range(n):
            if total > 0.0:
                survivors = {}
                for prefix, weight in extended.items():
                    below, upto = stats[prefix]
                    if below <= interval < upto:
                        survivors[prefix] = weight / (upto - below)
                height = n * math.fsum(survivors.values()) / total
            else:
                survivors = {}
                height = 1.0
            walk(survivors, n + 1, ipath + (interval,), hpath + (height,))

    walk({(): 1.0}, 1, (), ())
    return cells


def cell_volume_closure(cells) -> bool:
    """Exact check that the cell volumes tile the cube: N! cells of 1/N! each."""
    if not cells:
        return False
    horizon = len(cells[0].intervals)
    fact = math.factorial(horizon)
    if len(cells) != fact:
        return False
    expected = 1.0 / fact
    if any(c.volume != expected for c in cells):
        return False
    return Fraction(1, fact) * len(cells) == 1


def pushforward_kl(cells) -> float:
    """KL divergence of the p-value pushforward from uniform, natural log.

    Exact finite sum over cells; zero-mass cells contribute nothing.
    """
    terms = [c.q_mass * math.log(c.q_mass / c.volume) for c in cells if c.q_mass > 0.0]
    return math.fsum(terms)


def expected_log_wealth(cells, factor_sequences) -> float:
    """Expected log final wealth of a betting family under the alternative.

    ``factor_sequences`` aligns with ``cells``: per cell, the factors met
    along its path.  Returns -inf (a signaled value, not an error) when a
    positive-mass cell meets a zero factor.

    It stays a plain, independent reference: the engine adds its log factors
    one step at a time, while here each cell's term is the exactly rounded
    sum (``math.fsum``) of ``math.log`` of the factors on its path, with no
    code shared.  ``math.log`` raising on a zero or negative factor is the
    -inf case, which gives the same bits as testing every factor first, also
    on NaN and inf factors.
    """
    if len(cells) != len(factor_sequences):
        raise ValueError("factor sequences must align with cells")
    terms = []
    for cell, factors in zip(cells, factor_sequences):
        if cell.q_mass <= 0.0:
            continue
        try:
            terms.append(cell.q_mass * math.fsum(map(math.log, factors)))
        except ValueError:
            return -math.inf
    return math.fsum(terms)


def sample_betting_family(cells, rng: np.random.Generator) -> list:
    """Random rival betting family on the same filtration.

    Draws one normalized density (uniform on the simplex, scaled to the
    grid) per history node, so cells sharing a p-value history share the
    density they face: the rival is a legitimate betting martingale, just
    not the predictive one.

    A node at depth n - 1 faces n intervals and gets ``dirichlet(ones(n)) *
    n``; nodes draw in first-visit order (by the first cell that reaches
    them, then by depth).  Dirichlet(1, ..., 1) is n standard exponentials
    over their sum, and numpy's ``Generator.dirichlet`` (numpy 2.4; a test
    compares the two with ``==``) computes it that way for unit weights:
    one ``standard_exponential`` per entry from the same stream, a
    left-to-right sum, then each entry times the reciprocal of the sum.  So
    all the nodes' exponentials come from one ``standard_exponential`` call
    and are normalised together with the same operations, which leaves both
    the heights and the generator state bit for bit as one ``dirichlet``
    call per node would.
    """
    if not cells:
        return []
    iv = np.array([cell.intervals for cell in cells], dtype=np.int64)
    count, horizon = iv.shape
    cell_index = np.arange(count)
    # first[c, d]: the first cell to reach cell c's history node at depth d,
    # whose history iv[c, :d] has a mixed-radix code (entry k is in range(k + 1))
    first = np.empty((count, horizon), dtype=np.int64)
    code = np.zeros(count, dtype=np.int64)
    for d in range(horizon):
        if d:
            code = code * d + iv[:, d - 1]
        seen = np.full(math.factorial(d), count)
        np.minimum.at(seen, code, cell_index)
        first[:, d] = seen[code]
    # Draw order is the row-major order of the (cell, depth) pairs at which a
    # cell reaches a node first: by first cell, then by depth.
    opens = first == cell_index[:, None]
    draw_row = opens.ravel().cumsum().reshape(count, horizon) - 1
    sizes = np.nonzero(opens)[1] + 1  # intervals per node, in draw order
    grid = np.arange(horizon) < sizes[:, None]  # row r: node r's entries, zero-padded
    heights = np.zeros(grid.shape)
    heights[grid] = rng.standard_exponential(int(sizes.sum()))
    total = np.zeros(len(heights))
    for j in range(horizon):  # left to right, as dirichlet sums; padding adds 0.0
        total = total + heights[:, j]
    heights = heights * (1.0 / total)[:, None] * sizes[:, None]
    factors = heights[draw_row[first, np.arange(horizon)], iv]
    return list(map(tuple, factors.tolist()))


def evariable_expectation(statistic: Callable, theta: float, n: int) -> float:
    """Exact expectation of a statistic of n coin flips under Bernoulli(theta).

    Full enumeration of all 2^n bit strings; capped at n = 20.
    """
    n = integer(n, "n")
    if not 1 <= n <= MAX_ENUM_BITS:
        raise ValueError(f"full enumeration capped at n = {MAX_ENUM_BITS}, got {n}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    terms = []
    for bits in itertools.product((0, 1), repeat=n):
        ones = sum(bits)
        prob = theta**ones * (1.0 - theta) ** (n - ones)
        if prob > 0.0:
            terms.append(prob * float(statistic(bits)))
    return math.fsum(terms)
