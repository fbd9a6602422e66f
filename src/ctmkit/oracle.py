"""Exact brute-force verification of the betting engine on small instances.

The joint law of the first N conformal p-values, given any alternative over
the observations, is piecewise uniform on a grid of N! cells (at step n the
p-value falls into one of n equal intervals).  This module enumerates that
cell tree exactly and computes, per cell: its volume, its probability mass
under the alternative, the Bayes-Kelly density heights along its path, and
the candidate posterior at its leaf.

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

Work shared by many cells is done once per call.  The cell tree memoises
each candidate prefix's conditional law and rank counts in dicts local to
one call: both are pure functions of the prefix, so a prefix met at many
nodes gets the same values it would get if recomputed there.  Rival
families share one :class:`NodePlan` (which history node each cell meets at
each depth, and where that node's heights sit in a rival's flat list), built
in one pass over a cell list; a rival is then one list of node heights, and
each height's log is taken once, and tested for a nonpositive height once.
The memo and the plan only cache this module's own values, so the oracle
still shares no code with the engine.  The exchangeability e-variable check
takes a whole grid of Bernoulli parameters at once: the 2^n strings are
enumerated and the statistic read once per string for all of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from .conformal import ConformityMeasure
from .models import AlternativeModel, integer

__all__ = [
    "CellPath",
    "NodePlan",
    "cell_tree",
    "pushforward_kl",
    "expected_log_wealth",
    "node_plan",
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
    the path (1.0 on steps after the path's mass has died); ``final_weights``
    the surviving candidate weights at the leaf, candidate prefix -> weight.
    """

    intervals: tuple
    volume: float
    q_mass: float
    bk_heights: tuple
    final_weights: dict


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
    laws: dict = {}  # prefix -> model.conditional(prefix)
    ranks: dict = {}  # prefix -> rank counts of its last score

    def walk(candidates: dict, n: int, ipath: tuple, hpath: tuple) -> None:
        if n > horizon:
            q_mass = math.fsum(candidates.values())
            cells.append(
                CellPath(
                    intervals=ipath,
                    volume=volume,
                    q_mass=q_mass,
                    bk_heights=hpath,
                    final_weights=candidates,  # built for this leaf alone
                )
            )
            return
        extended: dict = {}
        for prefix, weight in candidates.items():
            if prefix not in laws:
                laws[prefix] = model.conditional(prefix)
            probs = laws[prefix]
            for z in range(m):
                wz = weight * float(probs[z])
                if wz > 0.0:
                    extended[prefix + (z,)] = wz
        for prefix in extended:
            if prefix not in ranks:
                scores = [float(s) for s in measure.scores(np.asarray(prefix, dtype=float))]
                ranks[prefix] = _rank_counts(scores)
        total = math.fsum(extended.values())
        for interval in range(n):
            if total > 0.0:
                survivors = {}
                for prefix, weight in extended.items():
                    below, upto = ranks[prefix]
                    if below <= interval < upto:
                        survivors[prefix] = weight / (upto - below)
                height = n * math.fsum(survivors.values()) / total
            else:
                survivors = {}
                height = 1.0
            walk(survivors, n + 1, ipath + (interval,), hpath + (height,))

    walk({(): 1.0}, 1, (), ())
    return cells


def pushforward_kl(cells) -> float:
    """KL divergence of the p-value pushforward from uniform, natural log.

    Exact finite sum over cells; zero-mass cells contribute nothing.
    """
    terms = [c.q_mass * math.log(c.q_mass / c.volume) for c in cells if c.q_mass > 0.0]
    return math.fsum(terms)


def _logs(factors) -> list:
    # None marks a factor that is not positive, where math.log would raise;
    # NaN is not <= 0.0 and logs to NaN, as math.log gives it
    return [None if f <= 0.0 else math.log(f) for f in factors]


def expected_log_wealth(cells, factors, plan: Optional[NodePlan] = None) -> float:
    """Expected log final wealth of a betting family under the alternative.

    Without ``plan``, ``factors`` aligns with ``cells``: per cell, the
    factors met along its path.  With the ``plan`` of these cells,
    ``factors`` is one rival's flat list of node heights from
    :func:`sample_betting_family`, and cell c's factors are
    ``plan.getters[c](factors)``.  Returns -inf (a signaled value, not an
    error) when a positive-mass cell meets a zero factor.

    It stays a plain, independent reference: the engine adds its log factors
    one step at a time, while here each cell's term is its q mass times the
    ``math.fsum`` of the ``math.log`` of its factors, and the result is the
    ``fsum`` of the terms in cell order.  A zero or negative factor, on
    which ``math.log`` would raise, gives -inf on a positive-mass cell: the
    same bits as testing every factor first, also on NaN and inf factors.

    The node form logs each node height once, not once per cell that meets
    it, and tests the logged heights for a nonpositive one once: with none,
    no cell can give -inf, and the terms are summed in one pass without the
    per-cell test.  Otherwise it runs the per-cell loop of the other form.
    """
    if plan is None:
        if len(cells) != len(factors):
            raise ValueError("factor sequences must align with cells")
        cell_logs = map(_logs, factors)
    else:
        if len(cells) != len(plan.getters):
            raise ValueError("the node plan must be built from these cells")
        node_logs = _logs(factors)
        if None not in node_logs:
            # the cells the loop below skips, and no others: a NaN mass is kept
            return math.fsum([cell.q_mass * math.fsum(get(node_logs))
                              for cell, get in zip(cells, plan.getters)
                              if not cell.q_mass <= 0.0])
        cell_logs = (get(node_logs) for get in plan.getters)
    terms = []
    for cell, logs in zip(cells, cell_logs):
        if cell.q_mass <= 0.0:
            continue
        if None in logs:
            return -math.inf
        terms.append(cell.q_mass * math.fsum(logs))
    return math.fsum(terms)


@dataclass(frozen=True)
class NodePlan:
    """Where a rival family's node heights go, shared by every rival on one
    cell list (see :func:`node_plan`).

    ``sizes[r]`` is the number of intervals node r faces, nodes in draw
    order; ``grid`` has one row per node, True on its first ``sizes[r]``
    entries; ``getters[c]`` maps a rival's flat list of node heights (node
    0's heights, then node 1's, ...) to cell c's factors, a tuple with one
    factor per step.
    """

    sizes: np.ndarray
    grid: np.ndarray
    getters: tuple


def _getter(path) -> Callable:
    if len(path) == 1:
        # itemgetter with a single index returns the item, not a 1-tuple
        index = path[0]
        return lambda heights: (heights[index],)
    return itemgetter(*path)


def node_plan(cells) -> NodePlan:
    """The history-node plan of ``cells``, built once for any number of rivals.

    A history node is a p-value history: cells whose interval paths agree on
    their first d entries meet the same node at depth d, which faces d + 1
    intervals.  One pass over the cells in their given order, depth by depth,
    numbers the nodes in first-visit order: by the first cell that reaches
    them, then by depth.  Cell c's factor at depth d is entry
    ``intervals[d]`` of its node's heights.
    """
    offsets: dict = {}  # history -> where its node's heights begin in the flat list
    sizes: list = []  # intervals per node, in draw order
    end = 0
    getters = []
    for cell in cells:
        path = []
        for d, interval in enumerate(cell.intervals):
            history = cell.intervals[:d]
            if history not in offsets:
                offsets[history] = end
                sizes.append(d + 1)
                end += d + 1
            path.append(offsets[history] + interval)
        getters.append(_getter(path))
    sizes = np.array(sizes, dtype=np.int64)
    grid = np.arange(sizes.max(initial=0)) < sizes[:, None]  # row r: node r's entries, zero-padded
    return NodePlan(sizes, grid, tuple(getters))


def sample_betting_family(plan: NodePlan, rng: np.random.Generator) -> list:
    """Random rival betting family on the filtration of ``plan``'s cells.

    Draws one normalized density (uniform on the simplex, scaled to the
    grid) per history node, so cells sharing a p-value history share the
    density they face: the rival is a legitimate betting martingale, just
    not the predictive one.  Returns the rival's flat list of node heights,
    in the plan's draw order; ``plan.getters[c]`` reads cell c's factors
    from it, and :func:`expected_log_wealth` scores it with the plan.

    A node facing n intervals gets ``dirichlet(ones(n)) * n``; nodes draw in
    the plan's first-visit order.  Dirichlet(1, ..., 1) is n standard
    exponentials over their sum, and numpy's ``Generator.dirichlet`` (numpy
    2.4; a test compares the two with ``==``) computes it that way for unit
    weights: one ``standard_exponential`` per entry from the same stream, a
    left-to-right sum, then each entry times the reciprocal of the sum.  So
    all the nodes' exponentials come from one ``standard_exponential`` call
    and are normalised together with the same operations, which leaves both
    the heights and the generator state bit for bit as one ``dirichlet``
    call per node would.  An empty plan draws nothing.
    """
    heights = np.zeros(plan.grid.shape)
    heights[plan.grid] = rng.standard_exponential(int(plan.sizes.sum()))
    total = np.zeros(len(heights))
    for j in range(heights.shape[1]):  # left to right, as dirichlet sums; padding adds 0.0
        total = total + heights[:, j]
    heights = heights * (1.0 / total)[:, None] * plan.sizes[:, None]
    return heights[plan.grid].tolist()


def evariable_expectation(statistic: Callable, thetas, n: int) -> list:
    """Exact expectations of a statistic of n coin flips, one per Bernoulli
    parameter in ``thetas``, in order.

    Full enumeration of all 2^n bit strings, capped at n = 20.  The strings
    are enumerated once for the whole grid and ``statistic`` is called once
    per string, on every string; every θ is checked to lie in [0, 1] before
    the first call, and an empty ``thetas`` calls nothing.  Each θ's value is
    the ``math.fsum``, in string order, of ``prob * float(statistic(bits))``
    over the strings with ``prob > 0.0``, so a statistic that is inf or NaN
    only where θ gives probability 0 leaves that θ's value finite.  The pass
    keeps one float per string, not the strings themselves.
    """
    n = integer(n, "n")
    if not 1 <= n <= MAX_ENUM_BITS:
        raise ValueError(f"full enumeration capped at n = {MAX_ENUM_BITS}, got {n}")
    thetas = list(thetas)
    for theta in thetas:
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if not thetas:
        return []
    ones = np.fromiter(map(sum, itertools.product((0, 1), repeat=n)), dtype=np.int64, count=2**n)
    values = np.fromiter((float(statistic(bits)) for bits in itertools.product((0, 1), repeat=n)),
                         dtype=float, count=2**n)
    expectations = []
    for theta in thetas:
        # a string's probability depends only on its count of ones; float64
        # products round as Python's, so each term is prob * float(statistic(bits))
        probs = np.array([theta**k * (1.0 - theta) ** (n - k) for k in range(n + 1)])[ones]
        keep = probs > 0.0
        expectations.append(math.fsum((probs[keep] * values[keep]).tolist()))
    return expectations
