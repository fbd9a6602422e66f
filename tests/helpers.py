"""Shared test fixtures that are not part of the package API."""

import numpy as np

from ctmkit import ConstantBettor, HiddenStateModel, IdentityMeasure, TableModel, ctm_run


def random_table(alphabet_size: int, depth: int, rng: np.random.Generator) -> TableModel:
    """Random conditional table over every prefix shorter than ``depth``, rows
    drawn uniformly from the simplex."""
    m = alphabet_size
    raw = rng.standard_exponential((sum(m**k for k in range(depth)), m))
    return TableModel(m, raw / raw.sum(axis=1, keepdims=True), depth)


def random_hidden_state(rng, hidden, m):
    """Random hidden-state model with structural zeros: about a third of the
    (symbol, next state) entries of each row and of the initial law are 0."""
    transition = rng.standard_exponential((hidden, m * hidden))
    transition *= rng.random((hidden, m * hidden)) > 1 / 3
    transition[np.arange(hidden), rng.integers(0, m * hidden, hidden)] += 1.0
    transition /= transition.sum(axis=1, keepdims=True)
    initial = rng.standard_exponential(hidden) * (rng.random(hidden) > 1 / 3)
    initial[rng.integers(hidden)] += 1.0
    initial /= initial.sum()
    return HiddenStateModel(initial, transition.reshape(hidden, m, hidden))


def random_binary_hidden_state(rng, hidden):
    """Seeded binary ``HiddenStateModel`` with structural zeros: about a
    quarter of the transition entries (and of the initial law, when there
    is more than one state) are exactly 0."""
    initial = rng.dirichlet(np.ones(hidden))
    if hidden > 1:
        initial[rng.random(hidden) < 0.25] = 0.0
        initial[rng.integers(hidden)] += 0.5
    T = rng.dirichlet(np.ones(2 * hidden), size=hidden)
    T[rng.random(T.shape) < 0.25] = 0.0
    T[np.arange(hidden), rng.integers(2 * hidden, size=hidden)] += 0.5
    return HiddenStateModel(initial / initial.sum(), (T / T.sum(axis=1)[:, None]).reshape(
        hidden, 2, hidden))


# random_binary_hidden_state(np.random.default_rng([hidden, seed]), hidden) is
# drawn for each pair; 7 and 8 hidden states straddle the length at which
# numpy's sum over them turns from left to right to pairwise
RANDOM_HIDDEN = [(hidden, seed) for hidden in (1, 2, 3) for seed in (0, 1, 2)] + [(7, 0), (8, 0)]


def state_after(model, prefix):
    """Forward state after ``prefix``: ``model.advance`` folded over its symbols."""
    state = model.start()
    for z in prefix:
        state = model.advance(state, z)
    return state


def prefix_weights(hset):
    """Candidate prefix -> weight."""
    return {tuple(int(z) for z in row): float(w) for row, w in zip(hset.prefixes, hset.weights)}


def grid_pvalues(data, tau):
    """The transducer's p-values at constant tau: at 0 or 1 each is n_star/n or n_upper/n."""
    steps = ctm_run(data, IdentityMeasure(), ConstantBettor(), np.full(len(data), tau), len(data))
    return [s.p for s in steps]
