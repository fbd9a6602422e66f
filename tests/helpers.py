"""Shared test fixtures that are not part of the package API."""

import numpy as np

from ctmkit import HiddenStateModel, TableModel


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
