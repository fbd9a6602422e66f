"""Shared test fixtures that are not part of the package API."""

import numpy as np

from ctmkit import TableModel


def random_table(alphabet_size: int, depth: int, rng: np.random.Generator) -> TableModel:
    """Random conditional table over every prefix shorter than ``depth``, rows
    drawn uniformly from the simplex."""
    m = alphabet_size
    raw = rng.standard_exponential((sum(m**k for k in range(depth)), m))
    return TableModel(m, raw / raw.sum(axis=1, keepdims=True), depth)
