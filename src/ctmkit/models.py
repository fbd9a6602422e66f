"""Sequential alternative hypotheses over finite alphabets.

A model is three methods, all that sampling, the betting engine, the
e-process and the oracle ask of it: ``start()`` gives the forward state
before any symbol, ``advance(state, z)`` the state after one more symbol,
and ``probs(state)`` the next-symbol law.  Models are horizon-free: the run
length is a runtime parameter, never a model parameter.  Log probabilities
are folded once, by ``prefix_log_probabilities``, which the e-process reads.
Walks that meet a forward state again, ``sample`` and
``log_probability_levels`` (the prefix-tree walk the e-variable table
reads), compute each distinct state's law and steps once per call, through
a ``_StateMemo``, and get the plain fold's bits.

The step also comes batched, ``advance_batch(states, symbols)`` and
``probs_batch(states)``, which loop over the scalar methods by default.  The
explicit betting engine carries each candidate's forward state, so every bet
costs one ``probs_batch`` and one ``advance_batch`` call, whatever the step.

The changepoint, first-order Markov and iid alternatives are instances of
one :class:`HiddenStateModel`, a tiny hidden-state chain over any alphabet
whose forward state is the normalised hidden-state posterior (the forward
algorithm).  That makes each step's cost independent of the prefix length,
and makes the binary instances eligible for the collapsed betting engine.
Its batched step is the same forward algorithm on a ``(rows, H)`` array of
posteriors.  Every other shipped model is a :class:`TableModel`, whose
forward state is a known state index: a conditional table, or a point mass,
the table whose state is its position in its sequence.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from pathlib import Path
from typing import Sequence

import numpy as np

PROB_SUM_TOL = 1e-12


def check_laws(what: str, laws: np.ndarray) -> None:
    """Raise ValueError unless every row of ``laws`` is a probability law.

    Every comparison with NaN is False, so a NaN entry fails the check.
    """
    ok = (laws >= 0.0).all(axis=1) & (np.abs(laws.sum(axis=1) - 1.0) <= PROB_SUM_TOL)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(
            f"{what} row {i} must be nonnegative and sum to 1, got {laws[i].tolist()}"
        )


def integer(value, what: str) -> int:
    """``value`` as an int: an int, an integral float or an integer string is read
    as it; a bool, a fraction, inf, nan or a non-number is a ValueError naming it."""
    try:
        if isinstance(value, (bool, np.bool_)) or (
                not isinstance(value, str) and int(value) != value):
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def symbol_list(seq, alphabet_size: int, what: str) -> list:
    """``seq`` as a list of ints, checked in one vectorised pass: a value equal to an
    integer in ``[0, alphabet_size)`` is read as it; else a ValueError names it."""
    values = np.asarray(seq, dtype=float)  # NaN fails every comparison below
    bad = ~((values >= 0.0) & (values < alphabet_size) & (values == np.floor(values)))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"{what}, got {np.asarray(seq)[i].item()!r} at position {i}")
    return values.astype(np.int64).tolist()


def _validate_prob(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


class AlternativeModel(ABC):
    """A law over symbol sequences, presented one forward step at a time."""

    def __init__(self, alphabet_size: int):
        alphabet_size = integer(alphabet_size, "alphabet_size")
        if alphabet_size < 2:
            raise ValueError(f"alphabet size must be at least 2, got {alphabet_size}")
        self.alphabet_size = alphabet_size

    @abstractmethod
    def start(self):
        """Forward state before any symbol."""

    @abstractmethod
    def advance(self, state, z: int):
        """Forward state after one more symbol ``z``.

        Callers advance only past symbols of positive probability; a model
        may raise on any other.
        """

    @abstractmethod
    def probs(self, state) -> np.ndarray:
        """Probability vector of the next symbol in forward state ``state``."""

    def conditional(self, prefix: Sequence[int]) -> np.ndarray:
        """Probability vector of the next symbol given ``prefix``: :meth:`advance`
        folded over its symbols, checked as :meth:`prefix_log_probabilities`
        checks them."""
        state = self.start()
        for z in symbol_list(prefix, self.alphabet_size,
                             f"symbols must be in range({self.alphabet_size})"):
            state = self.advance(state, z)
        return self.probs(state)

    def advance_batch(self, states, symbols: np.ndarray):
        """Forward states after one more symbol, one row per state.

        ``states`` is a list of forward states or rows of an earlier result,
        which must support integer- and boolean-array indexing.  The default
        calls :meth:`advance` row by row.
        """
        out = np.empty(len(symbols), dtype=object)
        for i, (state, z) in enumerate(zip(states, symbols.tolist())):
            out[i] = self.advance(state, z)
        return out

    def probs_batch(self, states) -> np.ndarray:
        """Next-symbol laws, one row per forward state; the default loops :meth:`probs`."""
        return np.stack([self.probs(state) for state in states])

    def conditional_batch(self, states) -> np.ndarray:
        """:meth:`probs_batch`, the one call ``extend`` reads conditionals with.

        ``bench/tracing.py`` times the explicit engine by patching this method
        here, so no model overrides it; it folds into :meth:`probs_batch` once
        the program records its own layer spans (ROADMAP item 1).
        """
        return self.probs_batch(states)

    def prefix_log_probabilities(self, seq: Sequence[int]) -> list:
        """Natural log probabilities of ``seq[:1]``, ``seq[:2]``, ...: -inf from the
        first impossible symbol on, past which the fold never advances.  It
        advances only before it reads the next symbol, N - 1 times for N."""
        seq = symbol_list(seq, self.alphabet_size,
                          f"symbols must be in range({self.alphabet_size})")
        out = []
        total = 0.0
        state = self.start()
        for n, z in enumerate(seq):
            if n:
                state = self.advance(state, seq[n - 1])
            prob = float(self.probs(state)[z])
            if prob <= 0.0:
                return out + [-math.inf] * (len(seq) - n)
            total += math.log(prob)
            out.append(total)
        return out

    def sequence_log_probability(self, seq: Sequence[int]) -> float:
        """Natural log probability of a finite sequence; -inf when impossible."""
        logs = self.prefix_log_probabilities(seq)
        return logs[-1] if logs else 0.0

    def sample(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        """Draw one sequence of length ``horizon``: per step one ``rng.random()``
        draw u, and the first symbol whose cumulative probability exceeds u
        (the last symbol of positive probability when none does).  Laws and
        states come from a :class:`_StateMemo`, so a first-order Markov
        chain's step is a few list reads, while a changepoint posterior, new
        at nearly every step, still pays the forward algorithm."""
        out = np.empty(horizon, dtype=np.int64)
        memo = _StateMemo(self, _cumulative)
        node = memo.node(self.start())
        draws = []
        for n in range(horizon):
            if n:
                node = memo.child(node, z)
            cum, probs = node[0]
            z = bisect_right(cum, rng.random())
            if z == self.alphabet_size:  # past a cumulative sum ending below 1
                z = int(np.flatnonzero(probs > 0.0)[-1])
            draws.append(z)
        out[:] = draws
        return out

    def log_probability_levels(self, depth: int) -> list:
        """Natural log probability of every string of length at most ``depth >= 1``.

        Entry k maps each length-k symbol tuple of positive probability to
        its log probability; entry 0 is ``{(): 0.0}``.  One depth-first walk
        of the prefix tree: a child's total is its parent's plus
        ``math.log(p)``, the fold :meth:`prefix_log_probabilities` makes, so
        every entry equals :meth:`sequence_log_probability` bit for bit.
        Laws and states come from a :class:`_StateMemo`: a first-order
        Markov chain's three states serve all 2 047 nodes of depth 11, while
        a changepoint posterior, new at every node, costs what it did.  A
        string through a zero-probability symbol (log probability -inf) has
        no entry, and the walk never advances past one.
        """
        levels = [{(): 0.0}] + [{} for _ in range(depth)]
        memo = _StateMemo(self, _log_steps)

        def walk(node, prefix: tuple, total: float) -> None:
            for z, log_p in node[0]:
                child, child_total = prefix + (z,), total + log_p
                levels[len(child)][child] = child_total
                if len(child) < depth:
                    walk(memo.child(node, z), child, child_total)

        walk(memo.node(self.start()), (), 0.0)
        return levels


def _cumulative(probs):
    """A law as the sampler reads it: its cumulative sum as a list, which
    ``bisect_right`` searches as ``np.searchsorted(side="right")`` does, and
    the law itself."""
    probs = np.asarray(probs, dtype=float)
    return np.cumsum(probs).tolist(), probs


def _log_steps(probs) -> list:
    """A law as the prefix-tree walk reads it: ``(z, log p)`` for each symbol
    z of positive probability p, in symbol order."""
    return [(z, math.log(p)) for z, p in enumerate(probs.tolist()) if not p <= 0.0]


class _StateMemo:
    """One model's forward step within one call, computed once per distinct
    state, for the two walks that meet states again: :meth:`AlternativeModel.sample`
    and :meth:`AlternativeModel.log_probability_levels`.

    Each state gets a node, the list ``[read(probs(state)), state, child_0,
    ..., child_{m-1}]``; slot ``2 + z`` holds the node after symbol z once
    :meth:`child` has made it, so a walk that meets a state again follows
    its slots.  States are told apart by key: an ndarray by its bytes (a
    model's array states share one dtype and shape, as every
    :class:`HiddenStateModel`'s do), an int by its value; any other state
    gets a fresh node.  ``probs`` and ``advance`` are deterministic, so a
    hit gives the very floats a recomputation would.  The memo lives only as
    long as the call that made it: one node per state that call meets.
    """

    __slots__ = ("_model", "_read", "_nodes", "_no_children")

    def __init__(self, model: AlternativeModel, read):
        self._model = model
        self._read = read
        self._nodes = {}
        self._no_children = [None] * model.alphabet_size

    def node(self, state) -> list:
        """The node of ``state``, made on the first meeting."""
        if isinstance(state, np.ndarray):
            key = state.tobytes()
        else:
            key = state if type(state) is int else None
        node = self._nodes.get(key)  # None is never a key
        if node is None:
            node = [self._read(self._model.probs(state)), state, *self._no_children]
            if key is not None:
                self._nodes[key] = node
        return node

    def child(self, node: list, z: int) -> list:
        """The node after symbol ``z`` from ``node``, advanced once and kept in its slot."""
        child = node[2 + z]
        if child is None:
            child = node[2 + z] = self.node(self._model.advance(node[1], z))
        return child


class HiddenStateModel(AlternativeModel):
    """Alternative driven by a small hidden state, over any alphabet.

    ``transition[h, z, h2]`` is the joint probability of emitting symbol ``z``
    and moving to hidden state ``h2`` when the chain sits in hidden state
    ``h``; each ``transition[h]`` sums to one, and the alphabet size is its
    middle axis.  ``initial`` is the hidden state law before the first
    emission.  The model sees a prefix only through its hidden-state
    posterior, which is what the collapsed betting engine needs of a binary
    alternative.
    """

    def __init__(self, initial, transition, description: str = ""):
        initial = np.asarray(initial, dtype=float)
        transition = np.asarray(transition, dtype=float)
        if initial.ndim != 1:
            raise ValueError("initial hidden-state law must be a vector")
        H = initial.size
        if transition.ndim != 3 or transition.shape[::2] != (H, H):
            raise ValueError(
                f"transition tensor must have shape ({H}, m, {H}), got {transition.shape}"
            )
        super().__init__(transition.shape[1])
        check_laws("initial hidden-state law", initial[None, :])
        check_laws("transition", transition.reshape(H, -1))
        self.initial = initial
        self.transition = transition
        self._emit = transition.sum(axis=2)  # _emit[h, z]: P(emit z | hidden state h)
        self.description = description or "hidden-state model"

    def start(self) -> np.ndarray:
        return self.initial

    # np.add.reduce is the reduction ndarray.sum runs, without its Python
    # wrapper: the same bits, at a fifth less cost per scalar step
    def advance(self, state: np.ndarray, z: int) -> np.ndarray:
        state = state @ self.transition[:, int(z), :]
        total = float(np.add.reduce(state))
        if total <= 0.0:
            raise ValueError("prefix has probability zero under this model")
        return state / total

    def probs(self, state: np.ndarray) -> np.ndarray:
        pp = state @ self._emit
        return pp / np.add.reduce(pp)

    # The batched step is advance/probs on a (rows, H) array, exact up to
    # rounding: S.sum(axis=1) rounds as state.sum() does (einsum or sums over
    # h do not), but S @ T.reshape(H, m * H) and S @ _emit are gemm where the
    # scalar path's products are gemv, which may round a sum over several
    # nonzero hidden states differently.  On random models a row differs in
    # the last bits (within 1e-12); on the shipped changepoint, Markov and
    # iid models every row the tests enumerate matches bit for bit.
    def advance_batch(self, states, symbols: np.ndarray) -> np.ndarray:
        S = np.asarray(states, dtype=float)
        H = self.initial.size
        step = (S @ self.transition.reshape(H, -1)).reshape(len(S), -1, H)
        S = step[np.arange(len(S)), np.asarray(symbols)]
        total = S.sum(axis=1)
        if (total <= 0.0).any():
            raise ValueError("prefix has probability zero under this model")
        return S / total[:, None]

    def probs_batch(self, states) -> np.ndarray:
        pp = np.asarray(states, dtype=float) @ self._emit
        return pp / pp.sum(axis=1)[:, None]

    def __repr__(self):
        return f"HiddenStateModel({self.description})"


def _bern(z: int, theta: float) -> float:
    return theta if z == 1 else 1.0 - theta


def changepoint_model(pi0: float, pi1: float, rho: float) -> HiddenStateModel:
    """Single-changepoint binary alternative.

    Symbols are Bernoulli(pi0) before an unobserved change time and
    Bernoulli(pi1) after it; the change arrives with per-step hazard ``rho``
    (a geometric prior), and may land before the first symbol.  ``rho = 0``
    degenerates to iid Bernoulli(pi0), ``rho = 1`` to iid Bernoulli(pi1).
    """
    pi0 = _validate_prob("pi0", pi0)
    pi1 = _validate_prob("pi1", pi1)
    rho = _validate_prob("rho", rho)
    T = np.zeros((2, 2, 2))
    for z in (0, 1):
        T[0, z, 0] = (1.0 - rho) * _bern(z, pi0)
        T[0, z, 1] = rho * _bern(z, pi1)
        T[1, z, 1] = _bern(z, pi1)
    return HiddenStateModel([1.0, 0.0], T, f"changepoint(pi0={pi0}, pi1={pi1}, rho={rho})")


def markov_model(p01: float, p10: float, init1: float = 0.5) -> HiddenStateModel:
    """First-order binary Markov chain.

    ``p01`` is the probability of a 1 after a 0, ``p10`` of a 0 after a 1;
    the first symbol is Bernoulli(init1).  Hidden state 2 is the pre-start
    state, states 0 and 1 mirror the last emitted symbol.
    """
    p01 = _validate_prob("p01", p01)
    p10 = _validate_prob("p10", p10)
    init1 = _validate_prob("init1", init1)
    T = np.zeros((3, 2, 3))
    T[2, 1, 1] = init1
    T[2, 0, 0] = 1.0 - init1
    T[0, 1, 1] = p01
    T[0, 0, 0] = 1.0 - p01
    T[1, 0, 0] = p10
    T[1, 1, 1] = 1.0 - p10
    return HiddenStateModel([0.0, 0.0, 1.0], T, f"markov(p01={p01}, p10={p10}, init1={init1})")


def iid_model(probs) -> HiddenStateModel:
    """IID categorical alternative: the one-state hidden-state model."""
    probs = np.asarray(probs, dtype=float)
    return HiddenStateModel([1.0], probs[None, :, None], f"iid(probs={probs.tolist()})")


def _prefix_count(m: int, depth: int) -> int:
    """Number of prefixes shorter than ``depth``: the rows of a ``depth``-level table."""
    return sum(m**k for k in range(depth))


class TableModel(AlternativeModel):
    """Explicit conditional table for every prefix up to a depth.

    Rows are stored level-major and indexed by the base-m code of the prefix,
    then one uniform row, which every prefix at or beyond the table depth
    gets, keeping the model horizon-free.  The forward state is the index of
    the prefix's row and ``_child[row, z]`` the row after one more symbol,
    so a step is one lookup and a batched step one fancy-indexing call.  A
    subclass may fill ``_rows`` and ``_child`` with any other state table,
    as :class:`PointMassModel` does.
    """

    def __init__(self, alphabet_size: int, rows: np.ndarray, depth: int):
        super().__init__(alphabet_size)
        depth = integer(depth, "depth")
        if depth < 1:
            raise ValueError("table depth must be at least 1")
        m = self.alphabet_size
        count = _prefix_count(m, depth)
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (count, m):
            raise ValueError(f"expected {count} rows of width {m}, got {rows.shape}")
        check_laws("conditional", rows)
        self.depth = depth
        self._rows = np.vstack([rows, np.full(m, 1.0 / m)])
        self._rows.setflags(write=False)
        # row r's child by z is row m * r + 1 + z; the last level's children,
        # and the uniform row's, are the uniform row
        self._child = np.arange(count + 1)[:, None] * m + 1 + np.arange(m)
        self._child[_prefix_count(m, depth - 1):] = count

    def start(self) -> int:
        return 0

    def advance(self, state: int, z: int) -> int:
        return int(self._child[state, int(z)])

    def probs(self, state: int) -> np.ndarray:
        return self._rows[state]

    def advance_batch(self, states, symbols: np.ndarray) -> np.ndarray:
        return self._child[np.asarray(states), np.asarray(symbols)]

    def probs_batch(self, states) -> np.ndarray:
        return self._rows[np.asarray(states)]

    @classmethod
    def from_json(cls, path) -> "TableModel":
        """Load a table from JSON: ``{"alphabet_size": m, "conditionals":
        {"": [...], "0": [...], "0,1": [...], ...}}``.

        Prefix keys are comma-separated symbol codes, checked by
        :func:`symbol_list`; missing prefixes get the uniform conditional.
        """
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        m = integer(payload["alphabet_size"], "alphabet_size")
        parsed = {}
        for key, probs in payload.get("conditionals", {}).items():
            prefix = tuple(symbol_list(key.split(",") if key else [], m,
                                       f"conditionals[{key!r}] symbols must be in range({m})"))
            probs = np.asarray(probs, dtype=float)
            if probs.shape != (m,):
                raise ValueError(
                    f"conditionals[{key!r}] must be a list of {m} probabilities, "
                    f"got shape {probs.shape}"
                )
            parsed[prefix] = probs
        depth = max((len(p) for p in parsed), default=0) + 1
        rows = np.full((_prefix_count(m, depth), m), 1.0 / m)
        for prefix, probs in parsed.items():
            row = 0  # the prefix's row, folded as the table's advance does
            for z in prefix:
                row = row * m + 1 + z
            rows[row] = probs
        return TableModel(m, rows, depth)


class PointMassModel(TableModel):
    """Point mass on one fixed sequence (extended by repeating its last symbol).

    A state table of L states: state i emits ``sequence[i]`` with certainty
    and moves to ``min(i + 1, L - 1)``, so the forward state is the position,
    capped at L - 1.  The law after a prefix that disagrees with the sequence
    is moot: such candidates carry zero weight and are never extended.
    """

    def __init__(self, sequence, alphabet_size: int = 2):
        AlternativeModel.__init__(self, alphabet_size)
        m = self.alphabet_size
        seq = symbol_list(sequence, m, f"point-mass symbols must be in range({m})")
        if not seq:
            raise ValueError("point-mass sequence must be non-empty")
        self.sequence = tuple(seq)
        self._rows = np.eye(m)[seq]
        self._rows.setflags(write=False)
        position = np.minimum(np.arange(1, len(seq) + 1), len(seq) - 1)
        self._child = np.repeat(position[:, None], m, axis=1)
