"""Mutant catalogue: one-line faults that the test suite must catch.

Each entry names a fault, the module under ``src/ctmkit`` it goes in, the
exact line it replaces (indentation included), that line's replacement, and
the test files that must fail with it in place.  A line that occurs more
than once is named by ``occurrence = (k, count)``: the k-th of exactly
``count`` occurrences, from the top of the module.  An entry with an
``equivalent`` reason is a mutant no test can tell from the real code; its
line is still looked up, but its tests are not run.

Run from anywhere in a checkout:

    python tests/mutants.py

Each mutant is written into a fresh copy of ``src/`` and its test files run
against that copy with ``pytest -x``.  The run exits 1 if a mutant survives,
if its tests fail to run at all, or if an ``old`` line is not found exactly
as often as its entry says: a stale entry is updated, never skipped.  ``tests/test_mutants.py``
checks the lines alone, in the package tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple
    equivalent: str = ""
    occurrence: tuple = (1, 1)


MUTANTS = (
    Mutant("collapsed survivors off by one", "bayes_kelly.py",
           "        split = n - above + 1",
           "        split = n - above",
           ("tests/test_bayes_kelly.py",)),
    Mutant("collapsed posterior not renormalised", "bayes_kelly.py",
           "            new_W /= mass",
           "            new_W /= 1.0",
           ("tests/test_bayes_kelly.py",)),
    Mutant("grid-point p drops the realized candidate", "bayes_kelly.py",
           "        above = below if below / n == p else below + 1",
           "        above = below + 1",
           ("tests/test_bayes_kelly.py",)),
    Mutant("explicit engine carries the parent's state past the root", "bayes_kelly.py",
           "                         model.advance_batch(parents, syms))",
           "                         parents if hset.step else model.advance_batch(parents, syms))",
           ("tests/test_differential.py",)),
    Mutant("explicit posterior keeps the wrong side of the upper boundary", "bayes_kelly.py",
           "        alive = (n_star <= below) & (n_upper >= above)",
           "        alive = (n_star <= below) & (n_upper > above)",
           ("tests/test_differential.py",)),
    Mutant("extend keeps the structural-zero children", "bayes_kelly.py",
           "    kept = np.flatnonzero(child_w > 0.0)",
           "    kept = np.flatnonzero(child_w >= 0.0)",
           ("tests/test_differential.py",)),
    Mutant("hidden-state advance_batch takes its step by einsum", "models.py",
           "        step = (S @ self.transition.reshape(H, -1)).reshape(len(S), -1, H)",
           "        step = np.einsum('rh,hk->rk', S, self.transition.reshape(H, -1))"
           ".reshape(len(S), -1, H)",
           ("tests/test_differential.py",)),
    Mutant("hidden-state advance_batch not normalised", "models.py",
           "        return S / total[:, None]",
           "        return S",
           ("tests/test_differential.py", "tests/test_models.py")),
    Mutant("integer truncates fractions", "models.py",
           "                not isinstance(value, str) and int(value) != value):",
           "                False):",
           ("tests/test_betting.py", "tests/test_models.py")),
    Mutant("symbol_list without its floor test", "models.py",
           "    bad = ~((values >= 0.0) & (values < alphabet_size) & (values == np.floor(values)))",
           "    bad = ~((values >= 0.0) & (values < alphabet_size))",
           ("tests/test_eprocess.py", "tests/test_models.py")),
    Mutant("n_star counted with <=", "conformal.py",
           "    n_star = int(np.count_nonzero(s < last))",
           "    n_star = int(np.count_nonzero(s <= last))",
           ("tests/test_conformal.py",)),
    Mutant("NaN law passes the law check", "models.py",
           "    ok = (laws >= 0.0).all(axis=1) & (np.abs(laws.sum(axis=1) - 1.0) <= PROB_SUM_TOL)",
           "    ok = ~((laws < 0.0).any(axis=1) | (np.abs(laws.sum(axis=1) - 1.0) > PROB_SUM_TOL))",
           ("tests/test_models.py",)),
    Mutant("bayes_kelly spec makes a constant bettor", "harness.py",
           "        return partial(bayes_kelly_bettor, model, measure)",
           "        return ConstantBettor",
           ("tests/test_harness.py",)),
    Mutant("prefix-tree walk stores a child at its parent's level", "models.py",
           "                levels[len(child)][child] = child_total",
           "                levels[len(prefix)][child] = child_total",
           ("tests/test_models.py",)),
    Mutant("categorical null skips the law check", "harness.py",
           '            check_laws("categorical", probs[None, :])',
           "            pass",
           ("tests/test_cli.py",)),
    Mutant("null's top symbol may equal the alphabet size", "harness.py",
           "    elif cfg.null_top >= m:",
           "    elif cfg.null_top > m:",
           ("tests/test_cli.py",)),
    Mutant("e-process blames dgp for every input", "harness.py",
           '        field = "alt" if model.alphabet_size != 2 else "null" if cfg.dgp == "null" '
           'else "dgp"',
           '        field = "dgp"',
           ("tests/test_cli.py",)),
    Mutant("CSV header written before the bettor-data check", "harness.py",
           "    _check_bettor_data(cfg)",
           '    (_out_dir(cfg) / "trajectory.csv").write_text(CSV_HEADER + "\\n"); '
           "_check_bettor_data(cfg)",
           ("tests/test_cli.py",),
           occurrence=(1, 2)),
    Mutant("CSV row swaps the n_star and n_upper cells", "harness.py",
           '            f"{rep},{n},{_fmt_obs(obs)},{_fmt(tau)},{s.n_star},{s.n_upper},'
           '{_fmt(s.p)},"',
           '            f"{rep},{n},{_fmt_obs(obs)},{_fmt(tau)},{s.n_upper},{s.n_star},'
           '{_fmt(s.p)},"',
           ("tests/test_cli.py",)),
    Mutant("cell tree reads the law memoised at the parent prefix", "oracle.py",
           "            probs = laws[prefix]",
           "            probs = laws.get(prefix[:-1], laws[prefix])",
           ("tests/test_oracle.py",)),
    Mutant("cell tree reads the rank counts memoised at the parent prefix", "oracle.py",
           "                    below, upto = ranks[prefix]",
           "                    below, upto = ranks.get(prefix[:-1], ranks[prefix])",
           ("tests/test_oracle.py",)),
    Mutant("rival cell path reads the next slot of its node", "oracle.py",
           "            path.append(offsets[history] + interval)",
           "            path.append(offsets[history] + (interval + 1) % (len(history) + 1))",
           ("tests/test_oracle.py",)),
    Mutant("rival node keyed by its last interval only", "oracle.py",
           "            history = cell.intervals[:d]",
           "            history = cell.intervals[d - 1:d]",
           ("tests/test_oracle.py",)),
    Mutant("rival scorer takes the one-pass sum without the nonpositive test", "oracle.py",
           "        if None not in node_logs:",
           "        if True:",
           ("tests/test_oracle.py",)),
    Mutant("rival one-pass sum charges zero-mass cells", "oracle.py",
           "                              if not cell.q_mass <= 0.0])",
           "                              if True])",
           ("tests/test_oracle.py",)),
    Mutant("e-variable grid drops its zero-probability mask", "oracle.py",
           "        keep = probs > 0.0",
           "        keep = probs >= 0.0",
           ("tests/test_oracle.py",)),
    Mutant("e-variable grid weighs each theta with the previous theta's weights", "oracle.py",
           "    for theta in thetas:",
           "    for theta in thetas[:1] + thetas[:-1]:",
           ("tests/test_oracle.py",),
           occurrence=(2, 2)),
    Mutant("state memo keys a state by its first entry only", "models.py",
           "            key = state.tobytes()",
           "            key = state[:1].tobytes()",
           ("tests/test_models.py",)),
    Mutant("state memo shares one child slot between both symbols", "models.py",
           "        child = node[2 + z]",
           "        child = node[2]",
           ("tests/test_models.py",)),
    Mutant("prefix-tree walk reads the parent's law at the child", "models.py",
           "                    walk(memo.child(node, z), child, child_total)",
           "                    walk(node, child, child_total)",
           ("tests/test_models.py",)),
    Mutant("collapsed grid cell 0 sums the newest-0 masses pairwise", "bayes_kelly.py",
           "        diff[0] = v[:, 0].cumsum()[n] + v[n, 1]",
           "        diff[0] = v[:, 0].sum() + v[n, 1]",
           ("tests/test_bayes_kelly.py",)),
    Mutant("cell tree sums its Q mass left to right", "oracle.py",
           "            q_mass = math.fsum(candidates.values())",
           "            q_mass = sum(candidates.values())",
           ("tests/test_oracle.py",),
           equivalent="moves only the last bits of q_mass, inside every oracle tolerance: "
                      "the whole package test suite passes with it"),
)


def line_index(mutant: Mutant, src: Path) -> int:
    """Index of the ``mutant.old`` line the entry names among the lines of its
    module under ``src``; LookupError unless the line occurs exactly as many
    times as ``mutant.occurrence`` says."""
    lines = (src / "ctmkit" / mutant.file).read_text(encoding="utf-8").split("\n")
    hits = [i for i, line in enumerate(lines) if line == mutant.old]
    k, count = mutant.occurrence
    if len(hits) != count:
        raise LookupError(f"{mutant.name}: old line found {len(hits)} times in {mutant.file}, "
                          f"expected {count}")
    return hits[k - 1]


def run(mutant: Mutant, src: Path) -> str:
    """Write ``mutant`` into the copy of ``src/`` at ``src`` and run its tests:
    "caught", "survived" or "error"."""
    path = src / "ctmkit" / mutant.file
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[line_index(mutant, src)] = mutant.new
    path.write_text("\n".join(lines), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    # pytest exits 1 when a test failed; anything else means the tests did not run
    return {0: "survived", 1: "caught"}.get(done.returncode, "error")


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, mutant in enumerate(MUTANTS):
            src = Path(tmp) / str(i)
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            start = time.perf_counter()
            try:
                if mutant.equivalent:
                    line_index(mutant, src)
                    outcome = "equivalent"
                else:
                    outcome = run(mutant, src)
            except LookupError:
                outcome = "stale"
            bad += outcome not in ("caught", "equivalent")
            print(f"{outcome:10} {time.perf_counter() - start:5.1f}s  {mutant.name}", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} not caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
