"""The mutation runner of tests/mutants.py, kept from rotting.

The full audit (`python tests/mutants.py`) runs every mutant; here two cheap
ones go through the same runner, and every listed line must still occur once.
"""

from __future__ import annotations

import shutil
import time

import mutants

CHEAP = ("decode_type_error", "usage_exit_code")
BUDGET_S = 3.0


def test_every_mutant_applies_to_exactly_one_line(tmp_path):
    for mutant in mutants.MUTANTS:
        src = tmp_path / mutant.name
        shutil.copytree(mutants.ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        mutants.apply(mutant, src)
        assert mutant.tests, mutant.name


def test_two_cheap_mutants_are_killed_by_their_named_tests():
    start = time.perf_counter()
    for name in CHEAP:
        killed, summary = mutants.run(mutants.BY_NAME[name])
        assert killed, (name, summary)
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"two mutant runs took {elapsed:.2f}s, budget {BUDGET_S}s"
