"""Shared benchmark fixtures.

Every table bench renders its paper-style table, prints it (visible with
``pytest -s``) and writes it under ``benchmarks/out/`` so the text
survives pytest's output capture; reference runs are recorded in
CHANGES.md and, for Tables 1-4, pinned by the golden fixtures under
``tests/bench/fixtures``.  Simulated times are deterministic, so
pytest-benchmark's wall times only measure the *simulation's* Python
cost.
"""

import os

import pytest

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


@pytest.fixture
def report():
    """report(name, text): print a rendered table and persist it."""

    def _report(name: str, text: str) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _report


def run_once(benchmark, fn):
    """Run a seconds-scale harness exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
