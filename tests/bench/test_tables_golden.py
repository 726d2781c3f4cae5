"""Golden-table regression tests: Tables 1-4 pinned to checked-in JSON.

The paper's deliverables are the numbers in Tables 1-4, so counter-store
and vectorization refactors must not shift them *at all*: the fixtures
store exact float64 values (JSON round-trips shortest-repr floats
losslessly) and the assertions are exact equality, not approx.

The ``tiny``-scale pin runs on every tier-1 invocation (~3s).  The
``small``-scale pin regenerates the full paper-scale-shaped sweep
(~70s), so it only runs when ``REPRO_GOLDEN=small`` is set -- the CI
fast-bench smoke job does exactly that.

Regenerate a fixture after an *intentional* numbers change with::

    PYTHONPATH=src python -m repro.bench tables --scale tiny --json \
        tests/bench/fixtures/tables_golden_tiny.json

(the ``tables`` target emits exactly the four pinned tables; ``all``
would add a ``fig2`` key these tests reject).
"""

import json
import os

import pytest

from repro.bench.tables import TABLE_BUILDERS

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def load_fixture(scale: str) -> dict:
    path = os.path.join(FIXTURE_DIR, f"tables_golden_{scale}.json")
    with open(path) as fh:
        return json.load(fh)


def assert_tables_equal(actual: dict, expected: dict, scale: str) -> None:
    assert set(actual) == set(expected)
    for table in TABLE_BUILDERS:
        exp_rows = expected[table]
        act_rows = json.loads(json.dumps(actual[table]))  # normalize types
        assert len(act_rows) == len(exp_rows), f"{table}@{scale}: row count changed"
        for i, (act, exp) in enumerate(zip(act_rows, exp_rows)):
            assert act == exp, (
                f"{table}@{scale} row {i} ({exp.get('config', exp.get('column'))!r}) "
                f"drifted:\n  expected {exp}\n  got      {act}"
            )


def tables_rows(scale: str) -> dict:
    """Rows of Tables 1-4 keyed by table name, at one scale."""
    return {name: build(scale)[0] for name, build in TABLE_BUILDERS.items()}


def test_tables_golden_tiny():
    assert_tables_equal(tables_rows("tiny"), load_fixture("tiny"), "tiny")


@pytest.mark.skipif(
    os.environ.get("REPRO_GOLDEN") != "small",
    reason="full small-scale golden sweep (~70s); set REPRO_GOLDEN=small to run",
)
def test_tables_golden_small():
    assert_tables_equal(tables_rows("small"), load_fixture("small"), "small")


def test_fixture_files_are_complete():
    """Both fixtures pin every table with the expected row counts."""
    for scale in ("tiny", "small"):
        fix = load_fixture(scale)
        assert set(fix) == set(TABLE_BUILDERS)
        assert [len(fix[t]) for t in ("table1", "table2", "table3", "table4")] == [
            9, 6, 9, 9,
        ]
