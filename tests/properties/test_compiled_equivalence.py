"""Differential property tests for compiled (closure-generating) execution.

The paper's methodology, aimed at the compilation layer: on ≥500 random
query/database pairs per dialect variant — the second-generation
set-op/subquery-tilted generator mix — the closure-compiled engine (the
default: plans are compiled at plan-cache admission), the interpreted
engine (``plan_cache_size=0``: single-use plans are never lowered) and the
naive engine (``optimize=False``, always interpreted) must produce the
same bag (columns, rows, multiplicities) or the same error class.  Compilation is a pure lowering
of the same physical plan, so unlike the optimizer rewrites it has *no*
error-order latitude: outcomes must match even where plans raise.

A hot-plan-cache battery then re-runs a prefix of the workload through
one compiled engine twice more (plan cache and build-side cache hot, so
every plan executes through closures compiled at cache admission and
build sides restored from the content-keyed cache) and demands
bit-identical outcomes.
"""

import random
from dataclasses import replace

import pytest

from repro.core import validation_schema
from repro.engine import DIALECT_ORACLE, DIALECT_POSTGRES, Engine
from repro.generator import (
    DataFillerConfig,
    PAPER_CONFIG,
    QueryGenerator,
    fill_database,
)
from repro.validation.compare import capture

SCHEMA = validation_schema()
TRIALS = 500
DATA = DataFillerConfig(max_rows=5)

#: PAPER_CONFIG tilted toward the constructs the compiler specializes:
#: set operations, multi-table FROMs, correlated subqueries.
COMPILED_MIX = replace(
    PAPER_CONFIG,
    setop_probability=0.45,
    from_subquery_probability=0.35,
    where_subquery_probability=0.35,
    correlation_probability=0.5,
)

DIALECTS = [DIALECT_POSTGRES, DIALECT_ORACLE]


def _pair(seed):
    rng = random.Random(seed)
    query = QueryGenerator(SCHEMA, COMPILED_MIX, rng).generate()
    db = fill_database(SCHEMA, rng, DATA)
    return query, db


@pytest.mark.parametrize("dialect", DIALECTS)
def test_compiled_interpreted_and_naive_coincide(dialect):
    engines = {
        "compiled": Engine(SCHEMA, dialect),
        "interpreted": Engine(SCHEMA, dialect, plan_cache_size=0),
        "naive": Engine(SCHEMA, dialect, optimize=False),
    }
    failures = []
    for seed in range(TRIALS):
        query, db = _pair(seed)
        outcomes = {
            name: capture(lambda e=engine: e.execute(query, db))
            for name, engine in engines.items()
        }
        baseline = outcomes["interpreted"]
        for name, outcome in outcomes.items():
            # Same error class and same bag: the generated workload is
            # type-checked over int-only data, so no data-dependent runtime
            # error order is in play and full error equality must hold.
            if outcome.error != baseline.error or not outcome.agrees_with(baseline):
                failures.append(f"seed {seed}: {name} differs from interpreted")
    assert not failures, "; ".join(failures[:5])


@pytest.mark.parametrize("dialect", DIALECTS)
def test_hot_plan_cache_compiled_outcomes_are_bit_identical(dialect):
    """Passes 2 and 3 execute nothing but cache-admitted compiled plans
    (pass 2 also harvests build sides pass 3 restores); outcomes must
    match the cold pass exactly."""
    engine = Engine(SCHEMA, dialect)
    pairs = [_pair(seed) for seed in range(40)]
    cold = [capture(lambda: engine.execute(q, db)) for q, db in pairs]
    [capture(lambda: engine.execute(q, db)) for q, db in pairs]
    hot = [capture(lambda: engine.execute(q, db)) for q, db in pairs]
    assert engine.cache_info()["hits"] >= 2 * len(pairs)
    assert engine.build_cache_info()["hits"] > 0
    for seed, (a, b) in enumerate(zip(cold, hot)):
        assert a.error == b.error and a.agrees_with(b), f"seed {seed} changed"
