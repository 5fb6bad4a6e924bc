"""The closure-generating compiler (:mod:`repro.engine.compile`).

Pins the contracts the compiler must keep:

* a compiled predicate tree is one function that agrees with the
  interpreted ``PredNode`` chain on every 3VL input — including *which*
  errors are raised, and when;
* constant folding is exact: total comparisons fold, raising ones do not,
  and the 3VL connectives absorb constants only along the interpreted
  short-circuit order;
* compiled plans round-trip through ``bind_plan``/``unbind_plan``: cached
  compiled plans pin no database rows, per-execution memos reset, and the
  build-side cache keeps sharing structures;
* compilation hooks in at plan-cache admission only — single-use plans
  (``plan_cache_size=0``) stay interpreted.
"""

import pytest

from repro.core import NULL, Database, Schema
from repro.core.errors import CompileError
from repro.engine import Engine, compile_plan, compile_predicate
from repro.engine.binding import iter_plan_nodes
from repro.engine.compile import compile_row
from repro.engine.expressions import (
    AndPred,
    ColumnRef,
    ComparePred,
    ConstPred,
    IsNullPred,
    LiteralExpr,
    NotPred,
    OrPred,
)
from repro.engine.operators import FilterOp, StaticScan, TableScan
from repro.sql import annotate

SCHEMA = Schema({"R": ("A", "B"), "S": ("A",)})


def make_db(rows_r, rows_s):
    return Database(SCHEMA, {"R": rows_r, "S": rows_s})


def run(pred, row, outers=()):
    return pred(row, outers)


# -- predicate compilation ----------------------------------------------------


PRED_CASES = [
    ComparePred("=", ColumnRef(0, 0), ColumnRef(0, 1)),
    ComparePred("<>", ColumnRef(0, 0), LiteralExpr(3)),
    ComparePred("<", ColumnRef(0, 0), ColumnRef(0, 1)),
    ComparePred(">=", ColumnRef(0, 1), LiteralExpr(2)),
    IsNullPred(ColumnRef(0, 0)),
    IsNullPred(ColumnRef(0, 1), negated=True),
    AndPred(
        ComparePred("=", ColumnRef(0, 0), LiteralExpr(1)),
        IsNullPred(ColumnRef(0, 1), negated=True),
    ),
    OrPred(
        ComparePred("=", ColumnRef(0, 0), LiteralExpr(1)),
        ComparePred("=", ColumnRef(0, 1), LiteralExpr(2)),
    ),
    NotPred(ComparePred("=", ColumnRef(0, 0), ColumnRef(0, 1))),
    AndPred(
        OrPred(
            IsNullPred(ColumnRef(0, 0)),
            ComparePred("<", ColumnRef(0, 0), ColumnRef(0, 1)),
        ),
        NotPred(IsNullPred(ColumnRef(0, 1))),
    ),
]

ROWS = [
    (1, 1),
    (1, 2),
    (2, 1),
    (None, 1),
    (1, None),
    (None, None),
    ("a", "b"),
    ("a", "a"),
    ("1", 1),
]


@pytest.mark.parametrize("pred", PRED_CASES, ids=lambda p: type(p).__name__)
def test_compiled_predicate_matches_interpreted_on_3vl_grid(pred):
    compiled = compile_predicate(pred)
    for row in ROWS:
        try:
            expected = run(pred, row)
            raised = None
        except CompileError as exc:
            expected, raised = None, exc
        if raised is None:
            assert run(compiled, row) == expected, row
        else:
            with pytest.raises(CompileError) as caught:
                run(compiled, row)
            assert str(caught.value) == str(raised), row


def test_compiled_predicate_matches_interpreted_error_messages():
    pred = ComparePred("<", ColumnRef(0, 0), ColumnRef(0, 1))
    compiled = compile_predicate(pred)
    with pytest.raises(CompileError) as interpreted_err:
        run(pred, ("a", 1))
    with pytest.raises(CompileError) as compiled_err:
        run(compiled, ("a", 1))
    assert str(compiled_err.value) == str(interpreted_err.value)


def test_outer_references_compile_to_stack_lookups():
    pred = ComparePred("=", ColumnRef(0, 0), ColumnRef(2, 1))
    compiled = compile_predicate(pred)
    outers = ((7, 8), (9, 10))
    # depth 2 = the outermost of the two enclosing rows.
    assert run(compiled, (8,), outers) is run(pred, (8,), outers) is True
    assert run(compiled, (10,), outers) is False


def test_total_comparisons_over_literals_fold():
    for pred, expected in [
        (ComparePred("=", LiteralExpr(1), LiteralExpr(1)), True),
        (ComparePred("=", LiteralExpr(1), LiteralExpr(2)), False),
        (ComparePred("=", LiteralExpr(1), LiteralExpr("1")), False),
        (ComparePred("<>", LiteralExpr(1), LiteralExpr(2)), True),
        (ComparePred("=", LiteralExpr(None), LiteralExpr(1)), None),
        (IsNullPred(LiteralExpr(None)), True),
        (IsNullPred(LiteralExpr(3), negated=True), True),
    ]:
        compiled = compile_predicate(pred)
        assert isinstance(compiled, ConstPred)
        assert compiled.value is expected


def test_raising_comparisons_never_fold():
    """``1 < 'a'`` raises per evaluation in the interpreter; folding it at
    compile time would move (or suppress) the error."""
    pred = ComparePred("<", LiteralExpr(1), LiteralExpr("a"))
    compiled = compile_predicate(pred)  # must not raise here
    assert not isinstance(compiled, ConstPred)
    with pytest.raises(CompileError):
        run(compiled, ())


def test_connective_absorption_is_shortcircuit_exact():
    raising = ComparePred("<", LiteralExpr(1), LiteralExpr("a"))
    # AND with a left FALSE never evaluates its right side.
    folded = compile_predicate(AndPred(ConstPred(False), raising))
    assert isinstance(folded, ConstPred) and folded.value is False
    # OR with a left TRUE never evaluates its right side.
    folded = compile_predicate(OrPred(ConstPred(True), raising))
    assert isinstance(folded, ConstPred) and folded.value is True
    # ... but a right-side constant cannot drop a raising left side.
    compiled = compile_predicate(AndPred(raising, ConstPred(False)))
    with pytest.raises(CompileError):
        run(compiled, ())
    # AND TRUE / OR FALSE are exact identities.
    keep = ComparePred("=", ColumnRef(0, 0), LiteralExpr(1))
    for combined in (AndPred(keep, ConstPred(True)), OrPred(keep, ConstPred(False))):
        compiled = compile_predicate(combined)
        assert run(compiled, (1,)) is True
        assert run(compiled, (2,)) is False
        assert run(compiled, (None,)) is None


def test_compile_row_builds_projection_tuples():
    row_fn = compile_row((ColumnRef(0, 1), LiteralExpr("x"), ColumnRef(1, 0)))
    assert row_fn((1, 2), ((9,),)) == (2, "x", 9)
    single = compile_row((ColumnRef(0, 0),))
    assert single((5,), ()) == (5,)


def test_filter_with_false_predicate_still_drains_its_child():
    """The interpreted FilterOp iterates its child even when no row can
    pass; a child that raises mid-iteration must raise compiled too."""

    def boom(row, outers):
        raise CompileError("boom")

    plan = FilterOp(
        FilterOp(StaticScan([(1,), (2,)], arity=1), boom), ConstPred(False)
    )
    with pytest.raises(CompileError):
        list(plan.iter_rows(()))
    compiled = compile_plan(plan)
    with pytest.raises(CompileError):
        list(compiled(()))


# -- engine integration -------------------------------------------------------


def test_compiled_engine_matches_interpreted_on_handwritten_queries():
    queries = [
        "SELECT R.A, R.B FROM R WHERE R.A = 1 OR R.B IS NULL",
        "SELECT R.A FROM R, S WHERE R.A = S.A AND R.B > 1",
        "SELECT DISTINCT R.B FROM R WHERE R.A IN (SELECT S.A FROM S)",
        "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S WHERE S.A = R.B)",
        "SELECT R.A FROM R UNION SELECT S.A FROM S",
        "SELECT R.A FROM R EXCEPT ALL SELECT S.A FROM S",
        "SELECT R.A FROM R WHERE NOT (R.A <= 2 AND R.B <> 4)",
    ]
    db = make_db([(1, 2), (2, NULL), (NULL, 4), (3, 3)], [(1,), (3,), (NULL,)])
    compiled_engine = Engine(SCHEMA, "postgres")
    interpreted_engine = Engine(SCHEMA, "postgres", plan_cache_size=0)
    for text in queries:
        query = annotate(text, SCHEMA)
        compiled = compiled_engine.execute(query, db)
        interpreted = interpreted_engine.execute(query, db)
        assert compiled.same_as(interpreted), text


def test_compiled_plan_unbinds_and_rebinds():
    """A cached compiled plan must pin no rows between executions, and the
    compiled closures must see each execution's freshly bound data."""
    engine = Engine(SCHEMA, "postgres")
    query = annotate("SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S)", SCHEMA)
    db1 = make_db([(1, 2), (3, 4)], [(1,)])
    db2 = make_db([(1, 2), (3, 4)], [(3,)])
    assert [r for r in engine.execute(query, db1).bag] == [(1,)]
    assert [r for r in engine.execute(query, db2).bag] == [(3,)]
    plan = engine._plan(query).plan
    assert engine._plan(query).run is not None
    for node, _pred in iter_plan_nodes(plan):
        if isinstance(node, TableScan):
            assert node.data is None  # unbound: no database rows pinned
    # Executing the unbound compiled plan fails exactly like interpreted.
    with pytest.raises(RuntimeError, match="without a bound database"):
        list(engine._plan(query).run(()))


def test_compiled_engine_uses_build_side_cache():
    engine = Engine(SCHEMA, "postgres")
    query = annotate("SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S)", SCHEMA)
    db = make_db([(1, 2), (3, 4)], [(1,), (3,)])
    for _ in range(3):
        assert len(engine.execute(query, db)) == 2
    assert engine.build_cache_info()["hits"] > 0


def test_compilation_hooks_in_at_plan_cache_admission_only():
    """The one tier rule: an optimized plan admitted to the plan cache is
    closure-compiled; single-use (``plan_cache_size=0``) and naive
    (``optimize=False``) plans stay interpreted.  No knob selects a tier."""
    query = annotate("SELECT R.A FROM R", SCHEMA)
    cached_engine = Engine(SCHEMA, "postgres")
    assert cached_engine._plan(query).run is not None
    single_use = Engine(SCHEMA, "postgres", plan_cache_size=0)
    assert single_use._plan(query).run is None
    naive = Engine(SCHEMA, "postgres", optimize=False)
    assert naive._plan(query).run is None
    for knob in ("compiled", "vectorized"):
        with pytest.raises(TypeError):
            Engine(SCHEMA, "postgres", **{knob: True})
    # All three still agree, of course.
    db = make_db([(1, 2)], [(1,)])
    results = [
        engine.execute(query, db)
        for engine in (cached_engine, single_use, naive)
    ]
    assert results[0].same_as(results[1]) and results[0].same_as(results[2])
