"""Independent reference engine (the PostgreSQL/Oracle stand-in of Section 4).

``Engine(schema, dialect)`` optimizes by default (pushdown, hash joins,
cached subquery probes).  Which tier runs a plan follows from plan-cache
admission alone — there are no tier knobs — and all three tiers share
the same plans and are digest-gated bit-identical:

* ``Engine(schema, dialect, optimize=False)`` — the paper's naive
  product-then-filter evaluation, the reference baseline;
* interpreted — optimized single-use plans (``plan_cache_size=0``, the
  campaign shape), and the reference compiled execution is gated against;
* closure-compiled (:mod:`repro.engine.compile`) — optimized plans
  admitted to the plan cache, lowered once and executed many times.
"""

from .binding import bind_plan, reset_plan
from .compile import compile_plan, compile_predicate
from .engine import DIALECT_ORACLE, DIALECT_POSTGRES, Engine
from .optimizer import optimize_plan
from .planner import CompiledQuery, Planner

__all__ = [
    "Engine",
    "Planner",
    "CompiledQuery",
    "optimize_plan",
    "compile_plan",
    "compile_predicate",
    "bind_plan",
    "reset_plan",
    "DIALECT_POSTGRES",
    "DIALECT_ORACLE",
]
