"""The ``campaign`` and ``live-sqlite`` workloads: serial trial loops.

Both drive the program's own campaign backends one seed at a time, exactly
as the serial (``jobs=1``) path of ``repro.campaigns.run_campaign`` does:
``backend.run_trial(seed)`` then ``Aggregator.add(record)``.  The loop is
written out here only so that it can stop at a deadline and time each
trial.

* ``campaign`` — the paper's Section 4 experiment: the postgres-variant
  validation backend, ``PAPER_CONFIG`` queries over 6-row tables, each
  query run through the formal semantics and through the engine.
* ``live-sqlite`` — the live-SQLite differential backend over the library
  scenario at 3·10⁴ rows, where the oracle is not run.

The trial seeds come from ``--seed``.  The library database is the same
for every seed (scenario seed 0): the synthesizer's Zipf fan-out makes
per-trial cost depend strongly on the data seed (up to 1.5x in trials/s
on the same queries), so a per-seed database would measure the data, not
the program.

Untraced, the timed window is cut into chunks with a machine-speed
calibration between them (:mod:`speed`); times are reported at the
reference speed.

Output checks: no trial may be a mismatch (which includes unclassified
live divergences), and the ``outcome_digest`` of the first
``CHECK_TRIALS`` seeds must equal the value pinned for the seed in
``pins.json`` when one is pinned.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List, Optional

import common
import speed
from spans import Tracer, layer_times

#: Trials between deadline checks (and, traced, between pass switches).
CHUNK = {"campaign": 250, "live-sqlite": 20}
#: Leading trials whose outcome digest is checked against pins.json.
CHECK_TRIALS = {"campaign": 1000, "live-sqlite": 60}
#: Traced chunks whose work counts are reported (a fixed seed set, so the
#: counts repeat exactly from run to run).
COUNT_CHUNKS = 4
#: Untimed trials run first, so lazy imports and first-call costs are paid.
WARMUP_TRIALS = {"campaign": 50, "live-sqlite": 5}
LIVE_ROWS = 30_000
LIVE_SCENARIO_SEED = 0
#: Capacity of the aggregator for the trials after the checked prefix.
MAX_TRIALS = 1_000_000


def trial_base(seed: int) -> int:
    """First trial seed of a run; runs of different seeds never overlap."""
    return seed * 10_000_000 + 1_000_000


def build(workload: str):
    """The program-side state a run needs before its first trial."""
    if workload == "campaign":
        from repro.campaigns import ValidationBackend
        from repro.validation.runner import ValidationRunner

        return ValidationBackend(ValidationRunner(variant="postgres"))
    from repro.campaigns import LiveSqliteBackend
    from repro.ingest.demo import library_scenario
    from repro.validation.live import LiveSqliteRunner

    scenario = library_scenario(total_rows=LIVE_ROWS, seed=LIVE_SCENARIO_SEED)
    return LiveSqliteBackend(LiveSqliteRunner(scenario))


class _TracedCursor:
    def __init__(self, cursor, tracer: Tracer):
        self._cursor = cursor
        self._tracer = tracer

    @property
    def description(self):
        return self._cursor.description

    def fetchall(self):
        handle = self._tracer.begin("sqlite3.execute")
        try:
            return self._cursor.fetchall()
        finally:
            self._tracer.end(handle)


class _TracedConnection:
    """Stands in for the runner's ``sqlite3.Connection`` while traced
    (the C type's methods cannot be replaced in place)."""

    def __init__(self, conn, tracer: Tracer):
        self._conn = conn
        self._tracer = tracer

    def execute(self, sql, *args):
        handle = self._tracer.begin("sqlite3.execute")
        try:
            cursor = self._conn.execute(sql, *args)
        finally:
            self._tracer.end(handle)
        return _TracedCursor(cursor, self._tracer)


def install_engine_spans(tracer: Tracer) -> None:
    """Spans around ``Engine.execute`` and the calls it makes per layer."""
    from repro.engine import engine as engine_module
    from repro.engine.planner import Planner

    tracer.wrap(
        engine_module.Engine,
        "execute",
        "engine.execute",
        after=lambda table: {"engine.result_rows": len(table)},
    )
    tracer.wrap(Planner, "compile", "engine.planner.compile")
    tracer.wrap(engine_module, "optimize_plan", "engine.optimizer.optimize")
    tracer.wrap(engine_module, "compile_plan", "engine.lower")
    tracer.wrap(engine_module, "compile_columnar", "engine.lower")
    tracer.wrap(engine_module, "bind_plan", "engine.binding.bind")
    tracer.wrap(engine_module, "unbind_plan", "engine.binding.bind")


def install(tracer: Tracer, workload: str, backend) -> None:
    from repro.campaigns import Aggregator

    install_engine_spans(tracer)
    tracer.wrap(Aggregator, "add", "campaigns.aggregate")
    if workload == "campaign":
        from repro.generator.queries import QueryGenerator
        from repro.semantics import SqlSemantics
        from repro.validation import runner as runner_module
        from repro.validation.compare import Outcome

        tracer.wrap(QueryGenerator, "generate", "generator.generate")
        tracer.wrap(runner_module, "fill_database", "generator.datafiller.fill")
        tracer.wrap(runner_module, "check_query", "sql.typecheck.check")
        tracer.wrap(SqlSemantics, "run", "semantics.run")
        tracer.count(SqlSemantics, "evaluate", "semantics.evaluate.calls")
        tracer.wrap(Outcome, "agrees_with", "validation.compare")
    else:
        from repro.ingest.generator import ScenarioGenerator
        from repro.validation import live as live_module

        tracer.wrap(ScenarioGenerator, "generate", "ingest.generator.generate")
        tracer.wrap(live_module, "check_query", "sql.typecheck.check")
        tracer.wrap(live_module, "translate_query", "validation.live.translate")
        tracer.wrap(live_module, "bags_match", "validation.live.bags_match")
        tracer.patch(
            backend.runner, "conn", _TracedConnection(backend.runner.conn, tracer)
        )


def load_pin(workload: str, seed: int) -> Optional[str]:
    """The pinned digest of the seed's first CHECK_TRIALS trials, if any."""
    pins = json.loads((common.HERE / "pins.json").read_text())
    if pins["check_trials"][workload] != CHECK_TRIALS[workload]:
        raise common.BenchError("pins.json was made for other check sizes; run pin.py")
    return pins["outcome_digest"][workload].get(str(seed))


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_s: Optional[float], prov: Dict[str, object]) -> int:
    """One timed run; ``setup_s`` is measured by the caller (untraced only)."""
    from repro.campaigns import CODE_CLASSIFIED, CODE_MISMATCH, Aggregator

    backend = build(workload)
    label = backend.label
    base = trial_base(seed)
    chunk = CHUNK[workload]
    check_n = CHECK_TRIALS[workload]
    for index in range(WARMUP_TRIALS[workload]):
        backend.run_trial(base - 1 - index)

    def aggregators():
        return (Aggregator(label, base, check_n),
                Aggregator(label, base + check_n, MAX_TRIALS))

    # The untraced pass feeds the checked aggregators; in a traced run the
    # same trials run again traced (alternating which pass goes first), so
    # trace_overhead compares equal work and the spans cover every trial.
    passes = {False: aggregators(), True: aggregators()}
    tracer = Tracer()
    now = time.perf_counter_ns
    track = speed.SpeedTrack()
    # Untraced chunks: wall time and per-trial latencies of each.
    chunk_ns: List[int] = []
    latency_ns: List[List[int]] = []
    elapsed_ns = {False: 0, True: 0}
    codes: Dict[int, int] = {}
    counts: Dict[str, int] = {}
    classified_counted = 0

    def run_chunk(first: int, traced: bool) -> None:
        checked, rest = passes[traced]
        if traced:
            install(tracer, workload, backend)
        latencies: List[int] = []
        started = now()
        for trial_seed in range(first, first + chunk):
            op_start = now()
            handle = tracer.begin_op() if traced else None
            record = backend.run_trial(trial_seed)
            (checked if trial_seed < base + check_n else rest).add(record)
            if traced:
                tracer.end(handle)
            else:
                latencies.append(now() - op_start)
                codes[record["code"]] = codes.get(record["code"], 0) + 1
        elapsed = now() - started
        elapsed_ns[traced] += elapsed
        if traced:
            tracer.restore()
        elif not trace:
            chunk_ns.append(elapsed)
            latency_ns.append(latencies)
            track.sample()

    if not trace:
        track.sample()
    deadline = now() + int(seconds * 1e9)
    first = base
    while True:
        order = (False,)
        if trace:
            order = (False, True) if (first - base) // chunk % 2 == 0 else (True, False)
        for traced in order:
            run_chunk(first, traced)
        first += chunk
        if first - base == COUNT_CHUNKS * chunk:
            # Work counts over a fixed trial set repeat exactly run to run.
            counts = dict(tracer.counts)
            classified_counted = codes.get(CODE_CLASSIFIED, 0)
        if now() >= deadline and first - base >= max(check_n, COUNT_CHUNKS * chunk):
            break

    checked, rest = passes[False]
    checked_result = checked.finalize()
    attempted = first - base
    failed = codes.get(CODE_MISMATCH, 0)
    pinned = load_pin(workload, seed)
    digest = checked_result.outcome_digest
    digest_ok = pinned is None or pinned == digest
    correct = failed == 0 and checked_result.completed == check_n and digest_ok
    notes = [
        f"check: outcome_digest[first {check_n} trials]={digest} pinned="
        + ("none" if pinned is None else "match" if digest_ok else f"MISMATCH {pinned}"),
        f"check: mismatches={failed} classified={codes.get(CODE_CLASSIFIED, 0)} "
        f"error_rate={failed / attempted:.6g} ({failed}/{attempted})",
    ]
    for mismatch in (checked_result.mismatches + rest.finalize().mismatches)[:5]:
        notes.append(f"MISMATCH seed {mismatch['seed']}: {mismatch['detail']}")

    if not trace:
        slowness = [track.slowness(i) for i in range(len(chunk_ns))]
        latency_ms = [
            ns / 1e6 / factor
            for latencies, factor in zip(latency_ns, slowness)
            for ns in latencies
        ]
        window_s = speed.at_reference([ns / 1e9 for ns in chunk_ns], slowness)
        metrics = {
            "ops_per_s": attempted / window_s,
            "latency_p50_ms": statistics.median(latency_ms),
            "latency_p99_ms": common.percentile(latency_ms, 0.99),
            "setup_s": setup_s,
            "peak_rss_mb": common.self_peak_rss_mb(),
        }
        raw_ms = [ns / 1e6 for latencies in latency_ns for ns in latencies]
        notes.append(
            f"samples: latency n={len(latency_ms)} "
            f"({len(latency_ms) - int(0.99 * len(latency_ms))} beyond p99)"
        )
        notes.append(speed.report_line(track, {
            "ops_per_s": attempted / (elapsed_ns[False] / 1e9),
            "latency_p50_ms": statistics.median(raw_ms),
            "latency_p99_ms": common.percentile(raw_ms, 0.99),
        }))
    else:
        summary = layer_times(tracer.spans, "op")
        counted = COUNT_CHUNKS * chunk
        extra = {
            "semantics.evaluate.calls": counts.get("semantics.evaluate.calls", 0) / counted,
            "engine.result_rows": counts.get("engine.result_rows", 0) / counted,
            "validation.live.classified": classified_counted,
            "trace_overhead": elapsed_ns[True] / elapsed_ns[False] - 1.0,
            "error_rate": failed / attempted,
        }
        extra.update(common.engine_cache_counts([backend.runner.engine.cache_info()]))
        metrics = common.layer_metrics(summary, extra)
        notes.append(common.accounting_line(summary))
        notes.append(
            f"trace: {attempted} trials run untraced in {elapsed_ns[False] / 1e9:.3f} s "
            f"and traced in {elapsed_ns[True] / 1e9:.3f} s; work counts over the "
            f"first {counted} trials"
        )
        path = dump_trace(tracer, workload, seed, {"provenance": prov})
        notes.append(f"trace: spans written to {path}")
    common.emit(workload, seed, trace, correct, attempted, failed, metrics, notes, prov)
    return 0 if correct else 1


def dump_trace(tracer: Tracer, workload: str, seed: int, extra: dict) -> str:
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = common.OUT_DIR / f"trace-{workload}-{seed}.jsonl"
    tracer.dump(str(path), extra)
    return str(path.relative_to(common.ROOT))
