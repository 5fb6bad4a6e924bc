"""The ``service-zipf`` workload: ``repro serve`` under realistic key cardinality.

The server runs in its own process with the defaults of ``repro serve``
(plan cache 256, build cache 128) and serves the library scenario at
5,000 rows, installed with ``/load``.  One load-generator process (this
one) drives two closed-loop keep-alive connections; each sends its next
request when the previous answer has been read.  A request executes one
of five prepared FK lookups, chosen uniformly, with ``$1`` = a parent key
drawn Zipf(1.1) over that key's full domain (rank r = the r-th smallest
key).  The five statements have 2,950 distinct bindings, ~11x the plan
cache, while the Zipf head fits in it: ``latency_p50_ms`` follows the
cache-hit path and ``latency_p99_ms`` the miss path.

On a 2-vCPU 2.1 GHz Xeon, the correlated EXISTS keyed by publisher costs
~40 ms on a plan-cache miss.  Keyed by book instead (``members``
correlated with ``loans``), a miss costs ~190 ms and such misses take ~90%
of the run, so a 30-second run holds only ~100 of them and its throughput
is a noisy count of them.

Output checks, after the timed window: every answer must be a complete
2xx stream, and each served result must equal SQLite's answer to the same
statement over the same rows, compared with the 3VL-aware bag comparison
``repro.validation.live.bags_match``.  The statements themselves are
anchored to the formal semantics: on the 64-row library scenario, every
binding of every statement evaluated by ``SqlSemantics`` must match
SQLite too (at 5,000 rows the oracle's Cartesian products make a 3-table
lookup far too slow for every run).

The database is the same for every seed (scenario seed 0, as for
``live-sqlite``); ``--seed`` drives the request sequences.

Untraced, the timed window is cut into segments of ``SEGMENT_S``; at each
boundary both connections finish their request in flight, the load
generator times the calibration loop of :mod:`speed`, and the
connections resume on the same sockets.  Times are reported at the
reference speed.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import random
import re
import signal
import sqlite3
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import common
import speed
from spans import layer_times

SERVICE_ROWS = 5_000
SCENARIO_SEED = 0
ANCHOR_ROWS = 64
ZIPF_S = 1.1
CONNECTIONS = 2
#: Requests of the single-connection replay that gives the cache counters.
REPLAY_REQUESTS = 1500
#: Fresh server set-ups per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Seconds of load between two calibrations in an untraced window.
SEGMENT_S = 0.5

#: (sql with $1, key table, key column).  1-, 2- and 3-table FK lookups
#: plus one correlated EXISTS.
STATEMENTS: Tuple[Tuple[str, str, str], ...] = (
    (
        "SELECT l.loan_id, l.member_id, l.due FROM loans AS l "
        "WHERE l.book_id = $1",
        "books", "book_id",
    ),
    (
        "SELECT b.book_id, b.title, a.name FROM books AS b, authors AS a "
        "WHERE b.author_id = a.author_id AND a.author_id = $1",
        "authors", "author_id",
    ),
    (
        "SELECT r.branch_city, s.copies FROM stock AS s, branches AS r "
        "WHERE s.branch_id = r.branch_id AND s.book_id = $1",
        "books", "book_id",
    ),
    (
        "SELECT b.title, p.pub_name FROM loans AS l, books AS b, publishers AS p "
        "WHERE l.book_id = b.book_id AND b.publisher_id = p.publisher_id "
        "AND l.member_id = $1",
        "members", "member_id",
    ),
    (
        "SELECT a.author_id, a.name FROM authors AS a WHERE EXISTS "
        "(SELECT b.book_id FROM books AS b "
        "WHERE b.author_id = a.author_id AND b.publisher_id = $1)",
        "publishers", "publisher_id",
    ),
)


def scenario(total_rows: int = SERVICE_ROWS):
    from repro.ingest.demo import library_scenario

    return library_scenario(total_rows=total_rows, seed=SCENARIO_SEED)


def key_domains(scen) -> List[List[int]]:
    """Sorted distinct non-NULL keys of each statement's parent column."""
    from repro.core.values import Null

    domains = []
    for _sql, table, column in STATEMENTS:
        position = scen.schema.attributes(table).index(column)
        keys = {
            row[position]
            for row in scen.database.table(table).bag
            if not isinstance(row[position], Null)
        }
        domains.append(sorted(keys))
    return domains


def request_stream(seed: int, connection: int, domains: List[List[int]]):
    """Endless (statement index, key) pairs for one connection."""
    rng = random.Random(f"service-zipf:{seed}:{connection}")
    cumulative = []
    for domain in domains:
        total, sums = 0.0, []
        for rank in range(1, len(domain) + 1):
            total += 1.0 / rank ** ZIPF_S
            sums.append(total)
        cumulative.append(sums)
    while True:
        index = rng.randrange(len(STATEMENTS))
        sums = cumulative[index]
        rank = bisect.bisect_left(sums, rng.random() * sums[-1])
        yield index, domains[index][min(rank, len(sums) - 1)]


# -- the server process ---------------------------------------------------------


class Server:
    """``repro serve --port 0`` (optionally under the span launcher)."""

    def __init__(self, spans_path: Optional[str] = None):
        if spans_path is None:
            command = [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"]
        else:
            command = [sys.executable, "-u", str(common.HERE / "serve_traced.py"),
                       spans_path, "--port", "0"]
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=common.program_env(),
            cwd=str(common.ROOT),
        )
        line = self.proc.stdout.readline()
        match = re.search(r"(http://\S+)", line)
        if match is None:
            self.stop()
            raise common.BenchError(f"server did not start: {line!r}")
        self.url = match.group(1)

    def peak_rss_mb(self) -> float:
        return common.proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


async def _prepare(url: str, scen) -> List[str]:
    """``/load`` the scenario and ``/prepare`` the statements."""
    from repro.service import ServiceClient, row_to_json

    schema = {t: list(scen.schema.attributes(t)) for t in scen.schema.table_names}
    tables = {
        t: [row_to_json(row) for row in scen.database.table(t).bag]
        for t in scen.schema.table_names
    }
    async with ServiceClient(url) as client:
        await client.load(schema, tables)
        return [await client.prepare(sql) for sql, _t, _c in STATEMENTS]


def boot(scen, spans_path: Optional[str] = None) -> Tuple[Server, List[str], float]:
    """Start a server, load and prepare; returns it with the set-up seconds."""
    started = time.perf_counter()
    server = Server(spans_path)
    try:
        ids = asyncio.run(_prepare(server.url, scen))
    except BaseException:
        server.stop()
        raise
    return server, ids, time.perf_counter() - started


# -- load generation ------------------------------------------------------------


class Served:
    """One answered (or failed) request, in send order per connection."""

    __slots__ = ("statement", "key", "rt_ns", "port", "labels", "records", "error",
                 "segment")

    def __init__(self, statement, key, rt_ns, port, labels=None, records=None, error=None,
                 segment=0):
        self.statement = statement
        self.key = key
        self.rt_ns = rt_ns
        self.port = port
        self.labels = labels
        self.records = records
        self.error = error
        self.segment = segment


async def _drive(url: str, ids: List[str], streams, seconds: Optional[float],
                 requests: Optional[int], track: Optional[speed.SpeedTrack]
                 ) -> Tuple[List[Served], List[float]]:
    """Closed loops, one per stream, until the deadline (or ``requests``
    in total).  With ``track``, the window is cut into ``SEGMENT_S``
    segments with a calibration before each.  Returns the served requests
    and each segment's wall time in seconds."""
    from repro.service import ServiceClient, ServiceError

    now = time.perf_counter_ns
    budget = [requests]
    served: List[Served] = []
    segments: List[float] = []
    clients = [ServiceClient(url) for _ in streams]

    async def loop(client, stream, until: Optional[int]) -> None:
        segment = len(segments)
        while True:
            if until is not None and now() >= until:
                return
            if budget[0] is not None:
                if budget[0] <= 0:
                    return
                budget[0] -= 1
            index, key = next(stream)
            await client.connect()
            # The client's local port names the connection on the server
            # side (the traced server tags its spans with the peer port).
            port = client._writer.get_extra_info("sockname")[1]
            op_start = now()
            try:
                result = await client.execute(ids[index], [key])
            except (ServiceError, ConnectionError, OSError) as exc:
                served.append(Served(index, key, now() - op_start, port, error=str(exc),
                                     segment=segment))
                await client.close()
                continue
            served.append(Served(index, key, now() - op_start, port,
                                 result.labels, result.records(), segment=segment))

    try:
        end = now() + int(seconds * 1e9) if seconds is not None else None
        if track is not None:
            track.sample()
        while True:
            started = now()
            until = end
            if end is not None and track is not None:
                until = min(end, started + int(SEGMENT_S * 1e9))
            await asyncio.gather(*(loop(c, s, until) for c, s in zip(clients, streams)))
            segments.append((now() - started) / 1e9)
            if track is not None:
                track.sample()
            if until is None or until >= end:
                break
    finally:
        for client in clients:
            await client.close()
    return served, segments


def drive(url, ids, streams, seconds=None, requests=None, track=None):
    return asyncio.run(_drive(url, ids, streams, seconds, requests, track))


async def _stats(url: str) -> dict:
    from repro.service import ServiceClient

    async with ServiceClient(url) as client:
        return await client.stats()


# -- output checks ----------------------------------------------------------------


def _sqlite_sql(sql: str) -> str:
    return sql.replace("$1", "?")


def check_served(scen, served: List[Served]) -> List[str]:
    """One problem per failed or wrong answer (empty when all are right)."""
    from repro.core.bag import Bag
    from repro.core.table import Table
    from repro.validation.live import bags_match, load_scenario

    problems = []
    conn = sqlite3.connect(":memory:")
    try:
        load_scenario(conn, scen)
        expected: Dict[Tuple[int, int], Tuple[int, list]] = {}
        for item in served:
            if item.error is not None:
                problems.append(f"statement {item.statement} key {item.key}: {item.error}")
                continue
            answer = expected.get((item.statement, item.key))
            if answer is None:
                cursor = conn.execute(_sqlite_sql(STATEMENTS[item.statement][0]), (item.key,))
                answer = expected[(item.statement, item.key)] = (
                    len(cursor.description), cursor.fetchall())
            arity, rows = answer
            table = Table(tuple(item.labels), Bag(item.records))
            if len(item.labels) != arity or not bags_match(table, rows):
                problems.append(
                    f"statement {item.statement} key {item.key}: served "
                    f"{len(item.records)} row(s), SQLite {len(rows)}")
    finally:
        conn.close()
    return problems


def check_anchor() -> List[str]:
    """The statements mean the same under the formal semantics and SQLite,
    for every binding, on the small library scenario."""
    from repro.semantics import SqlSemantics
    from repro.sql import annotate
    from repro.validation.live import bags_match, load_scenario

    small = scenario(ANCHOR_ROWS)
    semantics = SqlSemantics(small.schema)
    problems = []
    conn = sqlite3.connect(":memory:")
    try:
        load_scenario(conn, small)
        for index, keys in enumerate(key_domains(small)):
            sql = STATEMENTS[index][0]
            for key in keys:
                query = annotate(sql.replace("$1", str(key)), small.schema)
                table = semantics.run(query, small.database)
                rows = conn.execute(_sqlite_sql(sql), (key,)).fetchall()
                if not bags_match(table, rows):
                    problems.append(f"anchor: statement {index} key {key} differs")
    finally:
        conn.close()
    return problems


# -- the run ----------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, prov: Dict[str, object]) -> int:
    scen = scenario()
    domains = key_domains(scen)

    def streams():
        return [request_stream(seed, c, domains) for c in range(CONNECTIONS)]

    notes: List[str] = []
    served_all: List[Served] = []
    if not trace:
        setup_track = speed.SpeedTrack()
        setup_track.sample()
        setups = []
        for _ in range(SETUP_PROBES - 1):
            server, _ids, elapsed = boot(scen)
            server.stop()
            setups.append(elapsed)
            setup_track.sample()
        server, ids, elapsed = boot(scen)
        setups.append(elapsed)
        setup_track.sample()
        track = speed.SpeedTrack()
        try:
            served, segments = drive(server.url, ids, streams(), seconds=seconds,
                                     track=track)
            stats = asyncio.run(_stats(server.url))
            peak_rss = server.peak_rss_mb()
        finally:
            server.stop()
        served_all += served
        slowness = [track.slowness(i) for i in range(len(segments))]
        ok = [item for item in served if item.error is None]
        latency_ms = [item.rt_ns / 1e6 / slowness[item.segment] for item in ok]
        raw_ms = [item.rt_ns / 1e6 for item in ok]
        metrics = {
            "ops_per_s": len(ok) / speed.at_reference(segments, slowness),
            "latency_p50_ms": statistics.median(latency_ms),
            "latency_p99_ms": common.percentile(latency_ms, 0.99),
            "setup_s": statistics.median(
                s / setup_track.slowness(i) for i, s in enumerate(setups)),
            "peak_rss_mb": peak_rss,
        }
        notes.append(
            f"samples: latency n={len(ok)} ({len(ok) - int(0.99 * len(ok))} beyond p99); "
            f"raw setups {', '.join(f'{s:.3f}' for s in setups)} s")
        notes.append(speed.report_line(track, {
            "ops_per_s": len(ok) / sum(segments),
            "latency_p50_ms": statistics.median(raw_ms),
            "latency_p99_ms": common.percentile(raw_ms, 0.99),
        }))
    else:
        metrics, served = traced_run(scen, streams, seconds, seed, notes)
        served_all += served

    wrong = check_served(scen, served_all)
    anchor = check_anchor()
    problems = wrong + anchor
    attempted = len(served_all)
    failed = len(wrong)
    if not trace:
        notes.append(f"server: {json.dumps(stats.get('degradation', {}), sort_keys=True)}")
    notes.append(
        f"check: {attempted} served results vs SQLite, "
        f"{sum(len(d) for d in key_domains(scenario(ANCHOR_ROWS)))} anchor bindings vs "
        f"the formal semantics: {len(problems)} problem(s); "
        f"error_rate={failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    notes += problems[:5]
    if trace:
        metrics["error_rate"] = failed / max(attempted, 1)
    correct = not problems and attempted > 0
    common.emit("service-zipf", seed, trace, correct, max(attempted, 1), failed,
                metrics, notes, prov)
    return 0 if correct else 1


def traced_run(scen, streams, seconds, seed, notes):
    """Untraced then traced two-connection windows of ``seconds / 2`` each,
    then a single-connection replay for exact cache counters."""
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    half = seconds / 2.0

    server, ids, _ = boot(scen)
    try:
        untraced, segments = drive(server.url, ids, streams(), seconds=half)
        untraced_s = sum(segments)
    finally:
        server.stop()

    spans_path = common.OUT_DIR / f"trace-service-zipf-{seed}.jsonl"
    server, ids, _ = boot(scen, str(spans_path))
    try:
        traced, segments = drive(server.url, ids, streams(), seconds=half)
        traced_s = sum(segments)
        stats = asyncio.run(_stats(server.url))
    finally:
        server.stop()
    header, spans = _read_spans(spans_path)

    replay_path = common.OUT_DIR / f"replay-service-zipf-{seed}.jsonl"
    server, ids, _ = boot(scen, str(replay_path))
    try:
        # One connection, the two connections' sequences interleaved: a
        # fixed request order, so the cache counters repeat exactly.
        a, b = streams()
        order = (pair for both in zip(a, b) for pair in both)
        replayed, _ = drive(server.url, ids, [order], requests=REPLAY_REQUESTS)
    finally:
        server.stop()
    replay_header, _ = _read_spans(replay_path)

    summary = layer_times(spans, "service.server")
    by_port: Dict[int, List[int]] = {}
    for span in spans:
        if span[0] == "service.server" and span[2]:
            by_port.setdefault(span[5], []).append(span[2] - span[1])
    ok = [item for item in traced if item.error is None]
    matched = wait_ns = unmatched_ns = 0
    for port in {item.port for item in ok}:
        client = [item.rt_ns for item in ok if item.port == port]
        server_side = by_port.get(port, [])
        for rt, span_ns in zip(client, server_side):
            matched += 1
            wait_ns += rt - span_ns
        unmatched_ns += sum(client[len(server_side):])
    ops = max(matched, 1)
    counts = header["counts"]
    degradation = stats.get("degradation", {})
    extra = {
        "engine.result_rows": counts.get("engine.result_rows", 0) / max(summary["ops"], 1),
        "service.queue_wait_us": wait_ns / ops / 1e3,
        "service.server_self_us": (summary["op_ns"] - summary["top_ns"]) / ops / 1e3,
        "service.tier_fallbacks": degradation.get("tier_fallbacks", 0),
        "service.aborted_streams": degradation.get("aborted_streams", 0),
        "unattributed_us": unmatched_ns / ops / 1e3,
    }
    extra.update(common.engine_cache_counts(replay_header["engine_caches"]))
    untraced_rate = sum(1 for i in untraced if i.error is None) / untraced_s
    traced_rate = len(ok) / traced_s
    extra["trace_overhead"] = untraced_rate / traced_rate - 1.0
    metrics = common.layer_metrics(summary, extra)
    two_conn = header["engine_caches"]
    two_hits = sum(c["hits"] for c in two_conn)
    two_misses = sum(c["misses"] for c in two_conn)
    round_trip_us = sum(item.rt_ns for item in ok) / ops / 1e3
    layer_self_us = (sum(summary["self"].values()) + summary["op_ns"] - summary["top_ns"]
                     + wait_ns) / ops / 1e3
    notes.append(
        f"accounting: op_us={round_trip_us:.3f} = layer_self_us={layer_self_us:.3f}"
        f" (queue wait, server self, bind, engine) + unattributed_us="
        f"{extra['unattributed_us']:.3f} over {matched} matched requests")
    notes.append(
        f"trace: untraced {untraced_rate:.2f} req/s over {untraced_s:.2f} s, traced "
        f"{traced_rate:.2f} req/s over {traced_s:.2f} s; two-connection plan cache "
        f"hits={two_hits} misses={two_misses} (varies with interleaving); replay of "
        f"{len(replayed)} requests on one connection gives the cache counters")
    notes.append(f"trace: spans written to {spans_path.relative_to(common.ROOT)}")
    return metrics, untraced + traced + replayed


def _read_spans(path):
    with open(path, encoding="utf-8") as source:
        header = json.loads(source.readline())
        return header, [json.loads(line) for line in source]
