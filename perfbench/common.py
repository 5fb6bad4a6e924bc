"""Shared pieces of the benchmark: paths, metric tables, provenance, output."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Trace files go under the build-output directory, which git ignores.
OUT_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("campaign", "live-sqlite", "service-zipf")


def metric_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them: the
    per-layer metrics for a traced run, else the end-to-end ones.  Every
    per-layer metric is reported for every workload (0 where the workload
    never enters that layer)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


#: Span name -> per-layer metric reporting the span's inclusive time per op.
SPAN_METRICS = {
    "semantics.run": "semantics.run_us",
    "generator.generate": "generator.generate_us",
    "generator.datafiller.fill": "generator.datafiller.fill_us",
    "sql.typecheck.check": "sql.typecheck.check_us",
    "validation.compare": "validation.compare_us",
    "campaigns.aggregate": "campaigns.aggregate_us",
    "engine.execute": "engine.execute_us",
    "engine.planner.compile": "engine.planner.compile_us",
    "engine.optimizer.optimize": "engine.optimizer.optimize_us",
    "engine.lower": "engine.lower_us",
    "engine.binding.bind": "engine.binding.bind_us",
    "ingest.generator.generate": "ingest.generator.generate_us",
    "validation.live.translate": "validation.live.translate_us",
    "sqlite3.execute": "sqlite3.execute_us",
    "validation.live.bags_match": "validation.live.bags_match_us",
    "service.registry.bind": "service.registry.bind_us",
}


class BenchError(Exception):
    """The benchmark cannot run here (e.g. the program's sources are missing)."""


def require_program() -> None:
    """Put ``src`` on the import path, or fail when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (unsorted is fine)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def self_peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def provenance() -> Dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def layer_metrics(summary: Dict[str, object], counts: Dict[str, float]) -> Dict[str, float]:
    """Per-op layer metrics from a :func:`spans.layer_times` summary.

    ``counts`` supplies the metrics that are not span times (cache
    counters, per-op work counts, ...); every other metric defaults to 0.
    """
    ops = summary["ops"] or 1
    values = {name: 0.0 for name in metric_units(trace=True)}
    for span, metric in SPAN_METRICS.items():
        values[metric] = summary["inclusive"].get(span, 0) / ops / 1e3
    values["engine.run_self_us"] = summary["self"].get("engine.execute", 0) / ops / 1e3
    values["unattributed_us"] = (summary["op_ns"] - summary["top_ns"]) / ops / 1e3
    values.update(counts)
    return values


def engine_cache_counts(infos: List[dict]) -> Dict[str, float]:
    """Cache metrics summed over the ``Engine.cache_info()`` of each engine."""

    def ratio(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    plan = {k: sum(info[k] for info in infos) for k in ("hits", "misses", "evictions")}
    build = {k: sum(info["build"][k] for info in infos) for k in ("hits", "misses", "evictions")}
    return {
        "engine.plan_cache.hit_ratio": ratio(plan["hits"], plan["misses"]),
        "engine.plan_cache.evictions": plan["evictions"],
        "engine.build_cache.hit_ratio": ratio(build["hits"], build["misses"]),
        "engine.build_cache.evictions": build["evictions"],
    }


def accounting_line(summary: Dict[str, object]) -> str:
    """``op = sum of layer self times + unattributed``, per op in µs."""
    ops = summary["ops"] or 1
    unattributed = (summary["op_ns"] - summary["top_ns"]) / ops / 1e3
    return (
        f"accounting: op_us={summary['op_ns'] / ops / 1e3:.3f}"
        f" = layer_self_us={sum(summary['self'].values()) / ops / 1e3:.3f}"
        f" + unattributed_us={unattributed:.3f} over {summary['ops']} ops"
    )


def emit(
    workload: str,
    seed: int,
    trace: bool,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, float],
    notes: List[str],
    prov_start: Dict[str, object],
) -> None:
    """Print the human-readable report, then the one-line JSON result."""
    units = metric_units(trace)
    prov = dict(prov_start)
    prov["loadavg_start"] = prov.pop("loadavg")
    prov["loadavg_end"] = list(os.getloadavg())
    print(f"perfbench workload={workload} seed={seed} trace={int(trace)}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    print(f"ops: attempted={attempted} failed={failed} correct={str(correct).lower()}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
