"""``repro serve`` with the benchmark's layer spans installed.

Usage::

    python3 -u perfbench/serve_traced.py SPANS_FILE [repro serve options]

Installs the same engine wrappers the in-process workloads use, plus a
span around each ``/execute`` request (``QueryService._route``, tagged
with the client's port so the load generator can match its round trips)
and around ``PreparedStatement.bind``, then runs ``repro serve`` with the
given options.  When the server exits (SIGTERM drains it), the spans and
every tenant engine's ``cache_info()`` are written to SPANS_FILE.
"""

from __future__ import annotations

import functools
import sys

import common
from spans import Tracer


def install(tracer: Tracer, services: list) -> None:
    import trials
    from repro.service import registry, server

    trials.install_engine_spans(tracer)
    tracer.wrap(registry.PreparedStatement, "bind", "service.registry.bind")

    route = server.QueryService._route

    @functools.wraps(route)
    async def traced_route(self, method, path, headers, body, writer):
        if path != "/execute":
            return await route(self, method, path, headers, body, writer)
        peer = writer.get_extra_info("peername")
        handle = tracer.begin_op("service.server", tag=peer[1] if peer else None)
        try:
            return await route(self, method, path, headers, body, writer)
        finally:
            tracer.end(handle)

    tracer.patch(server.QueryService, "_route", traced_route)

    init = server.QueryService.__init__

    @functools.wraps(init)
    def remembering_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        services.append(self)

    tracer.patch(server.QueryService, "__init__", remembering_init)


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    common.require_program()
    from repro import cli

    tracer = Tracer()
    services: list = []
    install(tracer, services)
    status = cli.main(["serve", *serve_args])
    caches = [
        engine.cache_info()
        for service in services
        for tenant in service.registry.tenants.values()
        for engine in tenant.engines.values()
    ]
    tracer.dump(spans_path, {"engine_caches": caches})
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
