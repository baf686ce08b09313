"""``python -m repro.service`` — run a live server on real sockets."""

from __future__ import annotations

import argparse
import asyncio

from repro.faults.harness import default_plan
from repro.service.admission import AdmissionConfig
from repro.service.runtime import ServiceConfig, ServiceRuntime


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Continuous-query server on a line-JSON TCP transport.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=4710)
    parser.add_argument("--http-port", type=int, default=4711)
    parser.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="seconds between evaluation cycles (0 = tick-driven only)",
    )
    parser.add_argument("--grid", type=int, default=64)
    parser.add_argument(
        "--pipeline",
        default="columnar",
        help="engine pipeline: columnar (production) or per-object (reference)",
    )
    parser.add_argument("--max-sessions", type=int, default=1024)
    parser.add_argument("--max-clients", type=int, default=200_000)
    parser.add_argument("--max-backlog", type=int, default=65_536)
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="attach the differential consistency oracle to every client",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="install the default fault plan with this seed",
    )
    args = parser.parse_args(argv)

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        cycle_interval=args.interval,
        grid_size=args.grid,
        pipeline=args.pipeline,
        admission=AdmissionConfig(
            max_sessions=args.max_sessions,
            max_clients=args.max_clients,
            max_backlog=args.max_backlog,
        ),
        oracle=args.oracle,
        fault_plan=(
            default_plan(args.chaos_seed)
            if args.chaos_seed is not None
            else None
        ),
    )
    runtime = ServiceRuntime(config)

    async def _serve() -> None:
        task = asyncio.ensure_future(runtime.serve())
        while runtime.tcp_address is None and not task.done():
            await asyncio.sleep(0.01)
        if runtime.tcp_address is not None:
            print(
                f"repro.service listening on "
                f"{runtime.tcp_address[0]}:{runtime.tcp_address[1]} "
                f"(http {runtime.http_address[0]}:{runtime.http_address[1]})",
                flush=True,
            )
        await task

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
