"""Chaos suite CLI: ``python -m repro.faults``.

Runs :func:`repro.faults.run_chaos` for every seed, prints a per-run line, writes an optional JSON report, and exits
non-zero if any run diverged or failed to converge — the shape CI
wants.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.faults.harness import default_plan, run_chaos


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Run the seeded chaos suite with the consistency "
        "oracle enabled.",
    )
    parser.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=[1, 2, 3, 4, 5],
        help="fault-plan seeds (default: 1..5)",
    )
    parser.add_argument(
        "--cycles", type=int, default=30, help="hostile cycles per run"
    )
    parser.add_argument(
        "--objects", type=int, default=40, help="moving objects per run"
    )
    parser.add_argument(
        "--report", default=None, help="write a JSON report to this path"
    )
    parser.add_argument(
        "--flight-dir",
        default=None,
        help="directory for per-failure flight-recorder JSONL dumps "
        "(CHAOS_FLIGHT_<seed>.jsonl)",
    )
    args = parser.parse_args(argv)

    reports = []
    failures = 0
    for seed in args.seeds:
        report = run_chaos(
            default_plan(seed), cycles=args.cycles, n_objects=args.objects
        )
        reports.append(report)
        status = "ok" if report.ok else "FAIL"
        print(
            f"[{status}] seed={seed} "
            f"faults={sum(report.faults.values())} "
            f"divergences={len(report.divergences)} "
            f"converged={report.converged} "
            f"wakeup_rounds={report.wakeup_rounds}"
        )
        for divergence in report.divergences:
            print(f"    {divergence}")
        if not report.ok:
            failures += 1
            if args.flight_dir:
                flight_dir = Path(args.flight_dir)
                flight_dir.mkdir(parents=True, exist_ok=True)
                dump = flight_dir / f"CHAOS_FLIGHT_{seed}.jsonl"
                with dump.open("w", encoding="utf-8") as handle:
                    for event in report.flight_events:
                        handle.write(json.dumps(event, sort_keys=True) + "\n")
                print(f"    flight recorder dump: {dump}")

    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "runs": [r.to_dict() for r in reports],
                    "failures": failures,
                },
                handle,
                indent=2,
            )
        print(f"report written to {args.report}")

    print(
        f"{len(reports) - failures}/{len(reports)} chaos runs clean "
        f"({failures} failures)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
