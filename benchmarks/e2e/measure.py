"""Small measuring tools shared by the drivers: memory from ``/proc``,
the sample-count-aware tail percentile, spreads, the environment block."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from dataclasses import asdict
from time import perf_counter

import config

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a percentile for it to mean anything.
MIN_BEYOND = 10


def _proc_status_kb(pid: int | str, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def rss_kb(pid: int | str = "self") -> int:
    """Resident set size now, in KiB."""
    return _proc_status_kb(pid, "VmRSS")


def hwm_kb(pid: int | str = "self") -> int:
    """Peak resident set size so far, in KiB."""
    return _proc_status_kb(pid, "VmHWM")


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile (no interpolation: a reported tail is a
    round that happened)."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ``MIN_BEYOND`` of ``n``
    samples beyond it — p75 for 40 samples, p90 for 150, none for 10."""
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND:
            best = p
    return best


def rounds(warmup: int, min_rounds: int, seconds: float):
    """Yield ``timed`` for each round to run: ``False`` for the warm-up
    rounds, then ``True`` until ``min_rounds`` have run *and* ``seconds``
    have passed since the first timed one began."""
    for _ in range(warmup):
        yield False
    started = perf_counter()
    done = 0
    while done < min_rounds or perf_counter() - started < seconds:
        yield True
        done += 1


def window_stats(samples: list[float]) -> dict:
    """Median, supported tail and interquartile range of the timed rounds."""
    p = tail_percentile(len(samples))
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {
        "p50_s": statistics.median(samples),
        "tail_percentile": p,
        "tail_s": None if p is None else percentile(samples, p),
        "iqr_s": q3 - q1,
    }


def quartile_spread(values: list[float]) -> dict:
    """Median, quartiles and (Q3 - Q1) / median of repeated runs."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def environment(seed: int, shape: config.Shape) -> dict:
    """What ran, on what: stamped into every output."""
    numpy = config.require_numpy()

    def git(*args: str) -> str | None:
        try:
            return subprocess.run(
                ["git", *args],
                cwd=config.REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None  # the driver's checkout is not a git repository

    status = git("status", "--porcelain")
    load1 = os.getloadavg()[0]
    if load1 > 0.5:
        print(
            f"warning: 1-min load average {load1:.2f} > 0.5 — timings "
            "from a busy box are noise",
            file=sys.stderr,
        )
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "load1_at_start": load1,
        "gc_policy": config.GC_POLICY,
        "pipeline": config.PIPELINE,
        "seed": seed,
        "workload": asdict(shape),
    }
