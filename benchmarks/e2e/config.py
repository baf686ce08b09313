"""What the benchmark pins: engine settings, workload shapes, run policy.

Everything a later PR might want to look up about *what ran* lives here,
so the drivers never hard-code a population or a pipeline name.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = HERE / "out"

#: The production-candidate evaluation path.  Passed on only while the
#: program still accepts it (see ``engine_kwargs`` / ``service_args``):
#: after the ROADMAP's pipeline collapse there is nothing to select.
PIPELINE = "columnar"
COLUMNAR_BACKEND = "numpy"
GRID_SIZE = 64

DEFAULT_SEED = 12
#: Builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A run that has not finished by then is broken, not slow.
HARD_TIMEOUT_S = 170.0
#: The cyclic collector is kept out of every measured window.  Sizing
#: runs with it on: in-process one gen-2 pass over the heap lands in some
#: rounds and not others; in the wire_fleet server a full collection ran
#: every other cycle (cycles alternated 0.55 s / 0.69 s), so the median
#: sat between two modes and moved 7% from run to run with nothing
#: changed.  Reference counting still frees everything acyclic.
GC_POLICY = (
    "in-process: gc.collect() before each window, disabled inside; "
    "server subprocess: gc.disable() at start"
)


@dataclass(frozen=True)
class Shape:
    """One workload's population and per-round traffic."""

    name: str
    transport: str  # "inproc" | "wire"
    clients: int
    #: Reporting objects.  On the wire object ``i`` is reported by client ``i``.
    objects: int
    range_queries: int
    knn_queries: int
    predictive_queries: int
    #: Share of objects that report each round.
    report_fraction: float
    #: Share of uncarried queries that move on their own each round.
    query_move_fraction: float
    #: Share of queries riding on a reporting object (they move when it reports).
    carried_fraction: float
    #: Stationary range owners acknowledge every Nth round (0 = never).
    commit_every: int
    warmup_rounds: int
    #: Timed rounds every run has, whatever ``--seconds`` says.  Counts,
    #: bytes and memory are taken over exactly these, so they repeat for
    #: a seed however fast the box is; later rounds only add timings.
    min_rounds: int

    @property
    def queries(self) -> int:
        return self.range_queries + self.knn_queries + self.predictive_queries

    def scaled(self, factor: float) -> "Shape":
        """The same traffic mix over ``factor`` times the population."""

        def cut(n: int) -> int:
            return max(1, round(n * factor))

        return replace(
            self,
            clients=cut(self.clients),
            objects=cut(self.objects),
            range_queries=cut(self.range_queries),
            knn_queries=cut(self.knn_queries),
            predictive_queries=cut(self.predictive_queries),
        )


# Populations are the issue's, cut to what 4 + 22 x 4 driver runs of one
# build-thrice-then-measure process each can afford on the 2-core box
# (see README "Sizing"); the mixes and per-round fractions are unchanged.
SHAPES: dict[str, Shape] = {
    shape.name: shape
    for shape in (
        Shape(
            name="bulk_churn",
            transport="inproc",
            clients=2_000,
            objects=20_000,
            range_queries=1_800,
            knn_queries=160,
            predictive_queries=40,
            report_fraction=1.0,
            query_move_fraction=0.0,
            carried_fraction=0.0,
            commit_every=0,
            warmup_rounds=2,
            min_rounds=10,
        ),
        Shape(
            name="sparse_mixed",
            transport="inproc",
            clients=2_000,
            objects=20_000,
            range_queries=1_800,
            knn_queries=160,
            predictive_queries=40,
            report_fraction=0.05,
            query_move_fraction=0.10,
            carried_fraction=0.0,
            commit_every=0,
            warmup_rounds=2,
            min_rounds=40,
        ),
        Shape(
            name="wire_fleet",
            transport="wire",
            clients=10_000,
            objects=10_000,
            range_queries=800,
            knn_queries=80,
            predictive_queries=40,
            report_fraction=1.0,
            query_move_fraction=0.0,
            carried_fraction=0.3,
            commit_every=4,
            warmup_rounds=1,
            min_rounds=10,
        ),
        Shape(
            name="wire_listeners",
            transport="wire",
            clients=12_000,
            objects=600,
            range_queries=120,
            knn_queries=30,
            predictive_queries=20,
            report_fraction=0.35,
            query_move_fraction=0.0,
            carried_fraction=0.3,
            commit_every=4,
            warmup_rounds=2,
            min_rounds=150,
        ),
    )
}

QUICK_FACTOR = 0.1


def shape_for(name: str, quick: bool = False) -> Shape:
    shape = SHAPES[name]
    return shape.scaled(QUICK_FACTOR) if quick else shape


def require_numpy():
    """numpy, or a loud failure: there is no python-backend fallback here."""
    try:
        import numpy
    except ImportError as exc:
        raise SystemExit(
            "benchmarks/e2e needs numpy: the benchmark measures the "
            f"columnar/numpy path and will not fall back ({exc})"
        )
    return numpy


def engine_kwargs() -> dict:
    """Constructor keywords that pin the measured path, filtered to what
    ``IncrementalEngine.__init__`` still accepts."""
    from repro.core.engine import IncrementalEngine

    accepted = inspect.signature(IncrementalEngine.__init__).parameters
    wanted = {
        "grid_size": GRID_SIZE,
        "pipeline": PIPELINE,
        "columnar_backend": COLUMNAR_BACKEND,
    }
    return {key: value for key, value in wanted.items() if key in accepted}


def service_args() -> list[str]:
    """``python -m repro.service`` flags pinning the same path, filtered
    to what its ``--help`` still lists."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.service", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
        check=True,
    )
    args = ["--grid", str(GRID_SIZE)] if "--grid" in proc.stdout else []
    if "--pipeline" in proc.stdout:
        args += ["--pipeline", PIPELINE]
    return args


def child_env() -> dict:
    """The environment of every subprocess: this checkout's ``src``, and
    the columnar backend pinned the way ``engine_kwargs`` pins it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["REPRO_COLUMNAR_BACKEND"] = COLUMNAR_BACKEND
    return env
