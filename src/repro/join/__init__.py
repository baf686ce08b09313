"""Spatial join algorithms.

With shared execution, "evaluating a set of concurrent continuous
spatio-temporal queries is reduced to a join between a set of moving
objects and a set of moving queries" — so the join is the engine's inner
loop.  Three implementations are provided:

* :func:`nested_loop_join` — the O(n*m) reference; trivially correct and
  used as the oracle in tests.
* :func:`grid_join` — hash objects into uniform grid cells, clip query
  rectangles to cells, test each (object, query) pair at most once.  This
  mirrors what the incremental engine does over its object store's home
  cells and its queries' cell footprints.
* :func:`pbsm_join` — Partition Based Spatial-Merge join (Patel & DeWitt,
  SIGMOD 1996, the algorithm the paper cites for its bulk processing):
  partition both inputs into tiles, run a plane sweep within each tile,
  deduplicate pairs reported by multiple tiles via the reference-point
  method.
"""

from repro.join.nested_loop import nested_loop_join
from repro.join.grid_join import grid_join
from repro.join.pbsm import pbsm_join

__all__ = ["nested_loop_join", "grid_join", "pbsm_join"]
