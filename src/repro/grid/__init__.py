"""The uniform grid: ``N x N`` equal cells over the world.

The paper's framework hinges on one data structure: a simple grid that
divides space evenly into ``N x N`` equal cells and indexes *objects and
queries side by side*.  Point objects map to exactly one cell; query
regions (and predictive trajectories) are clipped to every cell they
overlap.  Shared query evaluation is then a per-cell join between the two
populations.

``Grid`` captures the pure geometry of the partitioning, and
:mod:`repro.grid.cellmath` its batch arithmetic: the engine derives
every cell — an object's home, a query's footprint — from geometry and
stores none.  ``GridIndex`` is the mutable object-side index (cell
buckets plus the identifier index the paper uses to find an object's
old location) that the snapshot baseline keeps.
"""

from repro.grid.partition import Grid
from repro.grid.index import GridIndex

__all__ = ["Grid", "GridIndex"]
