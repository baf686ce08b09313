"""Axis-aligned rectangles.

Rectangles are the workhorse region type: range queries are rectangles,
grid cells are rectangles, R-tree nodes store rectangles, and moving
queries are represented by their old and new rectangles whose set
differences (``A_old - A_new`` and ``A_new - A_old``) drive the paper's
incremental evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.point import Point


@dataclass(frozen=True, slots=True)
class Rect:
    """A closed axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                "degenerate rectangle: "
                f"({self.min_x}, {self.min_y}, {self.max_x}, {self.max_y})"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_points(cls, a: Point, b: Point) -> "Rect":
        """The bounding rectangle of two points (in any order)."""
        return cls(
            min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y)
        )

    @classmethod
    def from_center(cls, center: Point, width: float, height: float) -> "Rect":
        """A rectangle of the given size centred on ``center``."""
        return cls(
            center.x - width / 2.0,
            center.y - height / 2.0,
            center.x + width / 2.0,
            center.y + height / 2.0,
        )

    @classmethod
    def square(cls, center: Point, side: float) -> "Rect":
        """A square of the given side length centred on ``center``.

        This is the query shape used throughout the paper's experiment
        ("we choose some points randomly and consider them as centers of
        square queries").
        """
        return cls.from_center(center, side, side)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def corners(self) -> tuple[Point, Point, Point, Point]:
        """The four corners, counter-clockwise from the minimum corner."""
        return (
            Point(self.min_x, self.min_y),
            Point(self.max_x, self.min_y),
            Point(self.max_x, self.max_y),
            Point(self.min_x, self.max_y),
        )

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def contains_point(self, p: Point) -> bool:
        """Whether ``p`` lies inside or on the boundary."""
        return (
            self.min_x <= p.x <= self.max_x and self.min_y <= p.y <= self.max_y
        )

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other`` is fully inside this rectangle."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and other.max_x <= self.max_x
            and other.max_y <= self.max_y
        )

    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles share at least a boundary point."""
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
        )

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping rectangle, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.min_x, other.min_x),
            max(self.min_y, other.min_y),
            min(self.max_x, other.max_x),
            min(self.max_y, other.max_y),
        )

    def union(self, other: "Rect") -> "Rect":
        """The minimum bounding rectangle of both rectangles."""
        return Rect(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def expanded(self, margin: float) -> "Rect":
        """A rectangle grown by ``margin`` on every side."""
        return Rect(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def difference(self, other: "Rect") -> list["Rect"]:
        """This rectangle minus ``other`` as up to four disjoint rectangles.

        The incremental engine uses this to compute ``A_new - A_old`` when
        a query moves: only the difference area needs fresh evaluation.
        Returned rectangles tile ``self \\ other`` exactly (no overlaps
        beyond shared boundaries); the list is empty when ``other`` covers
        ``self``, and ``[self]`` when the rectangles are disjoint.
        """
        inter = self.intersection(other)
        if inter is None:
            return [self]
        if inter == self:
            return []
        pieces: list[Rect] = []
        # Bottom band.
        if self.min_y < inter.min_y:
            pieces.append(Rect(self.min_x, self.min_y, self.max_x, inter.min_y))
        # Top band.
        if inter.max_y < self.max_y:
            pieces.append(Rect(self.min_x, inter.max_y, self.max_x, self.max_y))
        # Left band (restricted to the middle stripe).
        if self.min_x < inter.min_x:
            pieces.append(Rect(self.min_x, inter.min_y, inter.min_x, inter.max_y))
        # Right band (restricted to the middle stripe).
        if inter.max_x < self.max_x:
            pieces.append(Rect(inter.max_x, inter.min_y, self.max_x, inter.max_y))
        return pieces

    def clamp_point(self, p: Point) -> Point:
        """The nearest point to ``p`` inside this rectangle.

        Location-aware servers serve a bounded area: reports that drift
        beyond it (GPS noise, map-edge traffic) are clamped back in so
        every engine sees the same bounded world.
        """
        return Point(
            min(max(p.x, self.min_x), self.max_x),
            min(max(p.y, self.min_y), self.max_y),
        )

    def clip_or_pin(self, region: "Rect") -> "Rect":
        """``region`` clipped to this rectangle; a region entirely
        outside collapses to a degenerate rectangle pinned at the
        nearest boundary point (so a query that wandered off the map
        keeps a well-defined — empty-answer — region)."""
        clipped = self.intersection(region)
        if clipped is not None:
            return clipped
        pin = self.clamp_point(region.center)
        return Rect(pin.x, pin.y, pin.x, pin.y)

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------

    def min_distance_to_point(self, p: Point) -> float:
        """Minimum distance from ``p`` to this rectangle (0 if inside).

        This is the MINDIST metric used by best-first k-NN search over
        R-trees.
        """
        dx = max(self.min_x - p.x, 0.0, p.x - self.max_x)
        dy = max(self.min_y - p.y, 0.0, p.y - self.max_y)
        return (dx * dx + dy * dy) ** 0.5

    def max_distance_to_point(self, p: Point) -> float:
        """Maximum distance from ``p`` to any point of this rectangle."""
        dx = max(abs(p.x - self.min_x), abs(p.x - self.max_x))
        dy = max(abs(p.y - self.min_y), abs(p.y - self.max_y))
        return (dx * dx + dy * dy) ** 0.5
