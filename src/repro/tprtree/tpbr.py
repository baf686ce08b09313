"""Time-parameterized bounding rectangles.

A TPBR is a rectangle valid at a reference time plus velocity bounds on
each face: at time ``t >= t_ref`` the rectangle has grown to

    [min_x + min_vx * dt,  max_x + max_vx * dt]  (dt = t - t_ref)

and likewise in y.  Because every face moves linearly in time, the union
of the rectangle over a time interval is exactly the union of its two
endpoint rectangles — which makes conservative window queries cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Point, Rect, Velocity


@dataclass(frozen=True, slots=True)
class TimeParameterizedRect:
    """A rectangle whose faces move with bounded velocities."""

    rect: Rect  # extent at t_ref
    t_ref: float
    min_vx: float
    min_vy: float
    max_vx: float
    max_vy: float

    def __post_init__(self) -> None:
        if self.min_vx > self.max_vx or self.min_vy > self.max_vy:
            raise ValueError("velocity bounds are inverted")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def for_point(
        cls, location: Point, velocity: Velocity, t: float
    ) -> "TimeParameterizedRect":
        """The degenerate TPBR of one moving point (exact, not a bound)."""
        return cls(
            Rect(location.x, location.y, location.x, location.y),
            t,
            velocity.vx,
            velocity.vy,
            velocity.vx,
            velocity.vy,
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def rect_at(self, t: float) -> Rect:
        """The (conservative) extent at time ``t >= t_ref``."""
        dt = t - self.t_ref
        if dt < 0:
            raise ValueError(f"cannot evaluate TPBR before t_ref: {t} < {self.t_ref}")
        return Rect(
            self.rect.min_x + self.min_vx * dt,
            self.rect.min_y + self.min_vy * dt,
            self.rect.max_x + self.max_vx * dt,
            self.rect.max_y + self.max_vy * dt,
        )

    def swept_rect(self, t_start: float, t_end: float) -> Rect:
        """The union of the extent over ``[t_start, t_end]``.

        Exact for linearly moving faces: each face coordinate is linear
        in t, so its extremum over the interval is at an endpoint.
        """
        if t_start > t_end:
            raise ValueError(f"empty interval [{t_start}, {t_end}]")
        return self.rect_at(t_start).union(self.rect_at(t_end))

    def intersects_at(self, region: Rect, t: float) -> bool:
        """Whether the extent at ``t`` overlaps ``region`` (timeslice)."""
        return self.rect_at(t).intersects(region)

    def intersects_during(
        self, region: Rect, t_start: float, t_end: float
    ) -> bool:
        """Conservative window test: may the extent overlap ``region``
        at some time in the interval?  Never reports false negatives."""
        return self.swept_rect(t_start, t_end).intersects(region)

    # ------------------------------------------------------------------
    # Combination (node MBR maintenance)
    # ------------------------------------------------------------------

    def normalized_to(self, t_ref: float) -> "TimeParameterizedRect":
        """The same moving rectangle re-anchored at a later ``t_ref``."""
        return TimeParameterizedRect(
            self.rect_at(t_ref),
            t_ref,
            self.min_vx,
            self.min_vy,
            self.max_vx,
            self.max_vy,
        )

    def union(self, other: "TimeParameterizedRect") -> "TimeParameterizedRect":
        """The tightest TPBR covering both, anchored at the later t_ref."""
        t_ref = max(self.t_ref, other.t_ref)
        a = self.normalized_to(t_ref)
        b = other.normalized_to(t_ref)
        return TimeParameterizedRect(
            a.rect.union(b.rect),
            t_ref,
            min(a.min_vx, b.min_vx),
            min(a.min_vy, b.min_vy),
            max(a.max_vx, b.max_vx),
            max(a.max_vy, b.max_vy),
        )

    def contains_tpbr_at(self, other: "TimeParameterizedRect", t: float) -> bool:
        """Whether this TPBR covers ``other`` at time ``t`` (for checks)."""
        return self.rect_at(t).expanded(1e-9).contains_rect(other.rect_at(t))
