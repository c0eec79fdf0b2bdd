"""Integer geometry primitives: points, rectangles and transforms.

Everything is axis-aligned and integer-valued (database units), matching
how real layout databases store geometry.  The :class:`Transform` supports
the eight Manhattan orientations used by layout instances (R0/R90/R180/R270
and their mirrored variants), which is all a standard-cell/array-style
placer needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple


class Orientation(enum.Enum):
    """The eight Manhattan orientations of a placed instance."""

    R0 = "R0"
    R90 = "R90"
    R180 = "R180"
    R270 = "R270"
    MX = "MX"    # mirror about the x-axis (flip vertically)
    MY = "MY"    # mirror about the y-axis (flip horizontally)
    MXR90 = "MXR90"
    MYR90 = "MYR90"

    @property
    def swaps_axes(self) -> bool:
        """True when width and height exchange under this orientation."""
        return self in (Orientation.R90, Orientation.R270,
                        Orientation.MXR90, Orientation.MYR90)


@dataclass(frozen=True, order=True)
class Point:
    """An integer point in database units."""

    x: int
    y: int

    def translated(self, dx: int, dy: int) -> "Point":
        """Return this point shifted by (dx, dy)."""
        return Point(self.x + dx, self.y + dy)

    def manhattan_distance(self, other: "Point") -> int:
        """L1 distance to ``other``."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def as_tuple(self) -> Tuple[int, int]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned integer rectangle defined by two corners.

    The constructor normalises the corners so ``x_lo <= x_hi`` and
    ``y_lo <= y_hi`` always hold.  Zero-width or zero-height rectangles are
    allowed (they are useful as degenerate pin markers) but negative extents
    are impossible by construction.
    """

    x_lo: int
    y_lo: int
    x_hi: int
    y_hi: int

    def __post_init__(self) -> None:
        # Normalise both axes so swapped corner inputs still yield a valid box.
        x_lo, x_hi = sorted((self.x_lo, self.x_hi))
        y_lo, y_hi = sorted((self.y_lo, self.y_hi))
        object.__setattr__(self, "x_lo", x_lo)
        object.__setattr__(self, "x_hi", x_hi)
        object.__setattr__(self, "y_lo", y_lo)
        object.__setattr__(self, "y_hi", y_hi)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_size(cls, x: int, y: int, width: int, height: int) -> "Rect":
        """Build a rectangle from its lower-left corner and size."""
        if width < 0 or height < 0:
            raise ValueError("width and height must be non-negative")
        return cls(x, y, x + width, y + height)

    @classmethod
    def from_center(cls, center: Point, width: int, height: int) -> "Rect":
        """Build a rectangle centred on ``center``."""
        half_w, half_h = width // 2, height // 2
        return cls(center.x - half_w, center.y - half_h,
                   center.x - half_w + width, center.y - half_h + height)

    @classmethod
    def bounding(cls, rects: Iterable["Rect"]) -> Optional["Rect"]:
        """Bounding box of a collection of rectangles, or ``None`` if empty."""
        rects = list(rects)
        if not rects:
            return None
        return cls(
            min(r.x_lo for r in rects),
            min(r.y_lo for r in rects),
            max(r.x_hi for r in rects),
            max(r.y_hi for r in rects),
        )

    # -- basic properties -------------------------------------------------

    @property
    def width(self) -> int:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> int:
        return self.y_hi - self.y_lo

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x_lo + self.x_hi) // 2, (self.y_lo + self.y_hi) // 2)

    def is_degenerate(self) -> bool:
        """True when the rectangle has zero width or height."""
        return self.width == 0 or self.height == 0

    # -- relations ----------------------------------------------------------

    def contains_point(self, point: Point) -> bool:
        """True if ``point`` lies inside or on the border."""
        return (self.x_lo <= point.x <= self.x_hi
                and self.y_lo <= point.y <= self.y_hi)

    def contains_rect(self, other: "Rect") -> bool:
        """True if ``other`` lies entirely inside (or on the border of) this rect."""
        return (self.x_lo <= other.x_lo and other.x_hi <= self.x_hi
                and self.y_lo <= other.y_lo and other.y_hi <= self.y_hi)

    def overlaps(self, other: "Rect") -> bool:
        """True if the interiors of the two rectangles intersect."""
        return (self.x_lo < other.x_hi and other.x_lo < self.x_hi
                and self.y_lo < other.y_hi and other.y_lo < self.y_hi)

    def touches(self, other: "Rect") -> bool:
        """True if the rectangles overlap or share an edge/corner."""
        return (self.x_lo <= other.x_hi and other.x_lo <= self.x_hi
                and self.y_lo <= other.y_hi and other.y_lo <= self.y_hi)

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlapping rectangle, or ``None`` when disjoint."""
        if not self.touches(other):
            return None
        return Rect(
            max(self.x_lo, other.x_lo),
            max(self.y_lo, other.y_lo),
            min(self.x_hi, other.x_hi),
            min(self.y_hi, other.y_hi),
        )

    def spacing_to(self, other: "Rect") -> int:
        """Minimum Manhattan edge-to-edge spacing between two rectangles.

        Returns 0 when the rectangles touch or overlap.
        """
        dx = max(0, max(self.x_lo, other.x_lo) - min(self.x_hi, other.x_hi))
        dy = max(0, max(self.y_lo, other.y_lo) - min(self.y_hi, other.y_hi))
        if dx > 0 and dy > 0:
            return dx + dy
        return max(dx, dy)

    # -- derived rectangles ---------------------------------------------

    def translated(self, dx: int, dy: int) -> "Rect":
        """Return this rectangle shifted by (dx, dy)."""
        return Rect(self.x_lo + dx, self.y_lo + dy, self.x_hi + dx, self.y_hi + dy)

    def expanded(self, margin: int) -> "Rect":
        """Return this rectangle grown (or shrunk for negative margin) on all sides."""
        return Rect(self.x_lo - margin, self.y_lo - margin,
                    self.x_hi + margin, self.y_hi + margin)

    def union(self, other: "Rect") -> "Rect":
        """Bounding box of this rectangle and ``other``."""
        return Rect(min(self.x_lo, other.x_lo), min(self.y_lo, other.y_lo),
                    max(self.x_hi, other.x_hi), max(self.y_hi, other.y_hi))


@dataclass(frozen=True)
class Transform:
    """A placement transform: Manhattan orientation followed by translation.

    The orientation is applied about the origin of the child cell, then the
    translation moves the transformed origin to ``(dx, dy)`` in the parent.
    """

    dx: int = 0
    dy: int = 0
    orientation: Orientation = Orientation.R0

    def apply_point(self, point: Point) -> Point:
        """Transform a point from child coordinates into parent coordinates."""
        x, y = point.x, point.y
        o = self.orientation
        if o is Orientation.R0:
            tx, ty = x, y
        elif o is Orientation.R90:
            tx, ty = -y, x
        elif o is Orientation.R180:
            tx, ty = -x, -y
        elif o is Orientation.R270:
            tx, ty = y, -x
        elif o is Orientation.MX:
            tx, ty = x, -y
        elif o is Orientation.MY:
            tx, ty = -x, y
        elif o is Orientation.MXR90:
            tx, ty = y, x
        elif o is Orientation.MYR90:
            tx, ty = -y, -x
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unsupported orientation {o}")
        return Point(tx + self.dx, ty + self.dy)

    def apply_rect(self, rect: Rect) -> Rect:
        """Transform a rectangle (result is re-normalised axis-aligned)."""
        if self.orientation is Orientation.R0:
            # A pure translation keeps the corners in order.
            dx, dy = self.dx, self.dy
            return Rect(rect.x_lo + dx, rect.y_lo + dy, rect.x_hi + dx, rect.y_hi + dy)
        p1 = self.apply_point(Point(rect.x_lo, rect.y_lo))
        p2 = self.apply_point(Point(rect.x_hi, rect.y_hi))
        return Rect(p1.x, p1.y, p2.x, p2.y)

    def compose(self, inner: "Transform") -> "Transform":
        """Return the transform equivalent to applying ``inner`` then ``self``.

        Only the common case of composing with non-rotating inner transforms
        or applying the outer orientation to the inner translation is
        required by the hierarchical flattener; the composition is exact for
        all Manhattan orientation pairs because they form a closed group.
        """
        origin = self.apply_point(Point(inner.dx, inner.dy))
        combined = _COMPOSE_TABLE[(self.orientation, inner.orientation)]
        return Transform(origin.x, origin.y, combined)


def _build_compose_table():
    """Precompute the composition of every Manhattan orientation pair.

    The composed orientation is identified by applying both orientations to
    two probe points and matching the result against each candidate.
    """
    probes = (Point(1, 0), Point(0, 1))
    signatures = {}
    for candidate in Orientation:
        transform = Transform(0, 0, candidate)
        signatures[tuple(transform.apply_point(p) for p in probes)] = candidate
    table = {}
    for outer in Orientation:
        for inner in Orientation:
            outer_t = Transform(0, 0, outer)
            inner_t = Transform(0, 0, inner)
            signature = tuple(
                outer_t.apply_point(inner_t.apply_point(p)) for p in probes
            )
            table[(outer, inner)] = signatures[signature]
    return table


_COMPOSE_TABLE = _build_compose_table()


def hpwl(points: Iterable[Point]) -> int:
    """Half-perimeter wire length of a set of points (paper Figure 3)."""
    points = list(points)
    if len(points) < 2:
        return 0
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))
