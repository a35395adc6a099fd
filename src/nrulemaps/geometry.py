"""Planar primitives for rule-based line dynamics.

Lines are kept in canonical (direction angle in [0, pi), signed offset)
form so that parallelism, perpendicularity, and equality reduce to plain
angle/offset comparisons.  Everything in this module is immutable and
pure, and therefore safe to share across tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .errors import DegenerateLine, InvalidAngle, NonFinitePoint, ParallelLines

HALF_PI = math.pi / 2

# Geometric coincidence: points, angles, or offsets this close are equal.
COINCIDENCE_TOL = 1e-12
# A point must be this close to some line to count as on the arrangement.
ON_ARRANGEMENT_TOL = 1e-10
# Two intersection points closer than this flag a concurrency.
CONCURRENCY_TOL = 1e-9


@dataclass(frozen=True)
class Point:
    """A point of the plane with finite coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise NonFinitePoint(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def _fold_angle(angle: float) -> float:
    """Reduce a direction angle to the canonical range [0, pi)."""
    a = angle % math.pi
    if a >= math.pi:  # guard the rounding edge of the modulo
        a = 0.0
    return a


def _angle_gap(a: float, b: float) -> float:
    """Separation of two direction angles modulo pi, in [0, pi/2]."""
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


@dataclass(frozen=True)
class Line:
    """An infinite line in canonical form.

    ``angle`` is the direction of the line in [0, pi); ``offset`` is the
    signed distance from the origin along the left normal of the
    direction.  A point p lies on the line iff p . normal == offset.
    """

    angle: float
    offset: float
    label: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.angle < math.pi:
            raise ValueError(f"line angle must lie in [0, pi), got {self.angle}")
        if not math.isfinite(self.offset):
            raise ValueError(f"line offset must be finite, got {self.offset}")

    @cached_property
    def direction(self) -> tuple[float, float]:
        return (math.cos(self.angle), math.sin(self.angle))

    @cached_property
    def normal(self) -> tuple[float, float]:
        # left normal: direction rotated a quarter turn counterclockwise
        return (-math.sin(self.angle), math.cos(self.angle))

    def signed_distance(self, p: Point) -> float:
        nx, ny = self.normal
        return p.x * nx + p.y * ny - self.offset

    def distance(self, p: Point) -> float:
        return abs(self.signed_distance(p))

    def contains(self, p: Point, tol: float = COINCIDENCE_TOL) -> bool:
        return self.distance(p) <= tol

    def foot(self, p: Point) -> Point:
        """Perpendicular foot of ``p`` on this line."""
        w = self.signed_distance(p)
        nx, ny = self.normal
        return Point(p.x - w * nx, p.y - w * ny)

    def point_at(self, t: float) -> Point:
        """Point at arc-length parameter ``t`` (t=0 is the origin's foot)."""
        dx, dy = self.direction
        nx, ny = self.normal
        return Point(self.offset * nx + t * dx, self.offset * ny + t * dy)

    def param_of(self, p: Point) -> float:
        """Arc-length parameter of (the foot of) ``p``."""
        dx, dy = self.direction
        return p.x * dx + p.y * dy

    def same_line_as(self, other: "Line", tol: float = COINCIDENCE_TOL) -> bool:
        """Whether two canonical forms denote one geometric line."""
        gap = abs(self.angle - other.angle)
        if gap <= tol:
            return abs(self.offset - other.offset) <= tol
        if math.pi - gap <= tol:
            # same direction across the wrap; the normal flips sign
            return abs(self.offset + other.offset) <= tol
        return False


def line_through(p: Point, angle: float, label: str = "") -> Line:
    """Canonical line through ``p`` with direction ``angle`` (radians, any value)."""
    angle = _fold_angle(angle)
    nx, ny = -math.sin(angle), math.cos(angle)
    return Line(angle, p.x * nx + p.y * ny, label)


def canonicalize_line(p: Point, q: Point, label: str = "") -> Line:
    """Canonical line through two distinct points."""
    if p.distance_to(q) <= COINCIDENCE_TOL:
        raise DegenerateLine(f"points {tuple(p)} and {tuple(q)} coincide")
    return line_through(p, math.atan2(q.y - p.y, q.x - p.x), label)


def parallel(a: Line, b: Line, tol: float = COINCIDENCE_TOL) -> bool:
    """Whether the direction angles coincide modulo pi."""
    return _angle_gap(a.angle, b.angle) <= tol


def intersect(a: Line, b: Line) -> Optional[Point]:
    """Intersection point of two lines, or None for a parallel pair."""
    if parallel(a, b):
        return None
    anx, any_ = a.normal
    bnx, bny = b.normal
    det = anx * bny - any_ * bnx
    return Point(
        (a.offset * bny - b.offset * any_) / det,
        (anx * b.offset - bnx * a.offset) / det,
    )


def acute_angle(a: Line, b: Line) -> float:
    """Acute or right angle between two non-parallel lines."""
    gap = _angle_gap(a.angle, b.angle)
    if gap <= COINCIDENCE_TOL:
        raise ParallelLines(f"lines {a.label or a.angle} and {b.label or b.angle} are parallel")
    return gap


def distance_to_line(x: Point, l: Line) -> float:
    """Euclidean point-line distance."""
    return l.distance(x)


def project(x: Point, theta: float, orientation: int, target: Line) -> Point:
    """Angle-``theta``, oriented projection of ``x`` onto ``target``.

    The image z is the point of ``target`` such that the segment x -> z
    meets the line at acute angle ``theta``.  Off the line there are two
    such points, mirror images of each other through the perpendicular
    foot p; the orientation bit picks one.  Convention: let g = (p - x)/h
    be the unit gaze from x toward its foot and left = rot90(g) its
    counterclockwise quarter turn; orientation 0 returns the candidate z
    with (z - p) . left > 0, orientation 1 the other.  Points already on
    the line (within coincidence tolerance) map to themselves, and
    theta = pi/2 returns the foot itself.
    """
    if not 0.0 < theta <= HALF_PI:
        raise InvalidAngle(f"projection angle must lie in (0, pi/2], got {theta}")
    if orientation not in (0, 1):
        raise ValueError(f"orientation must be 0 or 1, got {orientation}")
    w = target.signed_distance(x)
    if abs(w) <= COINCIDENCE_TOL:
        return x
    nx, ny = target.normal
    px, py = x.x - w * nx, x.y - w * ny
    if theta == HALF_PI:
        return Point(px, py)
    # The left-of-foot rule reduces to displacing the foot by +w/tan(theta)
    # along the line direction for orientation 0; orientation 1 mirrors.
    t = w / math.tan(theta)
    if orientation:
        t = -t
    dx, dy = target.direction
    return Point(px + t * dx, py + t * dy)


class ArrangementMode(Enum):
    SYMBOLIC = "symbolic"
    PIECEWISE = "piecewise"


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Arrangement:
    """A validated collection of at least three labeled lines.

    Symbolic mode admits parallel and perpendicular pairs but rejects a
    common point shared by all lines and requires at least one line that
    is neither parallel nor perpendicular to any other.  Piecewise mode
    requires pairwise non-parallel lines with pairwise distinct
    intersection points, which forces the least pairwise angle to be
    acute.
    """

    lines: tuple[Line, ...]
    mode: ArrangementMode

    def __post_init__(self) -> None:
        object.__setattr__(self, "lines", tuple(self.lines))
        if len(self.lines) < 3:
            raise ValueError(f"an arrangement needs at least 3 lines, got {len(self.lines)}")
        labels = [l.label for l in self.lines]
        if any(not lb for lb in labels):
            raise ValueError("every arrangement line needs a nonempty label")
        if len(set(labels)) != len(labels):
            raise ValueError(f"line labels must be unique, got {labels}")
        for a, b in combinations(self.lines, 2):
            if a.same_line_as(b):
                raise ValueError(f"lines {a.label} and {b.label} coincide")
        if self.mode is ArrangementMode.PIECEWISE:
            self._validate_piecewise()
        else:
            self._validate_symbolic()

    def _validate_symbolic(self) -> None:
        z = None
        for a, b in combinations(self.lines, 2):
            z = intersect(a, b)
            if z is not None:
                break
        if z is not None and all(l.distance(z) <= CONCURRENCY_TOL for l in self.lines):
            raise ValueError("all lines pass through a common point")
        if not self.free_lines:
            raise ValueError(
                "need at least one line neither parallel nor perpendicular to any other"
            )

    def _validate_piecewise(self) -> None:
        for a, b in combinations(self.lines, 2):
            if parallel(a, b):
                raise ValueError(f"piecewise arrangements forbid parallel pairs: {a.label}, {b.label}")
        pts = list(self.intersections.items())
        for (pa, za), (pb, zb) in combinations(pts, 2):
            if za.distance_to(zb) <= CONCURRENCY_TOL:
                raise ValueError(f"intersection points of pairs {pa} and {pb} coincide")
        if self.min_angle >= HALF_PI - COINCIDENCE_TOL:
            raise ValueError("least pairwise angle must be acute")

    @classmethod
    def symbolic(cls, lines: Iterable[Line]) -> "Arrangement":
        return cls(tuple(lines), ArrangementMode.SYMBOLIC)

    @classmethod
    def piecewise(cls, lines: Iterable[Line]) -> "Arrangement":
        return cls(tuple(lines), ArrangementMode.PIECEWISE)

    @cached_property
    def _by_label(self) -> dict[str, Line]:
        return {l.label: l for l in self.lines}

    def line(self, label: str) -> Line:
        try:
            return self._by_label[label]
        except KeyError:
            raise ValueError(f"no line labeled {label!r} in the arrangement") from None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l.label for l in self.lines)

    @cached_property
    def intersections(self) -> dict[tuple[str, str], Point]:
        """Pairwise intersection points keyed by sorted label pair."""
        out: dict[tuple[str, str], Point] = {}
        for a, b in combinations(self.lines, 2):
            z = intersect(a, b)
            if z is not None:
                out[_pair(a.label, b.label)] = z
        return out

    @cached_property
    def pairwise_angles(self) -> dict[tuple[str, str], float]:
        """Acute angles of the non-parallel pairs, keyed like intersections."""
        return {
            _pair(a.label, b.label): acute_angle(a, b)
            for a, b in combinations(self.lines, 2)
            if not parallel(a, b)
        }

    @cached_property
    def min_angle(self) -> float:
        """Least pairwise intersection angle among non-parallel pairs."""
        return min(self.pairwise_angles.values())

    def intersection(self, la: str, lb: str) -> Optional[Point]:
        return self.intersections.get(_pair(la, lb))

    def pair_angle(self, la: str, lb: str) -> float:
        try:
            return self.pairwise_angles[_pair(la, lb)]
        except KeyError:
            raise ParallelLines(f"lines {la} and {lb} are parallel") from None

    @cached_property
    def free_lines(self) -> tuple[str, ...]:
        """Labels of lines neither parallel nor perpendicular to any other."""
        out = []
        for a in self.lines:
            ok = True
            for b in self.lines:
                if b is a:
                    continue
                gap = _angle_gap(a.angle, b.angle)
                if gap <= COINCIDENCE_TOL or abs(gap - HALF_PI) <= COINCIDENCE_TOL:
                    ok = False
                    break
            if ok:
                out.append(a.label)
        return tuple(out)

    def carrier_of(self, p: Point, tol: float = ON_ARRANGEMENT_TOL) -> Optional[Line]:
        """The nearest line holding ``p`` within ``tol``, else None.

        The tolerance scales with the point's magnitude so that far-out
        iterates, whose coordinates carry relative rounding error, still
        count as on their line.
        """
        best = min(self.lines, key=lambda l: l.distance(p))
        return best if best.distance(p) <= tol * max(1.0, abs(p.x), abs(p.y)) else None
