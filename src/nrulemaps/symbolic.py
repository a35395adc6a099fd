"""Label-targeted rules and their cycling compositions.

A symbolic rule projects points onto a fixed line of the arrangement at a
fixed angle and orientation.  Restricted to mapping one line onto
another, a rule acts on arc-length parameters as a 1D affine map, so one
full cycle of rules composes into a single affine action on the last
target line.  Fixed points, contraction coefficients, collapse detection,
and inversion all live in that 1D picture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from .errors import InvalidAngle, NeutralCycle, NotInvertible, ParallelLines, PointOffArrangement
from .geometry import (
    COINCIDENCE_TOL,
    HALF_PI,
    ON_ARRANGEMENT_TOL,
    Arrangement,
    ArrangementMode,
    Line,
    Point,
    intersect,
    parallel,
    project,
)
from .piecewise import Resolver, iterate

# A rule whose analytic 1D scale sits within this of zero collapses its
# carrier onto the intersection point.
COLLAPSE_TOL = 1e-12


@dataclass(frozen=True)
class AffineMap1D:
    """The map t -> scale * t + shift on a line's arc-length parameter."""

    scale: float
    shift: float

    def __call__(self, t: float) -> float:
        return self.scale * t + self.shift

    def then(self, other: "AffineMap1D") -> "AffineMap1D":
        """Composite map: apply ``self`` first, then ``other``."""
        return AffineMap1D(other.scale * self.scale, other.scale * self.shift + other.shift)

    def inverse(self) -> "AffineMap1D":
        if abs(self.scale) <= COLLAPSE_TOL:
            raise NotInvertible("a rank-deficient affine map has no inverse")
        return AffineMap1D(1.0 / self.scale, -self.shift / self.scale)

    def fixed_point(self) -> float:
        if abs(self.scale - 1.0) <= COINCIDENCE_TOL:
            raise NeutralCycle(f"scale is 1 (shift {self.shift}): no unique fixed point")
        return self.shift / (1.0 - self.scale)

    @staticmethod
    def identity() -> "AffineMap1D":
        return AffineMap1D(1.0, 0.0)


@dataclass(frozen=True)
class SymbolicRule:
    """An oriented angle-theta projection onto a named line."""

    theta: float
    orientation: int
    target: str

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= HALF_PI:
            raise InvalidAngle(f"rule angle must lie in (0, pi/2], got {self.theta}")
        if self.orientation not in (0, 1):
            raise ValueError(f"orientation must be 0 or 1, got {self.orientation}")

    def flipped(self) -> "SymbolicRule":
        return replace(self, orientation=1 - self.orientation)


def _signed_scale(source: Line, target: Line, theta: float, orientation: int) -> Optional[float]:
    """Analytic signed arc-length scale of a projection, None for parallel pairs.

    For orientation 0 the restricted map sends source parameter t to
    target parameter sin(theta + d)/sin(theta) * t + const, where d is the
    signed direction-angle difference source - target; orientation 1 uses
    -d.  The magnitude is the rule's similarity coefficient.
    """
    if parallel(source, target):
        return None
    d = source.angle - target.angle
    eps = 1.0 if orientation == 0 else -1.0
    return math.sin(theta + eps * d) / math.sin(theta)


def _collapses(source: Line, target: Line, theta: float, orientation: int) -> bool:
    """Whether the projection squeezes ``source`` onto the intersection point."""
    if parallel(source, target):
        return False
    d = source.angle - target.angle
    eps = 1.0 if orientation == 0 else -1.0
    phase = theta + eps * d
    return abs(phase - round(phase / math.pi) * math.pi) <= COLLAPSE_TOL


def _probe_params(source: Line, target: Line) -> tuple[float, float]:
    """Two probe parameters on ``source`` whose feet stay clear of ``target``."""
    picked = []
    for t in (0.0, 1.0, 2.0, 3.0):
        if abs(target.signed_distance(source.point_at(t))) > 1e-6:
            picked.append(t)
            if len(picked) == 2:
                return picked[0], picked[1]
    # near-coincident parallel pair: every parameter is equally (un)suited
    return 0.0, 1.0


def projection_affine(source: Line, target: Line, theta: float, orientation: int) -> AffineMap1D:
    """Arc-length action of an oriented projection from one line to another.

    The restricted map is exactly affine, so two probe points determine
    it; the probes go through the live projection so the orientation
    convention has a single source of truth.  A collapsing rule gets its
    scale snapped to exactly zero and its shift to the intersection
    parameter.
    """
    if _collapses(source, target, theta, orientation):
        z = intersect(source, target)
        assert z is not None
        return AffineMap1D(0.0, target.param_of(z))
    t0, t1 = _probe_params(source, target)
    z0 = project(source.point_at(t0), theta, orientation, target)
    z1 = project(source.point_at(t1), theta, orientation, target)
    p0, p1 = target.param_of(z0), target.param_of(z1)
    scale = (p1 - p0) / (t1 - t0)
    return AffineMap1D(scale, p0 - scale * t0)


def similarity_coefficient(rule: SymbolicRule, source: Line, target: Line) -> float:
    """Distance-scaling factor of ``rule`` restricted to source -> target.

    Law-of-sines value on the branch selected by the orientation
    convention; may exceed 1 (expansion) and vanishes exactly when the
    rule angle equals the pair's intersection angle on the branch that
    maps toward the intersection point.
    """
    if rule.target != target.label:
        raise ValueError(f"rule targets {rule.target!r}, not {target.label!r}")
    s = _signed_scale(source, target, rule.theta, rule.orientation)
    if s is None:
        raise ParallelLines(f"lines {source.label} and {target.label} do not intersect")
    return abs(s)


@dataclass
class SymbolicNRuleMap:
    """A cycling composition of symbolic rules over a symbolic arrangement.

    ``phase`` is the index of the rule applied next; it advances by one
    (mod n) per step.  Everything derived from the rule sequence is
    cached, so orientation edits go through :meth:`with_flipped`, which
    returns a fresh map.
    """

    arrangement: Arrangement
    rules: tuple[SymbolicRule, ...]
    phase: int = 0

    def __post_init__(self) -> None:
        self.rules = tuple(self.rules)
        arr = self.arrangement
        if arr.mode is not ArrangementMode.SYMBOLIC:
            raise ValueError("symbolic maps need a symbolic-mode arrangement")
        n, m = len(self.rules), len(arr.lines)
        if n < m:
            raise ValueError(f"need at least {m} rules for {m} lines, got {n}")
        targets = [r.target for r in self.rules]
        for t in targets:
            arr.line(t)
        for i in range(n):
            if targets[i] == targets[(i + 1) % n]:
                raise ValueError(
                    f"rules {i} and {(i + 1) % n} both target {targets[i]!r}; "
                    "consecutive rules (cyclically) must differ"
                )
        missing = set(arr.labels) - set(targets)
        if missing:
            raise ValueError(f"every line must be targeted; missing {sorted(missing)}")
        if not 0 <= self.phase < n:
            raise ValueError(f"phase must lie in [0, {n}), got {self.phase}")

    @property
    def n(self) -> int:
        return len(self.rules)

    def carrier_label(self, i: int) -> str:
        """Line rule ``i`` maps from once the cycle is established."""
        return self.rules[i - 1].target

    def copy(self, phase: int = 0) -> "SymbolicNRuleMap":
        return SymbolicNRuleMap(self.arrangement, self.rules, phase)

    def with_flipped(self, i: int) -> "SymbolicNRuleMap":
        """A new map with rule ``i``'s orientation flipped (phase reset)."""
        rules = list(self.rules)
        rules[i] = rules[i].flipped()
        return SymbolicNRuleMap(self.arrangement, tuple(rules))

    def target_resolver(self) -> Resolver:
        """Step targets for :func:`iterate`: each rule's fixed line, never a tie."""
        targets = [(self.arrangement.line(r.target), False) for r in self.rules]
        return lambda i, x: targets[i]

    def orientation_key(self) -> tuple[int, ...]:
        return tuple(r.orientation for r in self.rules)

    @cached_property
    def rule_affines(self) -> tuple[AffineMap1D, ...]:
        """Per-rule affine actions along the established carrier chain."""
        arr = self.arrangement
        return tuple(
            projection_affine(
                arr.line(self.carrier_label(i)), arr.line(r.target), r.theta, r.orientation
            )
            for i, r in enumerate(self.rules)
        )

    @cached_property
    def collapsing_rule_indices(self) -> tuple[int, ...]:
        arr = self.arrangement
        return tuple(
            i
            for i, r in enumerate(self.rules)
            if _collapses(arr.line(self.carrier_label(i)), arr.line(r.target), r.theta, r.orientation)
        )


def apply_rule(rule: SymbolicRule, x: Point, arrangement: Arrangement) -> Point:
    """Apply one rule to a point on the arrangement."""
    if arrangement.carrier_of(x, ON_ARRANGEMENT_TOL) is None:
        raise PointOffArrangement(f"point {tuple(x)} lies on no arrangement line")
    return project(x, rule.theta, rule.orientation, arrangement.line(rule.target))


def step(m: SymbolicNRuleMap, x: Point) -> Point:
    """Apply the rule at the current phase and advance the phase."""
    y = apply_rule(m.rules[m.phase], x, m.arrangement)
    m.phase = (m.phase + 1) % m.n
    return y


def apply_cycle(m: SymbolicNRuleMap, x: Point, times: int = 1) -> Point:
    """Run whole cycles from phase 0 without touching the map's phase."""
    return iterate(m, x, times * m.n).end()


def cycle_affine(m: SymbolicNRuleMap) -> AffineMap1D:
    """Composite affine action of one full cycle on the last target line.

    The magnitude of the scale is the cycle's similarity coefficient, the
    product of the per-rule coefficients; the sign records whether the
    cycle preserves or reverses direction along the line.
    """
    total = AffineMap1D.identity()
    for a in m.rule_affines:
        total = total.then(a)
    return total


def cycle_coefficient(m: SymbolicNRuleMap) -> float:
    """Similarity coefficient of the full cycle (|scale| of its action)."""
    return abs(cycle_affine(m).scale)


def is_collapsing(m: SymbolicNRuleMap) -> bool:
    """Whether some rule squeezes its carrier onto an intersection point."""
    return bool(m.collapsing_rule_indices)


def induced_fixed_point(m: SymbolicNRuleMap) -> Point:
    """The point of the last target line fixed by one full cycle.

    Solved directly from the cycle's affine action, which also covers the
    collapsing (scale 0) and expanding (|scale| > 1) cases; raises
    NeutralCycle when the signed scale is 1.
    """
    t = cycle_affine(m).fixed_point()
    return m.arrangement.line(m.rules[-1].target).point_at(t)


def invert_cycle(m: SymbolicNRuleMap, y: Point) -> Point:
    """The unique x on the last target line one cycle ahead of ``y``."""
    if is_collapsing(m):
        raise NotInvertible(
            f"rules {list(m.collapsing_rule_indices)} collapse their carrier; no inverse"
        )
    line = m.arrangement.line(m.rules[-1].target)
    if line.distance(y) > ON_ARRANGEMENT_TOL * max(1.0, abs(y.x), abs(y.y)):
        raise PointOffArrangement(f"point {tuple(y)} is not on line {line.label}")
    t = line.param_of(y)
    for a in reversed(m.rule_affines):
        t = (t - a.shift) / a.scale
    return line.point_at(t)


def periodic_orbit(m: SymbolicNRuleMap) -> list[Point]:
    """One period of the map's periodic orbit.

    Returns [p1, ..., pn] with p_k on rule k's target line; p_n is the
    induced fixed point on the last target line.
    """
    orbit = iterate(m, induced_fixed_point(m), m.n)
    orbit.end()  # raises if the orbit escaped
    return orbit.points[1:]

