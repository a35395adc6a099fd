"""Distance-ranked rules: projections whose target is chosen by rank.

A piecewise rule projects a point onto the l-th nearest line of the
arrangement (rank 1 is the carrier itself).  When the rank lands on a
non-unique distance value the rule fixes the point instead; orbits treat
such a tie as terminal, which is how degenerate systems surface.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateHit, InvalidAngle, NonFinitePoint, PointOffArrangement
from .geometry import (
    COINCIDENCE_TOL,
    HALF_PI,
    ON_ARRANGEMENT_TOL,
    Arrangement,
    ArrangementMode,
    Line,
    Point,
    canonicalize_line,
    intersect,
    project,
)

if TYPE_CHECKING:
    from .symbolic import SymbolicNRuleMap

# Distance values this close are "the same value" and make a rank tie.
TIE_TOL = 1e-12
# Gaps below this (but above TIE_TOL) are flagged as near-degenerate.
NEAR_TIE_TOL = 1e-9


@dataclass(frozen=True)
class PiecewiseRule:
    """An oriented angle-theta projection onto the rank-``rank`` line."""

    theta: float
    orientation: int
    rank: int

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= HALF_PI:
            raise InvalidAngle(f"rule angle must lie in (0, pi/2], got {self.theta}")
        if self.orientation not in (0, 1):
            raise ValueError(f"orientation must be 0 or 1, got {self.orientation}")
        if not isinstance(self.rank, int) or self.rank < 2:
            raise ValueError(f"rank must be an integer >= 2, got {self.rank}")


@dataclass
class PiecewiseNRuleMap:
    """A cycling composition of piecewise rules over a piecewise arrangement."""

    arrangement: Arrangement
    rules: tuple[PiecewiseRule, ...]

    def __post_init__(self) -> None:
        self.rules = tuple(self.rules)
        if self.arrangement.mode is not ArrangementMode.PIECEWISE:
            raise ValueError("piecewise maps need a piecewise-mode arrangement")
        if not self.rules:
            raise ValueError("need at least one rule")
        msize = len(self.arrangement.lines)
        for i, r in enumerate(self.rules):
            if r.rank > msize:
                raise ValueError(f"rule {i} rank {r.rank} exceeds line count {msize}")
        if all(r.rank == 2 for r in self.rules):
            raise ValueError("at least one rule must have rank > 2")

    @property
    def n(self) -> int:
        return len(self.rules)

    def target_resolver(self) -> "Resolver":
        """Step targets for one orbit of :func:`iterate`, chosen by rank.

        Inside a safe cell of the rank table of the point's carrier (the
        last target) the table answers; elsewhere exact ranking does.
        """
        arr = self.arrangement
        tables = _rank_tables(arr)
        ranks = [r.rank - 1 for r in self.rules]
        table: Optional[_CarrierTable] = None  # the start's carrier is only known to a tolerance

        def resolve(i: int, x: Point) -> tuple[Optional[Line], bool]:
            nonlocal table
            idx = ranks[i]
            if table is not None:
                t = x.x * table.dx + x.y * table.dy
                lo, hi, order = table.cells[bisect_right(table.breakpoints, t)]
                if lo < t < hi:
                    target = order[idx]
                    table = tables[target.label]
                    return target, False
            ds, flags = _ranked(x, arr)
            if flags[idx]:
                return None, False
            gap_prev = ds[idx][0] - ds[idx - 1][0] if idx > 0 else math.inf
            gap_next = ds[idx + 1][0] - ds[idx][0] if idx + 1 < len(ds) else math.inf
            target = arr.line(ds[idx][1])
            table = tables[target.label]
            return target, min(gap_prev, gap_next) <= NEAR_TIE_TOL

        return resolve


@dataclass(frozen=True)
class DistanceProfile:
    """Line distances from a point, sorted ascending, with tie flags."""

    entries: tuple[tuple[str, float], ...]
    tie_flags: tuple[bool, ...]

    def label_at(self, rank: int) -> str:
        return self.entries[rank - 1][0]

    def distance_at(self, rank: int) -> float:
        return self.entries[rank - 1][1]

    def tied_at(self, rank: int) -> bool:
        return self.tie_flags[rank - 1]


def _ranked(x: Point, arr: Arrangement) -> tuple[list[tuple[float, str]], list[bool]]:
    """Sorted (distance, label) list plus per-rank non-uniqueness flags."""
    ds = sorted((line.distance(x), line.label) for line in arr.lines)
    m = len(ds)
    flags = [False] * m
    for i in range(m - 1):
        if ds[i + 1][0] - ds[i][0] <= TIE_TOL:
            flags[i] = True
            flags[i + 1] = True
    return ds, flags


def distance_profile(x: Point, arr: Arrangement) -> DistanceProfile:
    """Ascending distance profile of ``x``; rank 1 is the nearest line."""
    if arr.mode is not ArrangementMode.PIECEWISE:
        raise ValueError("distance profiles are defined for piecewise arrangements")
    ds, flags = _ranked(x, arr)
    return DistanceProfile(tuple((lb, d) for d, lb in ds), tuple(flags))


@dataclass(frozen=True)
class TieHit:
    """Returned when a rule's rank lands on a non-unique distance value."""

    point: Point
    rank: int


def apply_piecewise(
    rule: PiecewiseRule, x: Point, arr: Arrangement
) -> Union[Point, TieHit]:
    """Apply one piecewise rule; a rank tie returns TieHit instead of moving."""
    if arr.carrier_of(x, ON_ARRANGEMENT_TOL) is None:
        raise PointOffArrangement(f"point {tuple(x)} lies on no arrangement line")
    if rule.rank > len(arr.lines):
        raise ValueError(f"rank {rule.rank} exceeds line count {len(arr.lines)}")
    ds, flags = _ranked(x, arr)
    if flags[rule.rank - 1]:
        return TieHit(x, rule.rank)
    return project(x, rule.theta, rule.orientation, arr.line(ds[rule.rank - 1][1]))


@dataclass(frozen=True)
class AccReport:
    """Verdict of the average contraction condition."""

    satisfied: bool
    mean_theta: float
    delta: float

    @property
    def margin(self) -> float:
        """How far the mean angle clears the contraction threshold (radians)."""
        return self.mean_theta - (math.pi - self.delta) / 2


def acc_check(m: PiecewiseNRuleMap) -> AccReport:
    """Average contraction condition: (pi - delta)/2 < mean theta <= pi/2.

    ``delta`` is the least pairwise intersection angle of the arrangement;
    the lower inequality is strict.
    """
    mean = sum(r.theta for r in m.rules) / len(m.rules)
    delta = m.arrangement.min_angle
    satisfied = (math.pi - delta) / 2 < mean <= HALF_PI + 1e-12
    return AccReport(satisfied, mean, delta)


def separation_factor(theta: float, delta: float) -> float:
    """Away-branch separation coefficient of an angle-``theta`` projection.

    sin(pi - theta - delta)/sin(theta) is the distance scaling of a
    projection across an intersection angle ``delta`` whose orientation
    maps away from the intersection point.
    """
    if not 0.0 < theta <= HALF_PI:
        raise InvalidAngle(f"theta must lie in (0, pi/2], got {theta}")
    if not 0.0 < delta < HALF_PI:
        raise InvalidAngle(f"delta must be acute, got {delta}")
    return math.sin(math.pi - theta - delta) / math.sin(theta)


def separation_product(theta1: float, theta2: float, delta: float) -> float:
    """Product of two away-branch separation factors opposite ``delta``.

    The product drops below 1 exactly when the mean of the two angles
    clears (pi - delta)/2.
    """
    for name, val in (("theta1", theta1), ("theta2", theta2)):
        if not 0.0 < val <= HALF_PI:
            raise InvalidAngle(f"{name} must lie in (0, pi/2], got {val}")
    return separation_factor(theta1, delta) * separation_factor(theta2, delta)


class InvariantKind(Enum):
    SOMETIMES = "sometimes"
    STRICT = "strict"


@dataclass(frozen=True)
class InvariantPoint:
    """A point some rules fix through a distance-rank tie."""

    location: Point
    kind: InvariantKind
    rules_affected: frozenset[int]


def _bisectors(a: Line, b: Line) -> tuple[Line, Line]:
    """The two angle-bisector lines of a non-parallel pair."""
    z = intersect(a, b)
    assert z is not None
    ax, ay = a.direction
    bx, by = b.direction
    out = []
    for vx, vy in ((ax + bx, ay + by), (ax - bx, ay - by)):
        out.append(canonicalize_line(z, Point(z.x + vx, z.y + vy)))
    return out[0], out[1]


def invariant_points(m: PiecewiseNRuleMap) -> list[InvariantPoint]:
    """All points of the arrangement fixed by some rule through a tie.

    Candidates are the intersections of each line with the angle bisectors
    of every pair of other lines (the equidistance loci) together with the
    pairwise line intersections (double-zero distances); a candidate is
    kept when its tie sits at the rank of at least one rule.  The result
    is finite and sorted by coordinates.
    """
    arr = m.arrangement
    cands: list[Point] = []
    for carrier in arr.lines:
        others = [o for o in arr.lines if o is not carrier]
        for a, b in combinations(others, 2):
            for bis in _bisectors(a, b):
                z = intersect(bis, carrier)
                if z is not None:
                    cands.append(z)
    cands.extend(arr.intersections.values())

    kept: list[InvariantPoint] = []
    seen: list[Point] = []
    for z in cands:
        if any(z.distance_to(s) <= NEAR_TIE_TOL for s in seen):
            continue
        seen.append(z)
        _, flags = _ranked(z, arr)
        affected = frozenset(i for i, r in enumerate(m.rules) if flags[r.rank - 1])
        if affected:
            kind = InvariantKind.STRICT if len(affected) == m.n else InvariantKind.SOMETIMES
            kept.append(InvariantPoint(z, kind, affected))
    kept.sort(key=lambda ip: (ip.location.x, ip.location.y))
    return kept


# Rank tables.  Along a carrier line c, the signed distance to line j is
# affine in the arc parameter t, a_j*t + b_j, so the rank order only
# changes where some a_j*t + b_j or a_i*t + b_i -/+ (a_j*t + b_j) vanishes.
# Between two such breakpoints a cell stores the label order and the safe
# sub-interval where every adjacent-rank gap exceeds NEAR_TIE_TOL plus
# _TABLE_SLACK * (scale + |t|), scale being the largest of 1 and the line
# offsets; there _ranked would find the same order, no tie and no near
# tie.  The slack covers a point up to COINCIDENCE_TOL off its carrier
# (project leaves such points where they are) on both distances of a gap,
# and rounding that grows with the coordinates.
_TABLE_SLACK = 4 * COINCIDENCE_TOL


class _CarrierTable(NamedTuple):
    """Rank orders along one carrier line, looked up by arc parameter."""

    dx: float  # carrier direction: t = x . (dx, dy)
    dy: float
    breakpoints: list[float]
    # cell k covers breakpoints[k-1] < t < breakpoints[k]: (safe_lo,
    # safe_hi, lines by rank with the carrier first)
    cells: list[tuple[float, float, tuple[Line, ...]]]


def _safe_span(
    gaps: Sequence[tuple[float, float]], threshold: float
) -> tuple[float, float]:
    """Open interval where every gap a*t + b exceeds threshold + slack*|t|."""
    lo, hi = -math.inf, math.inf
    for a, b in gaps:
        beta = b - threshold
        # |t| = max(t, -t): one linear constraint for each sign
        for alpha in (a - _TABLE_SLACK, a + _TABLE_SLACK):
            if alpha > 0.0:
                lo = max(lo, -beta / alpha)
            elif alpha < 0.0:
                hi = min(hi, -beta / alpha)
            elif beta <= 0.0:
                return math.inf, -math.inf
    return lo, hi


def _carrier_table(c: Line, arr: Arrangement, scale: float) -> _CarrierTable:
    cdx, cdy = c.direction
    cnx, cny = c.normal
    others = [l for l in arr.lines if l is not c]
    coef = []
    for l in others:
        nx, ny = l.normal
        coef.append((nx * cdx + ny * cdy, c.offset * (nx * cnx + ny * cny) - l.offset))
    roots = {-b / a for a, b in coef if a != 0.0}
    for (a1, b1), (a2, b2) in combinations(coef, 2):
        for a, b in ((a1 - a2, b1 - b2), (a1 + a2, b1 + b2)):
            if a != 0.0:
                roots.add(-b / a)
    bps = sorted(r for r in roots if math.isfinite(r))
    if bps:
        probes = [bps[0] - 1.0 - abs(bps[0])]
        probes += [(u + v) / 2 for u, v in zip(bps, bps[1:])]
        probes.append(bps[-1] + 1.0 + abs(bps[-1]))
    else:
        probes = [0.0]
    threshold = NEAR_TIE_TOL + _TABLE_SLACK * scale
    cells = []
    for t in probes:
        signed = [(a, b) if a * t + b >= 0.0 else (-a, -b) for a, b in coef]
        ranked = sorted(
            range(len(others)), key=lambda j: (signed[j][0] * t + signed[j][1], others[j].label)
        )
        # the signs and order read at the probe are only trusted where
        # the gaps they imply, carrier's zero distance first, stay positive
        prev = (0.0, 0.0)
        gaps = []
        for j in ranked:
            gaps.append((signed[j][0] - prev[0], signed[j][1] - prev[1]))
            prev = signed[j]
        lo, hi = _safe_span(gaps, threshold)
        cells.append((lo, hi, (c,) + tuple(others[j] for j in ranked)))
    return _CarrierTable(cdx, cdy, bps, cells)


def _rank_tables(arr: Arrangement) -> dict[str, _CarrierTable]:
    """Rank table of each carrier, built on first use and kept on ``arr``."""
    tables = arr.__dict__.get("_rank_tables")
    if tables is None:
        scale = max([1.0] + [abs(l.offset) for l in arr.lines])
        tables = {c.label: _carrier_table(c, arr, scale) for c in arr.lines}
        arr.__dict__["_rank_tables"] = tables
    return tables


@dataclass(frozen=True)
class StepRecord:
    """What one orbit step did: which rule, where it resolved, tie flags."""

    rule_index: int
    target: Optional[str]
    tie: bool = False
    near_tie: bool = False


@dataclass
class PiecewiseOrbit:
    """A recorded trajectory of either map family.

    A tie ends it degenerate; a step leaving the floating-point range
    ends it escaped, at the last finite point.
    """

    points: list[Point]
    steps: list[StepRecord]
    terminated_degenerate: bool = False
    escaped: bool = False
    # (j, p): the state at step j recurs bit for bit at step j + p, so the
    # orbit is exactly periodic from step j on; only watched on request
    recurrence: Optional[tuple[int, int]] = None
    # stopped by stop_after_recurrence before reaching max_steps
    truncated: bool = False

    def end(self) -> Point:
        """The last point of a full-length orbit; a tie, an escape or a cut raises."""
        if self.terminated_degenerate:
            raise DegenerateHit(f"distance tie at step {len(self.steps) - 1}")
        if self.escaped:
            raise NonFinitePoint(f"orbit escaped at step {len(self.points)}")
        if self.truncated:
            raise ValueError(f"orbit was cut at step {len(self.steps)} after its recurrence")
        return self.points[-1]


def _state_key(x: Point, label: Optional[str]) -> tuple[str, str, Optional[str]]:
    """What fixes an orbit's future at a cycle boundary, bit for bit.

    The resolver picks its rank table from the last target's label
    (``None`` before the first step).  ``float.hex`` tells ``0.0`` from
    ``-0.0``, which compare equal but print differently; ``float`` admits
    the int coordinates a ``Point`` may be built with.
    """
    return float(x.x).hex(), float(x.y).hex(), label


# (rule index, point) -> (target line or None on a tie, near-tie flag)
Resolver = Callable[[int, Point], tuple[Optional[Line], bool]]


def iterate(
    m: Union[PiecewiseNRuleMap, "SymbolicNRuleMap"],
    x0: Point,
    max_steps: int,
    stop_after_recurrence: Optional[int] = None,
) -> PiecewiseOrbit:
    """Iterate either map family from phase 0 for up to ``max_steps`` steps.

    Each step projects onto the target that ``m.target_resolver()``, made
    once per call, gives for the rule.  A tie stops the orbit as its final
    step; near ties are only flagged.  An overflowing projection stops the
    orbit at the last finite point and marks it escaped.

    With ``stop_after_recurrence`` set, the state at each cycle boundary
    (:func:`_state_key`) is watched with Brent's cycle finding.  At the
    first exact repeat the orbit records ``recurrence`` and stops that many
    steps later, unless ``max_steps`` comes first.  What it holds is a
    prefix of the full orbit.
    """
    if m.arrangement.carrier_of(x0, ON_ARRANGEMENT_TOL) is None:
        raise PointOffArrangement(f"start point {tuple(x0)} lies on no arrangement line")
    if stop_after_recurrence is not None and stop_after_recurrence < 0:
        raise ValueError(f"stop_after_recurrence must be >= 0, got {stop_after_recurrence}")
    points = [x0]
    steps: list[StepRecord] = []
    if max_steps <= 0:
        return PiecewiseOrbit(points, steps)
    resolve = m.target_resolver()
    records: dict[tuple[int, str, bool], StepRecord] = {}
    n = m.n
    x = x0
    watch = stop_after_recurrence is not None
    recurrence: Optional[tuple[int, int]] = None
    stop = -1  # the step count to stop at, once a recurrence is found
    # Brent: saved state, window, distance.  The start state (label None)
    # matches no later boundary state, so the first boundary is saved instead.
    saved, power, lam = None, 1, 0
    for s in range(max_steps):
        i = s % n
        target, near = resolve(i, x)
        if target is None:
            steps.append(StepRecord(i, None, tie=True))
            return PiecewiseOrbit(points, steps, terminated_degenerate=True)
        rule = m.rules[i]
        try:
            x = project(x, rule.theta, rule.orientation, target)
        except NonFinitePoint:
            return PiecewiseOrbit(points, steps, escaped=True)
        points.append(x)
        key = (i, target.label, near)
        rec = records.get(key)
        if rec is None:
            rec = records[key] = StepRecord(i, target.label, False, near)
        steps.append(rec)
        if watch:
            if recurrence is None and i == n - 1:
                state = _state_key(x, target.label)
                lam += 1
                if state == saved:
                    recurrence = (s + 1 - lam * n, lam * n)
                    if s + 1 + stop_after_recurrence < max_steps:
                        stop = s + 1 + stop_after_recurrence
                elif lam == power:
                    saved, power, lam = state, 2 * power, 0
            if s + 1 == stop:
                return PiecewiseOrbit(points, steps, recurrence=recurrence, truncated=True)
    return PiecewiseOrbit(points, steps, recurrence=recurrence)


# the rank-targeted family's name for the core, which callers bind
iterate_piecewise = iterate


def cycle_map(m: PiecewiseNRuleMap, x: Point) -> Point:
    """One full cycle (n rule applications) starting from phase 0."""
    return iterate(m, x, m.n).end()


@dataclass(frozen=True)
class PeriodicCycle:
    """A confirmed asymptotic cycle of the cycle map."""

    period: int
    cycle_points: tuple[Point, ...]
    onset_step: int


def detect_periodic(
    orbit: Union[PiecewiseOrbit, Sequence[Point]],
    n: int,
    tol: float = 1e-8,
    k_max: int = 64,
    confirmations: int = 3,
) -> Optional[PeriodicCycle]:
    """Smallest cycle-map period k*n sustained along the orbit.

    Samples the orbit every ``n`` steps and looks for the smallest k whose
    sample distance stays below ``tol`` over ``confirmations`` consecutive
    checks.  Accepts a PiecewiseOrbit or a plain point sequence; returns
    None when nothing is confirmed within the recorded orbit.
    """
    if n < 1:
        raise ValueError(f"cycle length must be positive, got {n}")
    if isinstance(orbit, PiecewiseOrbit):
        if orbit.terminated_degenerate:
            raise ValueError("a degenerate orbit has no asymptotic period")
        if orbit.truncated:
            # every window confirmed anywhere in the full orbit is confirmed
            # within one period past the recurrence, if the samples repeat
            j, p = orbit.recurrence
            if p % n:
                raise ValueError(f"sampling every {n} steps misses the recurrence period {p}")
            need = (k_max + confirmations) * n
            have = len(orbit.steps) - (j + p)
            if have < need:
                raise ValueError(
                    f"orbit was cut {have} steps after its recurrence at step {j + p}; "
                    f"k_max={k_max}, confirmations={confirmations} need a tail of {need}"
                )
        points: Sequence[Point] = orbit.points
    else:
        points = orbit
    samples = np.array([(p.x, p.y) for p in points[::n]])
    s = len(samples)
    for k in range(1, k_max + 1):
        if s < k + confirmations:
            break
        d = np.hypot(samples[k:, 0] - samples[:-k, 0], samples[k:, 1] - samples[:-k, 1])
        ok = d < tol
        run = ok[: len(ok) - confirmations + 1].copy()
        for j in range(1, confirmations):
            run &= ok[j : len(ok) - confirmations + 1 + j]
        hits = np.flatnonzero(run)
        if hits.size:
            t = int(hits[0])
            a = t + confirmations - 1  # deepest confirmed window start
            start = a * n
            return PeriodicCycle(k * n, tuple(points[start : start + k * n]), start)
    return None
