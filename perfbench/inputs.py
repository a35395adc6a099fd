"""Seeded inputs for the benchmark workloads.

Everything here is plain arithmetic on the benchmark's side: the program
receives only the numbers these functions produce (a start point, or the
lines, angles and labels of a curve request).  The same seed always gives
the same inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The seed whose outputs are pinned in reference.json.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class BenchLine:
    """A line in the program's canonical form, computed independently."""

    label: str
    angle: float  # direction angle in [0, pi)
    offset: float  # signed distance along the left normal

    @property
    def direction(self) -> tuple[float, float]:
        return (math.cos(self.angle), math.sin(self.angle))

    @property
    def normal(self) -> tuple[float, float]:
        return (-math.sin(self.angle), math.cos(self.angle))

    def point_at(self, t: float) -> tuple[float, float]:
        (dx, dy), (nx, ny) = self.direction, self.normal
        return (self.offset * nx + t * dx, self.offset * ny + t * dy)


@dataclass(frozen=True)
class SystemSpec:
    """The parts of a JSON config the output checks need."""

    mode: str
    lines: tuple[BenchLine, ...]
    thetas: tuple[float, ...]  # radians
    orientations: tuple[int, ...]
    targets: tuple  # label (symbolic) or rank (piecewise) per rule


def read_config(path: Path) -> SystemSpec:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    lines = []
    for item in data["lines"]:
        ang = math.radians(item["angle_deg"]) % math.pi
        nx, ny = -math.sin(ang), math.cos(ang)
        px, py = item["point"]
        lines.append(BenchLine(item["label"], ang, px * nx + py * ny))
    rules = data["rules"]
    key = "target" if data["mode"] == "symbolic" else "rank"
    return SystemSpec(
        data["mode"],
        tuple(lines),
        tuple(math.radians(r["theta_deg"]) for r in rules),
        tuple(r["orientation"] for r in rules),
        tuple(r[key] for r in rules),
    )


def sim_start(spec: SystemSpec, seed: int) -> str:
    """The ``--start`` argument of a simulate workload: a point on a line."""
    rng = random.Random(f"sim-{seed}")
    line = spec.lines[rng.randrange(len(spec.lines))]
    x, y = line.point_at(rng.uniform(-3.0, 3.0))
    return f"{x!r},{y!r}"


# -- closed-curve requests ----------------------------------------------------


@dataclass(frozen=True)
class CurveRequest:
    kind: str  # "random" | "neutral" | "collapsing"
    lines: tuple[BenchLine, ...]
    angles: tuple[float, ...]
    labels: tuple[str, ...]


def _spread_angles(rng: random.Random, m: int, min_sep: float = 0.15) -> list[float]:
    while True:
        angles = sorted(rng.uniform(0.0, math.pi) for _ in range(m))
        gaps = [angles[i + 1] - angles[i] for i in range(m - 1)]
        gaps.append(math.pi - (angles[-1] - angles[0]))
        if min(gaps) >= min_sep:
            return angles


def _arrangement(rng: random.Random, m: int) -> tuple[BenchLine, ...]:
    return tuple(BenchLine(f"L{i + 1}", a, rng.uniform(-2.5, 2.5))
                 for i, a in enumerate(_spread_angles(rng, m)))


def _label_sequence(rng: random.Random, labels: list[str], n: int) -> list[str]:
    """Length-n sequence covering every label, cyclically non-repeating."""
    while True:
        seq = [rng.choice(labels) for _ in range(n)]
        if set(seq) == set(labels) and all(seq[i] != seq[i - 1] for i in range(n)):
            return seq


def _signed_scale(src: BenchLine, tgt: BenchLine, theta: float) -> float:
    """Arc-length scale of an orientation-0 projection from src to tgt."""
    return math.sin(theta + src.angle - tgt.angle) / math.sin(theta)


def _acute_gap(a: float, b: float) -> float:
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def _random_request(rng: random.Random) -> CurveRequest:
    m = rng.choice((3, 4, 5))
    lines = _arrangement(rng, m)
    n = rng.randint(m, 10)
    labels = _label_sequence(rng, [ln.label for ln in lines], n)
    angles = [rng.uniform(math.radians(5), math.radians(85)) for _ in range(n)]
    return CurveRequest("random", lines, tuple(angles), tuple(labels))


def _neutral_request(rng: random.Random) -> CurveRequest:
    """A request whose all-orientation-0 cycle has signed scale 1.

    One angle is solved so that the product of the per-rule scales is
    exactly +1, which makes the curve builder flip an orientation before
    it can close the curve.
    """
    while True:
        m = rng.choice((3, 4, 5))
        lines = _arrangement(rng, m)
        by_label = {ln.label: ln for ln in lines}
        n = rng.randint(m, 10)
        labels = _label_sequence(rng, list(by_label), n)
        thetas = [rng.uniform(math.radians(20), math.radians(80)) for _ in range(n)]
        pairs = [(by_label[labels[i - 1]], by_label[labels[i]]) for i in range(n)]
        factors = [_signed_scale(s, t, th) for (s, t), th in zip(pairs, thetas)]
        total = math.prod(factors)
        if total == 0:
            continue
        for j, (src, tgt) in enumerate(pairs):
            d = src.angle - tgt.angle
            if abs(math.sin(d)) < 0.05:
                continue
            theta = math.atan2(math.sin(d), factors[j] / total - math.cos(d))
            if not math.radians(6) < theta < math.radians(84):
                continue
            cand = list(thetas)
            cand[j] = theta
            scale = math.prod(_signed_scale(s, t, th) for (s, t), th in zip(pairs, cand))
            if abs(scale - 1.0) <= 1e-13:
                return CurveRequest("neutral", lines, tuple(cand), tuple(labels))


def _collapsing_request(rng: random.Random) -> CurveRequest:
    """A request whose all-orientation-0 cycle has a collapsing rule.

    One angle equals the intersection angle of its carrier and target on
    the branch that maps toward the intersection point.
    """
    while True:
        m = rng.choice((3, 4))
        lines = _arrangement(rng, m)
        by_label = {ln.label: ln for ln in lines}
        n = rng.randint(m, 8)
        labels = _label_sequence(rng, list(by_label), n)
        i = rng.randrange(n)
        src, tgt = by_label[labels[i - 1]], by_label[labels[i]]
        pair = _acute_gap(src.angle, tgt.angle)
        if pair >= math.radians(84):
            continue
        thetas = [rng.uniform(math.radians(30), math.radians(80)) for _ in range(n)]
        thetas[i] = pair
        phase = pair + src.angle - tgt.angle
        if abs(phase - round(phase / math.pi) * math.pi) <= 1e-12:
            return CurveRequest("collapsing", lines, tuple(thetas), tuple(labels))


def curve_requests(seed: int, count: int) -> list[CurveRequest]:
    """A shuffled batch: one request in twenty neutral, one in twenty collapsing."""
    rng = random.Random(f"curves-{seed}")
    engineered = count // 20
    out = [_neutral_request(rng) for _ in range(engineered)]
    out += [_collapsing_request(rng) for _ in range(engineered)]
    out += [_random_request(rng) for _ in range(count - len(out))]
    rng.shuffle(out)
    return out
