import math
import random

import pytest
from hypothesis import given, strategies as st

from nrulemaps import (
    Arrangement,
    DegenerateLine,
    InvalidAngle,
    Line,
    ParallelLines,
    Point,
    acute_angle,
    canonicalize_line,
    distance_to_line,
    intersect,
    project,
)
from nrulemaps.geometry import line_through

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
angles = st.floats(0.02, math.pi / 2, exclude_max=False)
line_angles = st.floats(0, math.pi, exclude_max=True)


def seg_angle(a: Point, b: Point, line: Line) -> float:
    sx, sy = b.x - a.x, b.y - a.y
    dx, dy = line.direction
    return math.acos(min(1.0, abs(sx * dx + sy * dy) / math.hypot(sx, sy)))


class TestCanonicalize:
    def test_x_axis(self):
        l = canonicalize_line(Point(0, 0), Point(1, 0), "L")
        assert l.angle == 0.0
        assert l.offset == 0.0

    def test_diagonal_offset(self):
        l = canonicalize_line(Point(0, 1), Point(1, 2))
        assert l.angle == pytest.approx(math.pi / 4, abs=1e-12)
        assert l.offset == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        # distance oracle: the perpendicular foot of the origin is offset away
        assert l.distance(Point(0, 0)) == pytest.approx(abs(l.offset), abs=1e-12)

    def test_coincident_points(self):
        with pytest.raises(DegenerateLine):
            canonicalize_line(Point(0, 0), Point(0, 0))

    @given(finite, finite, finite, finite)
    def test_through_both_points(self, px, py, qx, qy):
        p, q = Point(px, py), Point(qx, qy)
        if p.distance_to(q) <= 1e-6:
            return
        l = canonicalize_line(p, q)
        assert 0 <= l.angle < math.pi
        assert l.distance(p) <= 1e-9
        assert l.distance(q) <= 1e-9


class TestIntersect:
    def test_axes(self):
        z = intersect(Line(0.0, 0.0), Line(math.pi / 2, 0.0))
        assert z.distance_to(Point(0, 0)) <= 1e-12

    def test_shifted_diagonal(self):
        diag = canonicalize_line(Point(0, 1), Point(1, 2))  # y = x + 1
        z = intersect(diag, Line(0.0, 0.0))
        assert z.distance_to(Point(-1, 0)) <= 1e-10

    def test_parallel_is_a_value(self):
        assert intersect(Line(0.0, 0.0), Line(0.0, 1.0)) is None

    @given(line_angles, line_angles, finite, finite)
    def test_point_on_both(self, a1, a2, o1, o2):
        la, lb = Line(a1, o1), Line(a2, o2)
        z = intersect(la, lb)
        if z is None:
            return
        gap = min(abs(a1 - a2), math.pi - abs(a1 - a2))
        if gap < 1e-4:  # nearly parallel: conditioning blows past the check tol
            return
        assert la.distance(z) <= 1e-10
        assert lb.distance(z) <= 1e-10


class TestAcuteAngle:
    def test_perpendicular(self):
        assert acute_angle(Line(0.0, 0.0), Line(math.pi / 2, 0.0)) == pytest.approx(math.pi / 2)

    def test_diagonal(self):
        assert acute_angle(Line(0.0, 0.0), Line(math.pi / 4, 1.0)) == pytest.approx(math.pi / 4)

    def test_wraps_mod_pi(self):
        # min(delta, pi - delta) with delta = 2.7; dot-product oracle below
        got = acute_angle(Line(0.2, 0.0), Line(2.9, 0.0))
        assert got == pytest.approx(math.pi - 2.7, abs=1e-12)
        dot = math.cos(0.2) * math.cos(2.9) + math.sin(0.2) * math.sin(2.9)
        assert got == pytest.approx(math.acos(abs(dot)), abs=1e-9)

    def test_parallel_raises(self):
        with pytest.raises(ParallelLines):
            acute_angle(Line(1.1, 0.0), Line(1.1, 2.0))


class TestDistance:
    def test_unit_above_x_axis(self):
        assert distance_to_line(Point(0, 1), Line(0.0, 0.0)) == 1.0

    def test_diagonal_formula(self):
        # |ax + by + c| / sqrt(a^2 + b^2) with x - y = 0
        d = distance_to_line(Point(0.5, 0), canonicalize_line(Point(0, 0), Point(1, 1)))
        assert d == pytest.approx(0.5 / math.sqrt(2), abs=1e-12)

    def test_point_on_line(self):
        assert distance_to_line(Point(3, 0), Line(0.0, 0.0)) == 0.0


class TestProject:
    def test_perpendicular_foot(self):
        z = project(Point(0, 1), math.pi / 2, 0, Line(0.0, 0.0))
        assert z.distance_to(Point(0, 0)) <= 1e-12

    def test_orientation_sides(self):
        x = Point(0, 1)
        z0 = project(x, math.pi / 4, 0, Line(0.0, 0.0))
        z1 = project(x, math.pi / 4, 1, Line(0.0, 0.0))
        assert z0.distance_to(Point(1, 0)) <= 1e-12
        assert z1.distance_to(Point(-1, 0)) <= 1e-12

    def test_sixty_degree(self):
        z = project(Point(0, 2), math.pi / 3, 0, Line(0.0, 0.0))
        assert z.distance_to(Point(2 / math.sqrt(3), 0)) <= 1e-12

    def test_point_on_target_fixed(self):
        x = Point(2.5, 0.0)
        assert project(x, 0.3, 1, Line(0.0, 0.0)) is x

    def test_bad_theta(self):
        with pytest.raises(InvalidAngle):
            project(Point(0, 1), 0.0, 0, Line(0.0, 0.0))
        with pytest.raises(InvalidAngle):
            project(Point(0, 1), math.pi / 2 + 1e-9, 0, Line(0.0, 0.0))

    @given(line_angles, finite, finite, finite, angles, st.integers(0, 1))
    def test_incidence_angle(self, la, off, px, py, theta, o):
        target = Line(la, off)
        x = Point(px, py)
        if target.distance(x) < 1e-6:
            return
        z = project(x, theta, o, target)
        assert target.distance(z) <= 1e-9
        assert seg_angle(x, z, target) == pytest.approx(theta, abs=1e-10)

    @given(line_angles, finite, finite, finite, angles)
    def test_reflection_through_foot(self, la, off, px, py, theta):
        target = Line(la, off)
        x = Point(px, py)
        if target.distance(x) < 1e-6:
            return
        z0 = project(x, theta, 0, target)
        z1 = project(x, theta, 1, target)
        p = target.foot(x)
        assert z0.x + z1.x == pytest.approx(2 * p.x, abs=1e-10)
        assert z0.y + z1.y == pytest.approx(2 * p.y, abs=1e-10)


def test_antiparallel_across_the_line():
    rng = random.Random(2024)
    for _ in range(500):
        target = Line(rng.uniform(0, math.pi), rng.uniform(-3, 3))
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        o = rng.randrange(2)
        nx, ny = target.normal
        base = target.point_at(rng.uniform(-3, 3))
        h1, h2 = rng.uniform(0.5, 3), rng.uniform(0.5, 3)
        x = Point(base.x + h1 * nx, base.y + h1 * ny)
        xp = Point(base.x - h2 * nx, base.y - h2 * ny)
        z, zp = project(x, theta, o, target), project(xp, theta, o, target)
        u = (z.x - x.x, z.y - x.y)
        v = (zp.x - xp.x, zp.y - xp.y)
        nu, nv = math.hypot(*u), math.hypot(*v)
        assert math.hypot(u[0] / nu + v[0] / nv, u[1] / nu + v[1] / nv) <= 1e-10


def test_translation_affine_collinearity():
    rng = random.Random(7)
    for _ in range(500):
        carrier = Line(rng.uniform(0, math.pi), rng.uniform(-3, 3))
        target = Line(rng.uniform(0, math.pi), rng.uniform(-3, 3))
        if abs(carrier.angle - target.angle) < 1e-3:
            continue
        theta = rng.uniform(0.05, math.pi / 2)
        o = rng.randrange(2)
        t0 = rng.uniform(-3, 3)
        pts = []
        for t in (t0, t0 + 1.3, t0 + 2.9):
            x = carrier.point_at(t)
            if target.distance(x) < 1e-6:
                break
            pts.append(project(x, theta, o, target))
        if len(pts) < 3:
            continue
        (a, b, c) = pts
        cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
        assert abs(cross) <= 1e-9


class TestArrangement:
    def test_symbolic_rejects_concurrent(self):
        lines = [
            Line(0.0, 0.0, "L1"),
            Line(math.pi / 4, 0.0, "L2"),
            Line(1.2, 0.0, "L3"),
        ]
        with pytest.raises(ValueError, match="common point"):
            Arrangement.symbolic(lines)

    def test_symbolic_needs_a_free_line(self):
        lines = [
            Line(0.0, 0.0, "L1"),
            Line(math.pi / 2, 1.0, "L2"),
            Line(0.0, 2.0, "L3"),
        ]
        with pytest.raises(ValueError, match="parallel nor perpendicular"):
            Arrangement.symbolic(lines)

    def test_symbolic_allows_parallel_pair(self, x3):
        lines = list(x3.lines) + [Line(0.0, 3.0, "L4")]
        arr = Arrangement.symbolic(lines)
        assert arr.intersection("L1", "L4") is None
        assert "L3" in arr.free_lines

    def test_piecewise_rejects_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            Arrangement.piecewise(
                [Line(0.0, 0.0, "A"), Line(0.0, 1.0, "B"), Line(1.0, 0.0, "C")]
            )

    def test_piecewise_rejects_concurrent(self):
        with pytest.raises(ValueError, match="coincide"):
            Arrangement.piecewise(
                [Line(0.3, 0.0, "A"), Line(1.0, 0.0, "B"), Line(2.0, 0.0, "C")]
            )

    def test_min_angle(self, y3):
        assert y3.min_angle == pytest.approx(math.pi / 4)
        assert len(y3.intersections) == 3
        assert len(y3.pairwise_angles) == 3

    def test_carrier_of(self, y3):
        assert y3.carrier_of(Point(0.5, 0.0)).label == "A"
        assert y3.carrier_of(Point(10.0, 3.0)) is None


class TestLineThrough:
    @given(
        px=st.floats(-1e6, 1e6),
        py=st.floats(-1e6, 1e6),
        deg=st.one_of(st.floats(-1e4, 1e4), st.sampled_from([0.0, 180.0, -180.0, 540.0, -1e-300])),
    )
    def test_matches_the_degree_formula(self, px, py, deg):
        # the construction config files used before line_through existed
        ang = math.radians(deg) % math.pi
        if ang >= math.pi:
            ang = 0.0
        want = Line(ang, px * -math.sin(ang) + py * math.cos(ang), "L")
        assert line_through(Point(px, py), math.radians(deg), "L") == want

    def test_canonicalize_goes_through_it(self):
        p, q = Point(0.3, -1.2), Point(-2.0, 0.7)
        assert canonicalize_line(p, q) == line_through(p, math.atan2(q.y - p.y, q.x - p.x))
